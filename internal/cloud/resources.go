package cloud

import "fmt"

// Resources is a vector of machine resources. Units: CPU in cores, Mem in
// GB, Disk in GB.
type Resources struct {
	CPU  float64
	Mem  float64
	Disk float64
}

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	return Resources{CPU: r.CPU + o.CPU, Mem: r.Mem + o.Mem, Disk: r.Disk + o.Disk}
}

// Sub returns r - o.
func (r Resources) Sub(o Resources) Resources {
	return Resources{CPU: r.CPU - o.CPU, Mem: r.Mem - o.Mem, Disk: r.Disk - o.Disk}
}

// Fits reports whether r fits within capacity c.
func (r Resources) Fits(c Resources) bool {
	return r.CPU <= c.CPU && r.Mem <= c.Mem && r.Disk <= c.Disk
}

// IsZero reports whether all components are zero.
func (r Resources) IsZero() bool { return r == Resources{} }

// Valid reports whether all components are non-negative.
func (r Resources) Valid() bool { return r.CPU >= 0 && r.Mem >= 0 && r.Disk >= 0 }

// String renders the vector compactly.
func (r Resources) String() string {
	return fmt.Sprintf("{cpu=%g mem=%gGB disk=%gGB}", r.CPU, r.Mem, r.Disk)
}
