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

// Dominant returns the largest utilization fraction of r relative to
// capacity c (the bottleneck dimension). Zero-capacity dimensions with
// nonzero demand report 1.
func (r Resources) Dominant(c Resources) float64 {
	frac := func(used, cap float64) float64 {
		if cap <= 0 {
			if used > 0 {
				return 1
			}
			return 0
		}
		return used / cap
	}
	m := frac(r.CPU, c.CPU)
	if v := frac(r.Mem, c.Mem); v > m {
		m = v
	}
	if v := frac(r.Disk, c.Disk); v > m {
		m = v
	}
	return m
}

// String renders the vector compactly.
func (r Resources) String() string {
	return fmt.Sprintf("{cpu=%g mem=%gGB disk=%gGB}", r.CPU, r.Mem, r.Disk)
}
