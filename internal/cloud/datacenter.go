package cloud

import (
	"fmt"
	"time"

	"elearncloud/internal/sim"
)

// Config configures a Datacenter.
type Config struct {
	// Name labels the datacenter ("public", "private") and roots its
	// random stream.
	Name string
	// Hosts is the number of physical hosts a private datacenter owns,
	// each of VMsPerHost slots. A public datacenter keeps none.
	Hosts int
	// BootDelay is the provisioning-to-running latency of every VM the
	// datacenter provisions, in seconds. Nil means instant boot.
	BootDelay sim.Dist
	// Public makes the datacenter a rented, multi-tenant public cloud:
	// provisioning never fails for capacity (the institution pays per
	// VM-hour), VMs land on provider hosts the model does not track, and
	// co-tenants on those hosts steal CPU from every VM (noisy
	// neighbors). A private datacenter places each VM on its lowest-ID
	// healthy host with a free slot and returns ErrNoCapacity when none
	// has — the paper's fixed-capacity drawback — and its VMs run at
	// full speed.
	Public bool
}

// interference samples the fraction of CPU co-tenants steal from a
// public VM: a mild log-normal around 5%, drawn at boot and every
// interferenceEvery after.
var interference = sim.LogNormal(0.05, 0.8)

const interferenceEvery = 5 * time.Minute

// Datacenter manages the VM lifecycle on top of a simulation engine; a
// private one also owns the hosts its VMs are placed on.
type Datacenter struct {
	cfg    Config
	eng    *sim.Engine
	rng    *sim.RNG
	hosts  []*Host
	nextID int
	vms    map[int]*VM

	vmHours float64 // accumulated at termination
}

// NewDatacenter builds a datacenter and, for a public one, starts the
// periodic interference resampler on the engine.
func NewDatacenter(eng *sim.Engine, cfg Config) *Datacenter {
	if eng == nil {
		panic("cloud: NewDatacenter with nil engine")
	}
	if cfg.Public && cfg.Hosts != 0 {
		panic("cloud: a public datacenter keeps no hosts")
	}
	if !cfg.Public && cfg.Hosts <= 0 {
		panic("cloud: NewDatacenter needs at least one host")
	}
	dc := &Datacenter{
		cfg: cfg,
		eng: eng,
		rng: eng.Stream("cloud/" + cfg.Name),
		vms: make(map[int]*VM),
	}
	for i := 0; i < cfg.Hosts; i++ {
		dc.hosts = append(dc.hosts, NewHost(i))
	}
	if cfg.Public {
		eng.Every(interferenceEvery, cfg.Name+"/interference", dc.resampleInterference)
	}
	return dc
}

// Provision places a VM and boots it: the VM is running once its boot
// delay has passed, unless it was terminated first. A private
// datacenter with no healthy host that has a free slot returns
// ErrNoCapacity.
func (dc *Datacenter) Provision() (*VM, error) {
	var host *Host
	if !dc.cfg.Public {
		if host = firstFit(dc.hosts); host == nil {
			return nil, fmt.Errorf("datacenter %s: %w", dc.cfg.Name, ErrNoCapacity)
		}
	}
	vm := &VM{
		ID:          dc.nextID,
		state:       VMProvisioning,
		provisioned: dc.eng.Now(),
	}
	dc.nextID++
	if host != nil {
		host.place(vm)
	}
	dc.vms[vm.ID] = vm
	boot := sim.Time(0)
	if dc.cfg.BootDelay != nil {
		boot = sim.Seconds(dc.cfg.BootDelay.Sample(dc.rng))
	}
	dc.eng.Schedule(boot, dc.cfg.Name+"/boot", func() {
		if vm.state != VMProvisioning {
			return // terminated while booting
		}
		vm.state = VMRunning
		if dc.cfg.Public {
			vm.setInterference(interference.Sample(dc.rng))
		}
	})
	return vm, nil
}

// Terminate releases a VM. Terminating an already terminated VM is a
// no-op. Billable hours accumulate at termination.
func (dc *Datacenter) Terminate(vm *VM) {
	if vm == nil || vm.state == VMTerminated {
		return
	}
	vm.terminated = dc.eng.Now()
	dc.vmHours += vm.RunningHours(dc.eng.Now())
	if vm.host != nil {
		vm.host.release(vm)
	}
	vm.state = VMTerminated
	delete(dc.vms, vm.ID)
}

// RunningVMs returns non-terminated VMs ordered by ID (deterministic).
func (dc *Datacenter) RunningVMs() []*VM {
	out := make([]*VM, 0, len(dc.vms))
	for id := 0; id < dc.nextID; id++ {
		if vm, ok := dc.vms[id]; ok {
			out = append(out, vm)
		}
	}
	return out
}

// VMHours returns total billable VM-hours: hours of terminated VMs plus
// running time of live VMs up to now. Live VMs are summed in ID order:
// float addition is order-sensitive at the ulp, and a map-order sum can
// land on either side of a rendering boundary (table9's scheduled ramp
// sits exactly on a %.1f half), which would make artifact bytes depend
// on map iteration.
func (dc *Datacenter) VMHours() float64 {
	total := dc.vmHours
	for _, vm := range dc.RunningVMs() {
		total += vm.RunningHours(dc.eng.Now())
	}
	return total
}

// FailHost marks a host failed and terminates its VMs, modeling the
// paper's "physical damage of the unit" risk for on-premise hardware. It
// returns the terminated VMs so callers can count lost capacity.
func (dc *Datacenter) FailHost(id int) []*VM {
	if id < 0 || id >= len(dc.hosts) {
		return nil
	}
	h := dc.hosts[id]
	h.failed = true
	victims := h.VMs() // already in ID order — the determinism contract
	for _, vm := range victims {
		dc.Terminate(vm)
	}
	return victims
}

// RepairHost returns a failed host to service; new provisions may use it
// again. Repairing a healthy or unknown host is a no-op.
func (dc *Datacenter) RepairHost(id int) {
	if id < 0 || id >= len(dc.hosts) {
		return
	}
	dc.hosts[id].failed = false
}

// resampleInterference refreshes each running VM's noisy-neighbor level.
// Iteration is in VM-ID order: the VMs share one RNG stream, so a stable
// order is required for the determinism contract.
func (dc *Datacenter) resampleInterference() {
	for _, vm := range dc.RunningVMs() {
		if vm.State() == VMRunning {
			vm.setInterference(interference.Sample(dc.rng))
		}
	}
}
