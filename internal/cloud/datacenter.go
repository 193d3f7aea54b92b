package cloud

import (
	"fmt"
	"time"

	"elearncloud/internal/sim"
)

// Config configures a Datacenter.
type Config struct {
	// Name labels the datacenter in reports ("public-east", "campus-dc").
	Name string
	// Hosts is the number of physical hosts.
	Hosts int
	// HostCapacity is each host's resource capacity.
	HostCapacity Resources
	// Placer chooses hosts for new VMs. Defaults to FirstFit.
	Placer Placer
	// MultiTenant enables noisy-neighbor interference: co-tenant load on
	// shared hosts periodically steals CPU from placed VMs. Public clouds
	// set this; private clouds do not.
	MultiTenant bool
	// InterferenceDist samples the fraction of CPU stolen per VM per
	// resample interval when MultiTenant is set. Defaults to a mild
	// LogNormal around 5%.
	InterferenceDist sim.Dist
	// InterferenceEvery is the resample period (default 5 minutes).
	InterferenceEvery time.Duration
	// Elastic datacenters (public clouds) add phantom hosts on demand, so
	// provisioning never fails for capacity reasons; the institution pays
	// per VM-hour. Non-elastic (private) datacenters return ErrNoCapacity
	// when full — the paper's fixed-capacity drawback.
	Elastic bool
}

// Datacenter owns a pool of hosts and manages the VM lifecycle on top of a
// simulation engine.
type Datacenter struct {
	cfg    Config
	eng    *sim.Engine
	rng    *sim.RNG
	hosts  []*Host
	nextID int
	vms    map[int]*VM

	vmHours float64 // accumulated at termination
}

// NewDatacenter builds a datacenter and, for multi-tenant configurations,
// starts the periodic interference resampler on the engine.
func NewDatacenter(eng *sim.Engine, cfg Config) *Datacenter {
	if eng == nil {
		panic("cloud: NewDatacenter with nil engine")
	}
	if cfg.Hosts <= 0 {
		panic("cloud: NewDatacenter needs at least one host")
	}
	if cfg.Placer == nil {
		cfg.Placer = FirstFit{}
	}
	if cfg.InterferenceDist == nil {
		cfg.InterferenceDist = sim.LogNormal(0.05, 0.8)
	}
	if cfg.InterferenceEvery <= 0 {
		cfg.InterferenceEvery = 5 * time.Minute
	}
	dc := &Datacenter{
		cfg: cfg,
		eng: eng,
		rng: eng.Stream("cloud/" + cfg.Name),
		vms: make(map[int]*VM),
	}
	for i := 0; i < cfg.Hosts; i++ {
		dc.hosts = append(dc.hosts, NewHost(i, cfg.HostCapacity))
	}
	if cfg.MultiTenant {
		eng.Every(cfg.InterferenceEvery, cfg.Name+"/interference", dc.resampleInterference)
	}
	return dc
}

// Name returns the datacenter's configured name.
func (dc *Datacenter) Name() string { return dc.cfg.Name }

// Provision places and boots a VM of the given spec. The ready callback
// (optional) fires when the VM finishes booting. If capacity is exhausted
// and the datacenter is not elastic, it returns ErrNoCapacity.
func (dc *Datacenter) Provision(spec InstanceSpec, ready func(*VM)) (*VM, error) {
	if !spec.Res.Valid() || spec.Res.IsZero() {
		return nil, fmt.Errorf("cloud: provision %q with invalid resources %v", spec.Name, spec.Res)
	}
	host, err := dc.cfg.Placer.Place(spec.Res, dc.hosts)
	if err != nil {
		if !dc.cfg.Elastic {
			return nil, fmt.Errorf("datacenter %s: %w", dc.cfg.Name, err)
		}
		// Elastic overflow: the provider brings another host online.
		host = NewHost(len(dc.hosts), dc.cfg.HostCapacity)
		dc.hosts = append(dc.hosts, host)
		if !spec.Res.Fits(host.Capacity) {
			return nil, fmt.Errorf("cloud: spec %q exceeds host capacity", spec.Name)
		}
	}
	vm := &VM{
		ID:          dc.nextID,
		Spec:        spec,
		state:       VMProvisioning,
		provisioned: dc.eng.Now(),
	}
	dc.nextID++
	host.place(vm)
	dc.vms[vm.ID] = vm
	boot := sim.Time(0)
	if spec.BootDelay != nil {
		boot = sim.Seconds(spec.BootDelay.Sample(dc.rng))
	}
	dc.eng.Schedule(boot, dc.cfg.Name+"/boot", func() {
		if vm.state != VMProvisioning {
			return // terminated while booting
		}
		vm.state = VMRunning
		if dc.cfg.MultiTenant {
			vm.setInterference(dc.cfg.InterferenceDist.Sample(dc.rng))
		}
		if ready != nil {
			ready(vm)
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
			vm.setInterference(dc.cfg.InterferenceDist.Sample(dc.rng))
		}
	}
}
