package cloud

import (
	"fmt"

	"elearncloud/internal/sim"
)

// VMState is the lifecycle state of a virtual machine.
type VMState int

// VM lifecycle states, in order.
const (
	VMProvisioning VMState = iota + 1 // placed, waiting for boot
	VMRunning                         // serving
	VMTerminated                      // released
)

// String returns the state name.
func (s VMState) String() string {
	switch s {
	case VMProvisioning:
		return "provisioning"
	case VMRunning:
		return "running"
	case VMTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("VMState(%d)", int(s))
	}
}

// VM is one provisioned virtual machine.
type VM struct {
	// ID is unique within a Datacenter.
	ID int

	state        VMState
	host         *Host
	provisioned  sim.Time
	terminated   sim.Time
	interference float64 // [0,1): fraction of CPU stolen by co-tenants
}

// State returns the current lifecycle state.
func (v *VM) State() VMState { return v.state }

// Host returns the host the VM is placed on (nil after termination).
func (v *VM) Host() *Host { return v.host }

// RunningHours returns the billable wall-clock hours between provisioning
// and termination (or now, if still running). Partial hours are fractional
// here; billing granularity is applied by the cost package.
func (v *VM) RunningHours(now sim.Time) float64 {
	end := v.terminated
	if v.state != VMTerminated {
		end = now
	}
	if end < v.provisioned {
		return 0
	}
	return (end - v.provisioned).Hours()
}

// SpeedFactor returns the fraction of nominal CPU speed the VM currently
// receives: 1.0 on an interference-free host, less when co-tenants steal
// cycles. Service times scale by 1/SpeedFactor.
func (v *VM) SpeedFactor() float64 {
	f := 1 - v.interference
	if f < 0.05 {
		f = 0.05 // a VM is never starved below 5% in practice
	}
	return f
}

// setInterference records the current noisy-neighbor level.
func (v *VM) setInterference(x float64) {
	if x < 0 {
		x = 0
	}
	if x > 0.95 {
		x = 0.95
	}
	v.interference = x
}
