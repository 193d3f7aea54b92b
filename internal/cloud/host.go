package cloud

import (
	"fmt"
	"sort"
)

// Host is one physical machine in a datacenter.
type Host struct {
	// ID is unique within a Datacenter.
	ID int
	// Capacity is the host's total resources.
	Capacity Resources

	allocated Resources
	vms       map[int]*VM
	failed    bool
}

// NewHost returns an empty host with the given capacity.
func NewHost(id int, capacity Resources) *Host {
	if !capacity.Valid() || capacity.IsZero() {
		panic(fmt.Sprintf("cloud: NewHost with invalid capacity %v", capacity))
	}
	return &Host{ID: id, Capacity: capacity, vms: make(map[int]*VM)}
}

// Free returns remaining capacity.
func (h *Host) Free() Resources { return h.Capacity.Sub(h.allocated) }

// CanFit reports whether a demand fits in the remaining capacity of a
// healthy host.
func (h *Host) CanFit(demand Resources) bool {
	return !h.failed && demand.Fits(h.Free())
}

// place reserves resources for vm. Caller must have checked CanFit.
func (h *Host) place(vm *VM) {
	h.allocated = h.allocated.Add(vm.Spec.Res)
	h.vms[vm.ID] = vm
	vm.host = h
}

// release frees the resources held by vm.
func (h *Host) release(vm *VM) {
	if _, ok := h.vms[vm.ID]; !ok {
		return
	}
	delete(h.vms, vm.ID)
	h.allocated = h.allocated.Sub(vm.Spec.Res)
	if !h.allocated.Valid() {
		panic(fmt.Sprintf("cloud: host %d allocation went negative: %v", h.ID, h.allocated))
	}
	vm.host = nil
}

// VMs returns the VMs currently placed on the host, in ascending ID
// order. The order is part of the determinism contract: callers feed
// these VMs into work that shares RNG streams (FailHost terminates
// them one by one), so a map-order slice would leak iteration order
// into results.
func (h *Host) VMs() []*VM {
	out := make([]*VM, 0, len(h.vms))
	for _, vm := range h.vms {
		out = append(out, vm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
