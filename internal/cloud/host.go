package cloud

import "sort"

// VMsPerHost is how many VMs one owned host carries. Every private VM
// has m.large's shape (4 CPU, 7.5 GB, 850 GB) and every campus host 16
// CPU, 64 GB and 8,000 GB, so CPU sets the count: memory would allow 8
// and disk 9.
const VMsPerHost = 4

// Host is one physical machine in a private datacenter: VMsPerHost VM
// slots that it loses together when it fails.
type Host struct {
	// ID is unique within a Datacenter.
	ID int

	vms    map[int]*VM
	failed bool
}

// NewHost returns an empty, healthy host.
func NewHost(id int) *Host {
	return &Host{ID: id, vms: make(map[int]*VM)}
}

// hasRoom reports whether the host is healthy and has a free slot.
func (h *Host) hasRoom() bool { return !h.failed && len(h.vms) < VMsPerHost }

// place puts vm in a slot. Caller must have checked hasRoom.
func (h *Host) place(vm *VM) {
	h.vms[vm.ID] = vm
	vm.host = h
}

// release frees the slot held by vm.
func (h *Host) release(vm *VM) {
	if _, ok := h.vms[vm.ID]; !ok {
		return
	}
	delete(h.vms, vm.ID)
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
