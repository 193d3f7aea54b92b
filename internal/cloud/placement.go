package cloud

import "errors"

// ErrNoCapacity is returned when no host has a free VM slot.
var ErrNoCapacity = errors.New("cloud: no host with sufficient capacity")

// firstFit returns the lowest-ID healthy host with a free slot, or nil
// when none has. It fills each host before it opens the next,
// consolidating load onto few hosts.
func firstFit(hosts []*Host) *Host {
	for _, h := range hosts {
		if h.hasRoom() {
			return h
		}
	}
	return nil
}
