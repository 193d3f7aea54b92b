package cloud

import "errors"

// ErrNoCapacity is returned when no host can accommodate a VM demand.
var ErrNoCapacity = errors.New("cloud: no host with sufficient capacity")

// firstFit returns the lowest-ID healthy host with room for demand, or
// nil when none has. With one VM shape it fills each host before it
// opens the next, consolidating load onto few hosts.
func firstFit(demand Resources, hosts []*Host) *Host {
	for _, h := range hosts {
		if h.CanFit(demand) {
			return h
		}
	}
	return nil
}
