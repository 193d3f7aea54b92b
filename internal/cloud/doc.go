// Package cloud models the infrastructure substrate of a deployment:
// datacenters, physical hosts, virtual machines with a provisioning
// lifecycle, and multi-tenant interference ("noisy neighbors") on the
// public cloud's shared hosts. It is the mechanical layer under every
// deployment model the paper compares — §IV.A's "quickest solution"
// public cloud is a datacenter that never runs out of room; §IV.B's
// capital-bound private cloud is one with a fixed host fleet.
//
// Entry points:
//
//   - NewDatacenter(engine, Config) builds a Datacenter on a
//     sim.Engine; Provision() drives the VM lifecycle (VMState:
//     provisioning → running → terminated) on the virtual clock, so
//     public-cloud boot latency is a measurable quantity, not an
//     assumption. A VM announces nothing when it boots: whoever needs
//     to know reads its State.
//   - Config.Public picks the model. A public datacenter keeps no
//     hosts: it never refuses a VM, and co-tenants steal CPU from every
//     VM it runs. A private datacenter owns Config.Hosts hosts, places
//     each VM on the lowest-ID healthy host with a free slot, and
//     returns ErrNoCapacity when none has — the full-fleet signal the
//     private model surfaces during exam crowds. Its hosts can fail and
//     be repaired.
//   - Every VM has one shape, m.large's, and every owned host one
//     size, so a host is VMsPerHost slots. Config.BootDelay is the one
//     thing that tells a datacenter's VMs apart: the deploy package
//     gives the rented side a slower boot than the campus side.
//
// The package is deliberately application-agnostic: it knows about
// VMs, hosts and boot delays, but nothing about e-learning. The lms
// package layers request processing on top of VMs, and the deploy
// package decides how many datacenters of which kind a deployment
// model gets.
package cloud
