// Package cloud models the infrastructure substrate of a deployment:
// datacenters, physical hosts, virtual machines with a provisioning
// lifecycle, placement strategies, and multi-tenant interference
// ("noisy neighbors") for shared public-cloud hosts. It is the
// mechanical layer under every deployment model the paper compares —
// §IV.A's "quickest solution" public cloud is this package with
// effectively unbounded hosts; §IV.B's capital-bound private cloud is
// the same package with a fixed host fleet.
//
// Entry points:
//
//   - NewDatacenter(engine, Config) builds a Datacenter of Hosts on a
//     sim.Engine; Datacenter provisioning drives the VM lifecycle
//     (VMState: provisioning → running → terminated) on the virtual
//     clock, so public-cloud boot latency is a measurable quantity,
//     not an assumption.
//   - Placer decides which Host receives a VM: FirstFit, BestFit and
//     Spread are provided; ErrNoCapacity is the full-fleet signal the
//     private model surfaces during exam crowds.
//   - Resources / InstanceSpec describe CPU, memory and disk; the
//     flavors a deployment runs, and how many of them fit a host, live
//     in the deploy package.
//
// The package is deliberately application-agnostic: it knows about
// CPU, memory and disk, but nothing about e-learning. The lms package
// layers request processing on top of VMs, and the deploy package
// decides how many datacenters of which kind a deployment model gets.
package cloud
