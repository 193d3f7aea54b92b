// Package lms models the e-learning application layer: the request mix
// a learning-management system serves (content pages, video, quizzes,
// uploads), processor-sharing application servers running on cloud
// VMs, a load-balanced cluster, user sessions with autosave, and the
// digital assets ("tests, exam questions, results") whose safety the
// paper worries about (§III).
//
// Entry points:
//
//   - Class / ClassSpec / Mix describe the traffic: DefaultCatalog
//     carries the per-class service demands, TeachingMix and ExamMix
//     are the two canonical blends (the workload package draws
//     arrivals from a Mix).
//   - NewAppServer binds a processor-sharing server to a cloud.VM;
//     NewCluster load-balances a fleet of them. Together they are the
//     serving path every request-level scenario run measures latency
//     through. The least-connections pick is O(1): the cluster files
//     each accepting server under its in-flight count, and a server
//     re-files itself when it admits, completes, retires or is killed.
//     A VM finishing its boot tells nobody, so the cluster keeps
//     servers whose VM is still provisioning on a booting list and
//     files those that now accept before each pick and each Load.
//   - NewSession models one student's stateful session with periodic
//     autosave — the unit of "lost work" when the network drops
//     (figure5's §III risk).
//   - NewInventory counts the institution's digital assets by kind and
//     says where each kind lives under a Placement (OnPublic/on-premise
//     Locations), which is what the security package threatens and the
//     migrate package has to move.
package lms
