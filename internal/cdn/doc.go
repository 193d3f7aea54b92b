// Package cdn models an edge content-delivery network for the video
// side of the e-learning workload. It is the reproduction's first
// extension experiment: the headline Figure 3 finding — 2013 egress
// pricing makes video-heavy e-learning expensive to rent — is exactly
// why real 2013 platforms (Coursera, edX, Khan Academy) served video
// through CDNs. The cdn package quantifies how much of the public
// model's cost disadvantage a CDN recovers, which is what figure8
// (the CDN ablation on the cost crossover, §V) sweeps.
//
// The edge has one configuration, set by the institution's course count:
// a catalog of 200 video segments per course (one semester's
// lectures), Zipf(1) popularity, and a cache holding a quarter of the
// catalog. Two fidelities, matching the scenario package:
//
//   - Edge (NewEdge(courses, rng)) fronts the request-level simulation
//     with an exact LRU cache (Cache, NewCache): every video request
//     either hits at the edge or falls through to origin egress.
//   - AnalyticHitRatio(courses) is the closed-form companion for fluid
//     cost studies: the expected hit ratio of caching the top quarter
//     of the Zipf(1) popularity curve, so semester-scale TCO sweeps
//     never have to replay requests.
//
// scenario.Config.EnableCDN wires an Edge into an end-to-end run; the
// examples and figure8 show both fidelities in use.
package cdn
