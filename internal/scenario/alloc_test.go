package scenario

import (
	"runtime"
	"testing"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/network"
	"elearncloud/internal/workload"
)

// maxMallocsPerEvent bounds the heap allocations a request-level run
// makes per fired event. The request path itself allocates nothing
// (pooled request records, cached method values); what is left is
// setup, the fleet's VMs and servers, and pools and slices growing to
// their high-water marks.
const maxMallocsPerEvent = 0.05

// TestRequestPathAllocations pins the allocation-free request path: one
// run per deployment kind through refused admissions, CDN hits and
// misses, hybrid bursting and a host failure that kills jobs, with
// heap allocations counted per fired event over the whole run.
func TestRequestPathAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("four full DES runs; the short lane skips them")
	}
	for _, kind := range append(deploy.Kinds(), deploy.Desktop) {
		cfg := Config{
			Seed:              1,
			Kind:              kind,
			Students:          1000,
			ReqPerStudentHour: 50,
			Duration:          time.Hour,
			Diurnal:           workload.FlatDiurnal(),
			Scaler:            ScalerReactive,
			EnableCDN:         true,
			Access:            network.RuralDSL,
			Crowds: []workload.FlashCrowd{
				{Start: 20 * time.Minute, End: 40 * time.Minute, Mult: 10, ExamTraffic: true},
			},
			HostFailureAt: 30 * time.Minute,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		perEvent := float64(after.Mallocs-before.Mallocs) / float64(res.Events)
		t.Logf("%v: %d events, %.4f mallocs/event, %d killed, %d rejected",
			kind, res.Events, perEvent, res.KilledJobs, res.Rejected)
		if perEvent > maxMallocsPerEvent {
			t.Errorf("%v: %.4f mallocs per fired event, want at most %v", kind, perEvent, maxMallocsPerEvent)
		}
	}
}
