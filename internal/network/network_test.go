package network

import (
	"fmt"
	"math"
	"testing"
	"time"

	"elearncloud/internal/sim"
)

// fixed is a degenerate latency distribution: every draw is its value.
type fixed float64

func (d fixed) Sample(*sim.RNG) float64 { return float64(d) }
func (d fixed) Mean() float64           { return float64(d) }
func (d fixed) String() string          { return fmt.Sprintf("fixed(%g)", float64(d)) }

func TestLinkBasics(t *testing.T) {
	l := NewLink("dsl", fixed(0.01), 10)
	if !l.Up() {
		t.Fatal("link without failure process must be up")
	}
	if l.EffectiveMbps() != 10 {
		t.Fatalf("EffectiveMbps = %v", l.EffectiveMbps())
	}
}

func TestLinkConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil latency": func() { NewLink("x", nil, 10) },
		"zero mbps":   func() { NewLink("x", fixed(0.01), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLinkBandwidthSharing(t *testing.T) {
	l := NewLink("shared", fixed(0.001), 100)
	p := NewPath("p", l)
	p.Begin()
	p.Begin()
	if l.transfers != 2 {
		t.Fatalf("ActiveTransfers = %d", l.transfers)
	}
	if l.EffectiveMbps() != 50 {
		t.Fatalf("EffectiveMbps = %v, want 50 with 2 flows", l.EffectiveMbps())
	}
	p.End()
	if l.transfers != 1 {
		t.Fatalf("ActiveTransfers = %d after release", l.transfers)
	}
	p.End()
	if l.EffectiveMbps() != 100 {
		t.Fatalf("EffectiveMbps = %v after all released", l.EffectiveMbps())
	}
}

func TestDedicatedLinkIgnoresConcurrency(t *testing.T) {
	l := NewLink("dsl", fixed(0.01), 20)
	l.Dedicated = true
	p := NewPath("p", l)
	p.Begin()
	p.Begin()
	if l.EffectiveMbps() != 20 {
		t.Fatalf("dedicated EffectiveMbps = %v, want full 20", l.EffectiveMbps())
	}
	p.End()
	p.End()
}

func TestBuildTopologyLastMileIsDedicated(t *testing.T) {
	eng := sim.NewEngine(1)
	topo := BuildTopology(eng, UrbanBroadband, 1)
	if !topo.LastMile.Dedicated {
		t.Fatal("last mile must be per-subscriber")
	}
	for _, l := range topo.ToCloud.links[1:] {
		if l.Dedicated {
			t.Fatalf("shared link %s marked dedicated", l.Name)
		}
	}
}

func TestPathLatencyAndTransfer(t *testing.T) {
	rng := sim.NewRNG(1)
	a := NewLink("a", fixed(0.010), 100)
	b := NewLink("b", fixed(0.020), 10)
	p := NewPath("p", a, b)
	if got := p.Latency(rng); math.Abs(got-0.030) > 1e-12 {
		t.Fatalf("Latency = %v, want 0.030", got)
	}
	if got := p.BottleneckMbps(); got != 10 {
		t.Fatalf("Bottleneck = %v, want 10", got)
	}
	// 1 MB over 10 Mbps = 0.8 s + 2*30ms latency.
	got := p.TransferTime(rng, 1e6)
	want := 0.06 + 8e6/10e6
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
	// Zero payload is pure round-trip latency.
	if got := p.TransferTime(rng, 0); math.Abs(got-0.06) > 1e-12 {
		t.Fatalf("empty TransferTime = %v", got)
	}
}

func TestPathBeginTransferTouchesAllLinks(t *testing.T) {
	a := NewLink("a", fixed(0.01), 100)
	b := NewLink("b", fixed(0.01), 100)
	p := NewPath("p", a, b)
	p.Begin()
	if a.transfers != 1 || b.transfers != 1 {
		t.Fatal("Begin missed a link")
	}
	p.End()
	if a.transfers != 0 || b.transfers != 0 {
		t.Fatal("End missed a link")
	}
}

func TestPathUpReflectsLinkFailures(t *testing.T) {
	eng := sim.NewEngine(3)
	l := NewLink("flaky", fixed(0.01), 10)
	f := NewFailureProcess(eng, eng.Stream("f"), 60, 30)
	l.AttachFailure(f)
	p := NewPath("p", l)
	downSeen := false
	f.OnChange(func(up bool) {
		if !up {
			downSeen = true
			if p.Up() {
				t.Error("path up while link down")
			}
		}
	})
	eng.Run(time.Hour)
	if !downSeen {
		t.Fatal("no failure observed in an hour with 60s MTBF")
	}
}

func TestFailureProcessAvailabilityMatchesAnalytic(t *testing.T) {
	eng := sim.NewEngine(11)
	f := NewFailureProcess(eng, eng.Stream("f"), 3600, 400)
	eng.Run(5000 * time.Hour)
	got := f.Availability().Ratio()
	want := 3600.0 / (3600 + 400)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("availability = %v, want ~%v", got, want)
	}
}

func TestFailureProcessPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	for name, fn := range map[string]func(){
		"nil engine": func() { NewFailureProcess(nil, sim.NewRNG(1), 10, 10) },
		"nil rng":    func() { NewFailureProcess(eng, nil, 10, 10) },
		"zero mtbf":  func() { NewFailureProcess(eng, sim.NewRNG(1), 0, 10) },
		"zero mttr":  func() { NewFailureProcess(eng, sim.NewRNG(1), 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBuildTopologyLANvsWAN(t *testing.T) {
	eng := sim.NewEngine(17)
	rng := eng.Stream("probe")

	lan := BuildTopology(eng, CampusLAN, 17)
	wan := BuildTopology(eng, RuralDSL, 17)

	// LAN to campus must be much faster than rural to cloud.
	lanLat := avgLatency(lan.ToCampus, rng, 200)
	cloudLat := avgLatency(wan.ToCloud, rng, 200)
	if lanLat >= cloudLat {
		t.Fatalf("LAN latency %v >= rural cloud latency %v", lanLat, cloudLat)
	}
	if lanLat > 0.005 {
		t.Fatalf("LAN campus latency %v too high", lanLat)
	}
	if cloudLat < 0.05 {
		t.Fatalf("rural cloud latency %v suspiciously low", cloudLat)
	}

	// Rural last mile has a failure process; campus LAN does not.
	if wan.LastMile.Failure() == nil {
		t.Fatal("rural last mile must have a failure process")
	}
	if lan.LastMile.Failure() != nil {
		t.Fatal("campus LAN must not have a failure process")
	}

	// Off-campus users reach campus through the backbone: 3 links.
	if got := len(wan.ToCampus.links); got != 3 {
		t.Fatalf("rural ToCampus links = %d, want 3", got)
	}
	if got := len(lan.ToCampus.links); got != 2 {
		t.Fatalf("lan ToCampus links = %d, want 2", got)
	}
}

func avgLatency(p *Path, rng *sim.RNG, n int) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += p.Latency(rng)
	}
	return sum / float64(n)
}

func TestAccessProfilesDistinct(t *testing.T) {
	if CampusLAN.Mbps <= RuralDSL.Mbps {
		t.Fatal("LAN must outrun rural DSL")
	}
	if UrbanBroadband.MTBF <= RuralDSL.MTBF {
		t.Fatal("urban connections must fail less often than rural")
	}
}

func TestPathEndWithoutBeginPanics(t *testing.T) {
	p := NewPath("p", NewLink("a", fixed(0.01), 100))
	defer func() {
		if recover() == nil {
			t.Fatal("End without Begin did not panic")
		}
	}()
	p.End()
}
