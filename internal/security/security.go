package security

import (
	"fmt"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/lms"
	"elearncloud/internal/sim"
)

// IncidentKind classifies a security event.
type IncidentKind int

// Incident kinds.
const (
	// Breach is a successful unauthorized remote access.
	Breach IncidentKind = iota + 1
	// DataLoss is destruction of locally stored data by physical damage.
	DataLoss
)

// String returns the kind name.
func (k IncidentKind) String() string {
	switch k {
	case Breach:
		return "breach"
	case DataLoss:
		return "data-loss"
	default:
		return fmt.Sprintf("IncidentKind(%d)", int(k))
	}
}

// Incident is one realized security event.
type Incident struct {
	// At is when the incident occurred.
	At time.Duration
	// Kind is what happened.
	Kind IncidentKind
	// Location is which side was hit.
	Location lms.Location
	// SensitiveAssets is how many sensitive assets were exposed or
	// destroyed.
	SensitiveAssets int
	// BytesLost is destroyed data (DataLoss only).
	BytesLost float64
}

// Config parameterizes the threat model.
type Config struct {
	// AttackRatePerMonth is the Poisson rate of serious remote attack
	// attempts against the institution's systems.
	AttackRatePerMonth float64
	// PublicBreachProb is an attack's success probability against
	// public-cloud-hosted assets (shared infrastructure: larger attack
	// surface, co-tenancy, credential sprawl).
	PublicBreachProb float64
	// PrivateBreachProb is the success probability against on-premise
	// assets reachable only through the campus perimeter.
	PrivateBreachProb float64
	// PhysicalMTBFYears is the mean time between physically destructive
	// events (fire, flood, theft, disk-array loss) for the on-premise
	// unit.
	PhysicalMTBFYears float64
	// DamageLossFraction is the fraction of locally stored bytes a
	// physical event destroys.
	DamageLossFraction float64
	// OffsiteBackup eliminates data loss (but not the incident itself).
	OffsiteBackup bool
}

// DefaultConfig returns the baseline threat environment used by the
// experiments.
func DefaultConfig() Config {
	return Config{
		AttackRatePerMonth: 30,
		PublicBreachProb:   0.020,
		PrivateBreachProb:  0.004,
		PhysicalMTBFYears:  15,
		DamageLossFraction: 0.3,
	}
}

// Validate rejects out-of-range parameters.
func (c Config) Validate() error {
	if c.AttackRatePerMonth < 0 {
		return fmt.Errorf("security: negative attack rate")
	}
	if c.PublicBreachProb < 0 || c.PublicBreachProb > 1 ||
		c.PrivateBreachProb < 0 || c.PrivateBreachProb > 1 {
		return fmt.Errorf("security: breach probabilities outside [0,1]")
	}
	if c.PhysicalMTBFYears < 0 || c.DamageLossFraction < 0 || c.DamageLossFraction > 1 {
		return fmt.Errorf("security: bad physical damage parameters")
	}
	return nil
}

// ConfigFor adapts the default threat environment to a deployment model.
// The desktop baseline keeps assets on lab PCs: the remote surface is
// small but local mishandling ("finding out digital assets", §III.6) is
// far more likely, and lab hardware is at least as fragile as a server
// room.
func ConfigFor(kind deploy.Kind) Config {
	c := DefaultConfig()
	if kind == deploy.Desktop {
		// Local storage on shared lab PCs: high local-theft probability
		// modeled as a "private" breach probability well above the
		// datacenter's, and more frequent physical loss (no RAID, no
		// controlled room).
		c.PrivateBreachProb = 0.05
		c.PhysicalMTBFYears = 5
	}
	return c
}

// ThreatModel drives attacks and physical damage against a deployment's
// asset placement on the simulation engine.
type ThreatModel struct {
	eng    *sim.Engine
	rng    *sim.RNG
	cfg    Config
	assets lms.Inventory

	incidents []Incident
	stops     []func()
}

// NewThreatModel validates cfg and builds a model over the assets.
func NewThreatModel(eng *sim.Engine, rng *sim.RNG, cfg Config, assets lms.Inventory) (*ThreatModel, error) {
	if eng == nil || rng == nil {
		return nil, fmt.Errorf("security: nil engine or rng")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ThreatModel{eng: eng, rng: rng, cfg: cfg, assets: assets}, nil
}

// Start schedules the attack and damage processes; the returned stop
// cancels future events.
func (m *ThreatModel) Start() (stop func()) {
	if m.cfg.AttackRatePerMonth > 0 {
		meanGap := secondsPerMonth / m.cfg.AttackRatePerMonth
		m.scheduleNext("security/attack", meanGap, m.attack)
	}
	if m.cfg.PhysicalMTBFYears > 0 {
		meanGap := m.cfg.PhysicalMTBFYears * 12 * secondsPerMonth
		m.scheduleNext("security/damage", meanGap, m.physicalDamage)
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		for _, s := range m.stops {
			s()
		}
	}
}

const secondsPerMonth = 730 * 3600

// scheduleNext arms a self-rescheduling exponential event stream.
func (m *ThreatModel) scheduleNext(name string, meanGapSec float64, fire func()) {
	var ev *sim.Event
	var arm func()
	canceled := false
	arm = func() {
		ev = m.eng.Schedule(sim.Seconds(m.rng.Exp(meanGapSec)), name, func() {
			if canceled {
				return
			}
			fire()
			arm()
		})
	}
	arm()
	m.stops = append(m.stops, func() {
		canceled = true
		m.eng.Cancel(ev)
	})
}

// attack resolves one remote attack attempt: each populated location is
// probed, succeeding with its location-specific probability.
func (m *ThreatModel) attack() {
	for _, loc := range []lms.Location{lms.OnPublic, lms.OnPrivate} {
		if m.assets.Count(loc) == 0 {
			continue
		}
		p := m.cfg.PrivateBreachProb
		if loc == lms.OnPublic {
			p = m.cfg.PublicBreachProb
		}
		if !m.rng.Bernoulli(p) {
			continue
		}
		m.incidents = append(m.incidents, Incident{
			At:              m.eng.Now(),
			Kind:            Breach,
			Location:        loc,
			SensitiveAssets: m.assets.SensitiveCount(loc),
		})
	}
}

// physicalDamage resolves one destructive event against on-premise
// storage.
func (m *ThreatModel) physicalDamage() {
	if m.assets.Count(lms.OnPrivate) == 0 {
		return
	}
	lost := 0.0
	sensitive := m.assets.SensitiveCount(lms.OnPrivate)
	if !m.cfg.OffsiteBackup {
		lost = m.assets.BytesAt(lms.OnPrivate) * m.cfg.DamageLossFraction
	} else {
		sensitive = 0 // backed up: nothing is gone
	}
	m.incidents = append(m.incidents, Incident{
		At:              m.eng.Now(),
		Kind:            DataLoss,
		Location:        lms.OnPrivate,
		SensitiveAssets: sensitive,
		BytesLost:       lost,
	})
}

// Breaches counts successful remote accesses.
func (m *ThreatModel) Breaches() int { return m.countKind(Breach) }

// DataLossEvents counts physical-damage incidents.
func (m *ThreatModel) DataLossEvents() int { return m.countKind(DataLoss) }

func (m *ThreatModel) countKind(k IncidentKind) int {
	n := 0
	for _, in := range m.incidents {
		if in.Kind == k {
			n++
		}
	}
	return n
}

// SensitiveExposures sums sensitive assets across breach incidents: the
// "digital assets (tests, exam questions, results)" exposure the paper
// highlights.
func (m *ThreatModel) SensitiveExposures() int {
	n := 0
	for _, in := range m.incidents {
		if in.Kind == Breach {
			n += in.SensitiveAssets
		}
	}
	return n
}

// BytesLost sums destroyed data.
func (m *ThreatModel) BytesLost() float64 {
	var sum float64
	for _, in := range m.incidents {
		sum += in.BytesLost
	}
	return sum
}

// AnnualSensitiveRisk returns the analytic expected number of
// sensitive-asset compromise events per year for an asset placement
// under this threat environment: remote breaches weighted by the share
// of sensitive assets at each location, plus unrecoverable physical loss
// of in-house sensitive data. It is the deterministic risk index the
// advisor's security scores are built from.
func (c Config) AnnualSensitiveRisk(assets lms.Inventory) float64 {
	attacksPerYear := c.AttackRatePerMonth * 12
	risk := attacksPerYear * (c.PublicBreachProb*assets.SensitiveShare(lms.OnPublic) +
		c.PrivateBreachProb*assets.SensitiveShare(lms.OnPrivate))
	if c.PhysicalMTBFYears > 0 && !c.OffsiteBackup {
		risk += (1 / c.PhysicalMTBFYears) * assets.SensitiveShare(lms.OnPrivate) * c.DamageLossFraction
	}
	return risk
}
