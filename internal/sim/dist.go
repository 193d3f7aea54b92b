package sim

import (
	"fmt"
	"math"
)

// Dist is a one-dimensional probability distribution from which float64
// samples are drawn using a caller-supplied RNG. Distributions themselves
// are immutable and safe to share.
type Dist interface {
	// Sample draws one value.
	Sample(r *RNG) float64
	// Mean returns the distribution's expected value (for sizing and
	// validation; may be approximate for heavy-tailed distributions).
	Mean() float64
	// String describes the distribution for logs and reports.
	String() string
}

type lognormDist struct{ mu, sigma, mean float64 }

// LogNormal returns a log-normal distribution parameterized directly by
// its mean and the sigma of the underlying normal. This parameterization
// keeps service-demand configuration intuitive ("mean 80 ms, sigma 0.5").
func LogNormal(mean, sigma float64) Dist {
	if mean <= 0 || sigma < 0 {
		panic("sim: LogNormal with non-positive mean or negative sigma")
	}
	// mean = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2
	mu := math.Log(mean) - sigma*sigma/2
	return lognormDist{mu: mu, sigma: sigma, mean: mean}
}

func (d lognormDist) Sample(r *RNG) float64 { return r.LogNormal(d.mu, d.sigma) }
func (d lognormDist) Mean() float64         { return d.mean }
func (d lognormDist) String() string {
	return fmt.Sprintf("LogNormal(mean=%g,sigma=%g)", d.mean, d.sigma)
}

type paretoDist struct{ alpha, xm float64 }

// Pareto returns a Pareto distribution with shape alpha and scale xm.
// For alpha <= 1 the theoretical mean diverges; Mean reports xm*10 as a
// pragmatic sizing proxy in that regime.
func Pareto(alpha, xm float64) Dist {
	if alpha <= 0 || xm <= 0 {
		panic("sim: Pareto with non-positive parameter")
	}
	return paretoDist{alpha, xm}
}

func (d paretoDist) Sample(r *RNG) float64 { return r.Pareto(d.alpha, d.xm) }

func (d paretoDist) Mean() float64 {
	if d.alpha <= 1 {
		return d.xm * 10
	}
	return d.alpha * d.xm / (d.alpha - 1)
}

func (d paretoDist) String() string { return fmt.Sprintf("Pareto(alpha=%g,xm=%g)", d.alpha, d.xm) }
