// Package lem implements the Local Energy Manager: the per-IP controller
// that selects the ON state for each task from the Table 1 policy (with
// end-of-task battery/temperature prediction), and decides — via idle-time
// prediction compared against per-state break-even times — whether to put
// the idle IP into a sleep or off state.
package lem

import (
	"fmt"

	"godpm/internal/sim"
)

// Predictor estimates the duration of the idle period that is about to
// start. The LEM compares the prediction with each sleep state's break-even
// time. Observe feeds back the actual duration once the idle period ends.
type Predictor interface {
	// Predict returns the estimated upcoming idle duration. The hint is
	// the actual upcoming idle time when the caller knows it (traffic
	// generators do); honest predictors must ignore it.
	Predict(hint sim.Time) sim.Time
	// Observe records the actual duration of the idle period that just
	// ended.
	Observe(actual sim.Time)
}

// LastValue predicts that the next idle period lasts exactly as long as
// the previous one.
type LastValue struct {
	last sim.Time
	seen bool
}

// Predict implements Predictor.
func (p *LastValue) Predict(sim.Time) sim.Time {
	if !p.seen {
		return 0 // conservative before any observation
	}
	return p.last
}

// Observe implements Predictor.
func (p *LastValue) Observe(actual sim.Time) {
	p.last = actual
	p.seen = true
}

// EWMA predicts with an exponentially weighted moving average:
// pred ← α·actual + (1−α)·pred. This is the predictor the experiments use
// by default.
type EWMA struct {
	Alpha float64
	pred  float64
	seen  bool
}

// NewEWMA creates an EWMA predictor; alpha must lie in (0,1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("lem: EWMA alpha %v outside (0,1]", alpha))
	}
	return &EWMA{Alpha: alpha}
}

// Predict implements Predictor.
func (p *EWMA) Predict(sim.Time) sim.Time {
	if !p.seen {
		return 0
	}
	return sim.Time(p.pred)
}

// Observe implements Predictor.
func (p *EWMA) Observe(actual sim.Time) {
	if !p.seen {
		p.pred = float64(actual)
		p.seen = true
		return
	}
	p.pred = p.Alpha*float64(actual) + (1-p.Alpha)*p.pred
}

// Perfect is the oracle predictor: it returns the caller's hint verbatim.
// It bounds how much better any idle predictor could make the policy.
type Perfect struct{}

// Predict implements Predictor.
func (Perfect) Predict(hint sim.Time) sim.Time { return hint }

// Observe implements Predictor.
func (Perfect) Observe(sim.Time) {}
