package lem

import (
	"fmt"
	"sort"

	"godpm/internal/sim"
)

// Adaptive implements the paper's remark that the LEM's "parameters can be
// adapted to the single IP": it runs a fast and a slow EWMA side by side,
// tracks each one's exponentially decayed absolute prediction error, and
// predicts with whichever has recently been more accurate. Bursty idle
// patterns favour the fast filter, stationary ones the slow filter.
type Adaptive struct {
	fast, slow         *EWMA
	errFast, errSlow   float64
	decay              float64
	lastFast, lastSlow sim.Time
	seen               bool
}

// NewAdaptive creates an adaptive predictor from a fast and a slow
// smoothing factor (fastAlpha > slowAlpha) and an error-decay factor in
// (0,1].
func NewAdaptive(fastAlpha, slowAlpha, decay float64) *Adaptive {
	if fastAlpha <= slowAlpha {
		panic(fmt.Sprintf("lem: adaptive fastAlpha %v must exceed slowAlpha %v", fastAlpha, slowAlpha))
	}
	if decay <= 0 || decay > 1 {
		panic(fmt.Sprintf("lem: adaptive decay %v outside (0,1]", decay))
	}
	return &Adaptive{fast: NewEWMA(fastAlpha), slow: NewEWMA(slowAlpha), decay: decay}
}

// Predict implements Predictor.
func (p *Adaptive) Predict(sim.Time) sim.Time {
	if !p.seen {
		return 0
	}
	if p.errFast <= p.errSlow {
		return p.fast.Predict(0)
	}
	return p.slow.Predict(0)
}

// Observe implements Predictor: it scores both filters against the actual
// value before updating them.
func (p *Adaptive) Observe(actual sim.Time) {
	if p.seen {
		p.errFast = p.decay*absTime(p.lastFast-actual) + (1-p.decay)*p.errFast
		p.errSlow = p.decay*absTime(p.lastSlow-actual) + (1-p.decay)*p.errSlow
	}
	p.fast.Observe(actual)
	p.slow.Observe(actual)
	p.lastFast = p.fast.Predict(0)
	p.lastSlow = p.slow.Predict(0)
	p.seen = true
}

func absTime(t sim.Time) float64 {
	if t < 0 {
		t = -t
	}
	return float64(t)
}

// WindowQuantile predicts a low quantile of the last N observed idle
// durations. Predicting e.g. the 25th percentile is deliberately
// conservative: it under-promises idle time, so break-even gating only
// picks deep sleep states when even a pessimistic view of history supports
// them — a common safeguard against heavy-tailed idle distributions.
type WindowQuantile struct {
	Window   int
	Quantile float64
	hist     []sim.Time
	next     int
}

// NewWindowQuantile creates a sliding-window quantile predictor.
func NewWindowQuantile(window int, quantile float64) *WindowQuantile {
	if window < 1 {
		panic("lem: window must be >= 1")
	}
	if quantile < 0 || quantile > 1 {
		panic("lem: quantile outside [0,1]")
	}
	return &WindowQuantile{Window: window, Quantile: quantile, hist: make([]sim.Time, 0, window)}
}

// Predict implements Predictor.
func (p *WindowQuantile) Predict(sim.Time) sim.Time {
	n := len(p.hist)
	if n == 0 {
		return 0
	}
	sorted := make([]sim.Time, n)
	copy(sorted, p.hist)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p.Quantile * float64(n-1))
	return sorted[idx]
}

// Observe implements Predictor.
func (p *WindowQuantile) Observe(actual sim.Time) {
	if len(p.hist) < p.Window {
		p.hist = append(p.hist, actual)
		return
	}
	p.hist[p.next] = actual
	p.next = (p.next + 1) % p.Window
}
