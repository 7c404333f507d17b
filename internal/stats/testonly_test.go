package stats

import (
	"fmt"
	"math"

	"godpm/internal/sim"
)

// Series is a time-weighted scalar series (e.g. die temperature): each Add
// declares the value holding from that time until the next Add. Statistics
// treat the value as piecewise constant.
type Series struct {
	times []sim.Time
	vals  []float64
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.times) }

// Name returns the meter name.
func (m *EnergyMeter) Name() string { return m.name }

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile is Snapshot().Quantile(p) — convenient for single readers; use
// a Snapshot when reading several quantiles, or when merging.
func (h *Histogram) Quantile(p float64) int64 { return h.Snapshot().Quantile(p) }

// Add appends a sample; times must be non-decreasing.
func (s *Series) Add(t sim.Time, v float64) {
	if n := len(s.times); n > 0 && t < s.times[n-1] {
		panic(fmt.Sprintf("stats: series times must be non-decreasing (%v after %v)", t, s.times[n-1]))
	}
	s.times = append(s.times, t)
	s.vals = append(s.vals, v)
}

// Max returns the maximum value (0 when empty).
func (s *Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.vals {
		if v > max {
			max = v
		}
	}
	if math.IsInf(max, -1) {
		return 0
	}
	return max
}

// MeanUntil returns the time-weighted mean over [first sample, end]. With
// fewer than one sample it returns 0.
func (s *Series) MeanUntil(end sim.Time) float64 {
	n := len(s.times)
	if n == 0 {
		return 0
	}
	if end < s.times[n-1] {
		end = s.times[n-1]
	}
	span := end - s.times[0]
	if span <= 0 {
		return s.vals[0]
	}
	var area float64
	for i := 0; i < n; i++ {
		var until sim.Time
		if i+1 < n {
			until = s.times[i+1]
		} else {
			until = end
		}
		area += s.vals[i] * (until - s.times[i]).Seconds()
	}
	return area / span.Seconds()
}

// Min returns the minimum value (0 when empty).
func (s *Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s.vals {
		if v < min {
			min = v
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// Advance integrates the held value over an arbitrary gap: the area
// lastV·(t − lastAt) is folded into the accumulator and the hold point
// moves to t, without recording a new sample. Statistics after
// Advance(t) are bit-identical to not having advanced at all (MeanUntil
// extends the hold with exactly the same term) — Advance exists so gap
// integrators can fold provably-constant stretches into the accumulator
// eagerly and so snapshots can close their copy's integral at a cut
// point. Note that Advance(t) is NOT equivalent to re-Adding the held
// value at intermediate points: splitting an interval changes the
// floating-point summation. It is a no-op with no samples or t <= lastAt.
func (w *TimeWeighted) Advance(t sim.Time) {
	if w.n == 0 || t <= w.lastAt {
		return
	}
	w.area += w.lastV * (t - w.lastAt).Seconds()
	w.lastAt = t
}

// Min returns the minimum sample seen (0 when empty).
func (w *TimeWeighted) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}
