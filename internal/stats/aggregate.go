package stats

import (
	"fmt"
	"math"

	"godpm/internal/sim"
)

// Summary describes a sample of replicate measurements: the aggregation
// unit of seed-replication studies and policy tournaments. StdDev is the
// sample (n−1) standard deviation; CI95 is the half-width of the 95%
// confidence interval of the mean, using the Student t quantile for small
// samples (so a 5-seed tournament gets honest error bars, not the normal
// approximation).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64
	Min    float64
	Max    float64
}

// String renders "mean ± ci95 (n=N)".
func (s Summary) String() string {
	if s.N == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.6g ± %.3g (n=%d)", s.Mean, s.CI95, s.N)
}

// t95 holds two-sided 95% Student t quantiles by degrees of freedom 1..30;
// above 30 the normal quantile 1.96 is used (within 2% of exact).
var t95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tQuantile95(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(t95) {
		return t95[df-1]
	}
	return 1.96
}

// Summarize aggregates the sample. With one observation the spread
// statistics are zero; with none, everything is.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)
	if n < 2 {
		return s
	}
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(n-1))
	s.CI95 = tQuantile95(n-1) * s.StdDev / math.Sqrt(float64(n))
	return s
}

// PairedPct summarizes the per-replicate percent changes
// (policy[i]−base[i])/base[i]·100 — the tournament's "energy vs baseline"
// column. Every baseline observation must be nonzero.
func PairedPct(policy, base []float64) (Summary, error) {
	if len(policy) != len(base) {
		return Summary{}, fmt.Errorf("stats: paired samples differ in length (%d vs %d)", len(policy), len(base))
	}
	if len(policy) == 0 {
		return Summary{}, fmt.Errorf("stats: empty paired sample")
	}
	ds := make([]float64, len(policy))
	for i := range policy {
		if base[i] == 0 {
			return Summary{}, fmt.Errorf("stats: zero baseline in pair %d", i)
		}
		ds[i] = 100 * (policy[i] - base[i]) / base[i]
	}
	return Summarize(ds), nil
}

// MissedDeadlines counts ledger tasks whose service time (request to
// completion) exceeds the deadline. A non-positive deadline disables the
// check and reports zero.
func MissedDeadlines(l *Ledger, deadline sim.Time) int {
	if l == nil || deadline <= 0 {
		return 0
	}
	var n int
	for _, r := range l.records {
		if r.Service() > deadline {
			n++
		}
	}
	return n
}
