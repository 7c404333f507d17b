package stats

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram's bucket layout is HDR-style log-linear: values below
// subCount land in exact unit-width buckets; above that, every power-of-two
// range is split into subCount linear sub-buckets. The widest bucket a
// value v can land in is therefore v/subCount wide, which bounds the
// relative quantile value error at 1/subCount (HistRelError) — independent
// of the distribution, with fixed memory, forever.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits // 32 → ≤ 3.125% relative error
	// histBuckets covers non-negative int64s up to histMaxValue:
	// subCount exact buckets + subCount per power-of-two range above.
	histBuckets  = histSubCount + (63-histSubBits)*histSubCount
	histMaxValue = int64(1)<<62 - 1
)

// HistRelError is the histogram's worst-case relative value error for any
// quantile: Quantile(p) is never below the true p-quantile and never more
// than a factor (1+HistRelError) above it (plus one unit, for the exact
// low range).
const HistRelError = 1.0 / histSubCount

// Histogram is a fixed-memory, log-bucketed latency/size sketch safe for
// concurrent use: Record is one atomic add on a bucket counter (plus a max
// CAS), so hot serving paths can record every request. Values are
// non-negative int64s in the caller's unit (the serving layer records
// microseconds; RecordDuration does that conversion). The zero value is
// ready to use.
//
// Read sides take a Snapshot — a mergeable value with Quantile and JSON
// encoding — so /statsz, dpmload and dpmtop all compute percentiles from
// the identical definition, and a fleet aggregator can Merge replica
// sketches exactly instead of averaging pre-computed percentiles.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// histIndex maps a value to its bucket. Exact for v < histSubCount;
// log-linear above.
func histIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	k := bits.Len64(uint64(v)) - 1 // k ≥ histSubBits
	// The leading 1+histSubBits bits: in [histSubCount, 2·histSubCount).
	sub := int(v>>(uint(k)-histSubBits)) - histSubCount
	return histSubCount + (k-histSubBits)*histSubCount + sub
}

// histUpper is the largest value mapping to bucket i — the value Quantile
// reports, so reported quantiles never understate the true one.
func histUpper(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	b := i - histSubCount
	k := histSubBits + b/histSubCount
	sub := int64(b%histSubCount) + histSubCount
	shift := uint(k) - histSubBits
	return (sub+1)<<shift - 1
}

// Record adds one observation. Negative values clamp to zero, values above
// the representable ceiling clamp to it (counted, never dropped).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if v > histMaxValue {
		v = histMaxValue
	}
	h.counts[histIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordDuration records d in microseconds — the unit every latency
// histogram in the repo shares (LatencySummary converts to milliseconds
// for display).
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(d.Microseconds()) }

// Snapshot captures the current state as a mergeable value. Concurrent
// Records may straddle the capture (the snapshot is not a single atomic
// cut), so Count is re-derived from the bucket sum for internal
// consistency.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Sum: h.sum.Load(), Max: h.max.Load()}
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			s.Bucket = append(s.Bucket, int32(i))
			s.N = append(s.N, c)
			s.Count += c
		}
	}
	return s
}

// HistSnapshot is a point-in-time histogram: sparse parallel arrays of
// occupied bucket indices and their counts, plus the exact observation
// count, sum and max. It is the JSON wire form /statsz exposes and the
// merge unit dpmtop aggregates replicas with.
type HistSnapshot struct {
	Bucket []int32 `json:"b,omitempty"`
	N      []int64 `json:"n,omitempty"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Max    int64   `json:"max"`
}

// Validate checks the sparse arrays are well-formed: aligned, strictly
// ascending in-range buckets, positive counts summing to Count. Merge and
// the JSON decoder use it so a corrupt peer snapshot cannot poison an
// aggregation.
func (s HistSnapshot) Validate() error {
	if len(s.Bucket) != len(s.N) {
		return fmt.Errorf("stats: histogram snapshot arrays misaligned (%d buckets, %d counts)", len(s.Bucket), len(s.N))
	}
	var total int64
	prev := int32(-1)
	for i, b := range s.Bucket {
		if b <= prev || int(b) >= histBuckets {
			return fmt.Errorf("stats: histogram snapshot bucket %d out of order or range", b)
		}
		if s.N[i] <= 0 {
			return fmt.Errorf("stats: histogram snapshot bucket %d has non-positive count", b)
		}
		total += s.N[i]
		prev = b
	}
	if total != s.Count {
		return fmt.Errorf("stats: histogram snapshot counts sum to %d, header says %d", total, s.Count)
	}
	return nil
}

// Quantile returns the value at quantile p (0 ≤ p ≤ 1) by the rank
// definition "smallest recorded bucket upper bound whose cumulative count
// reaches ⌈p·Count⌉". The result is never below the true sample quantile
// and never above it by more than a factor 1+HistRelError (plus one unit);
// p=1 returns the exact recorded max. An empty snapshot returns 0.
func (s HistSnapshot) Quantile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := int64(p * float64(s.Count))
	if float64(rank) < p*float64(s.Count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, b := range s.Bucket {
		cum += s.N[i]
		if cum >= rank {
			v := histUpper(int(b))
			// The top occupied bucket's upper bound can overshoot the
			// exact recorded max; clamp so p→1 converges to it.
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// UpperBound returns the largest value mapping to the snapshot's i-th
// occupied bucket — the bar edges a renderer (dpmtop) draws. Out-of-range
// i returns 0.
func (s HistSnapshot) UpperBound(i int) int64 {
	if i < 0 || i >= len(s.Bucket) {
		return 0
	}
	return histUpper(int(s.Bucket[i]))
}

// Mean returns the exact arithmetic mean of the recorded values (0 when
// empty) — exact because Sum is tracked outside the buckets.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Merge folds other into s and returns the result (inputs are not
// mutated). Merging is exact — bucket counts add — so it is associative
// and commutative: any fleet aggregation order yields the same sketch. An
// invalid operand is an error; s is returned unchanged alongside it.
func (s HistSnapshot) Merge(other HistSnapshot) (HistSnapshot, error) {
	if err := s.Validate(); err != nil {
		return s, err
	}
	if err := other.Validate(); err != nil {
		return s, err
	}
	out := HistSnapshot{
		Count: s.Count + other.Count,
		Sum:   s.Sum + other.Sum,
		Max:   s.Max,
	}
	if other.Max > out.Max {
		out.Max = other.Max
	}
	i, j := 0, 0
	for i < len(s.Bucket) || j < len(other.Bucket) {
		switch {
		case j >= len(other.Bucket) || (i < len(s.Bucket) && s.Bucket[i] < other.Bucket[j]):
			out.Bucket = append(out.Bucket, s.Bucket[i])
			out.N = append(out.N, s.N[i])
			i++
		case i >= len(s.Bucket) || other.Bucket[j] < s.Bucket[i]:
			out.Bucket = append(out.Bucket, other.Bucket[j])
			out.N = append(out.N, other.N[j])
			j++
		default:
			out.Bucket = append(out.Bucket, s.Bucket[i])
			out.N = append(out.N, s.N[i]+other.N[j])
			i++
			j++
		}
	}
	return out, nil
}

// LatencySummary is the headline-quantile shape shared by /statsz on both
// servers, the loadgen report and dpmtop: percentiles computed
// by HistSnapshot.Quantile over microsecond observations, reported in
// milliseconds.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summary computes the shared headline quantiles, treating recorded
// values as microseconds.
func (s HistSnapshot) Summary() LatencySummary {
	const usPerMs = 1000.0
	return LatencySummary{
		Count:  s.Count,
		MeanMs: s.Mean() / usPerMs,
		P50Ms:  float64(s.Quantile(0.50)) / usPerMs,
		P90Ms:  float64(s.Quantile(0.90)) / usPerMs,
		P99Ms:  float64(s.Quantile(0.99)) / usPerMs,
		MaxMs:  float64(s.Max) / usPerMs,
	}
}

// String renders "p50=1.2ms p90=3.4ms p99=5.6ms max=7.8ms (n=42)".
func (l LatencySummary) String() string {
	return fmt.Sprintf("p50=%.3gms p90=%.3gms p99=%.3gms max=%.3gms (n=%d)",
		l.P50Ms, l.P90Ms, l.P99Ms, l.MaxMs, l.Count)
}

// Latency is the per-endpoint latency shape in /statsz: the headline
// summary plus the mergeable sketch it was computed from, so aggregators
// merge replica sketches exactly instead of averaging percentiles (which
// is statistically meaningless).
type Latency struct {
	LatencySummary
	Hist HistSnapshot `json:"hist"`
}

// LatencyOf pairs a snapshot with its summary.
func LatencyOf(s HistSnapshot) Latency {
	return Latency{LatencySummary: s.Summary(), Hist: s}
}
