package battery

import (
	"math"
	"math/rand"
	"testing"
)

// refKiBaMDrain is KiBaM.Drain as the sub-step loop alone: a step within
// the stability bound runs the loop once. Step, and Drain's one-sub-step
// shortcut through it, must reproduce it bit for bit.
func refKiBaMDrain(b *KiBaM, w Wells, power, secs float64) Wells {
	if power < 0 {
		power = 0
	}
	for remaining := secs; remaining > 1e-15; {
		h := remaining
		if h > b.maxStep {
			h = b.maxStep
		}
		w = b.euler(w, power, h)
		remaining -= h
	}
	return w
}

// stepProbes returns the step lengths around the two bounds OneStep
// tests, both float64 neighbours of each, and n random steps up to three
// sub-steps long.
func stepProbes(r *rand.Rand, maxStep float64, n int) []float64 {
	secs := []float64{0, 1e-15, math.Nextafter(1e-15, 0), math.Nextafter(1e-15, 1),
		maxStep, math.Nextafter(maxStep, 0), math.Nextafter(maxStep, 1), maxStep / 2, 2 * maxStep, 1e-4}
	for i := 0; i < n; i++ {
		secs = append(secs, r.Float64()*3*maxStep)
	}
	return secs
}

func sameWells(a, b Wells) bool {
	return math.Float64bits(a.Available) == math.Float64bits(b.Available) &&
		math.Float64bits(a.Bound) == math.Float64bits(b.Bound)
}

// TestKiBaMStepMatchesDrain: OneStep accepts exactly the steps the
// sub-step loop takes in one sub-step, and for those Step and Drain equal
// the loop bit for bit — at random and empty wells, negative, zero and
// positive power, and steps at and around the bounds. The accountant's
// steady loop calls Step in place of Drain on that promise.
func TestKiBaMStepMatchesDrain(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		capJ := 1 + r.Float64()*5000
		b := NewKiBaM(capJ, r.Float64(), 0.05+0.9*r.Float64(), math.Pow(10, -4+8*r.Float64()))
		switch trial { // the shipped cells: the default battery, then scenario B/C's
		case 0:
			b = NewKiBaM(20, 0.95, 0.35, 0.08)
		case 1:
			b = NewKiBaM(20, 0.95, 0.10, 0.05)
		}
		wells := []Wells{{}, b.Wells(), {Available: r.Float64() * capJ}, {Bound: r.Float64() * capJ},
			{Available: r.Float64() * capJ, Bound: r.Float64() * capJ}}
		powers := []float64{-1, 0, math.Copysign(0, -1), r.Float64(), 100 * r.Float64()}
		for _, secs := range stepProbes(r, b.maxStep, 20) {
			one := secs > 1e-15 && secs <= b.maxStep
			if b.OneStep(secs) != one {
				t.Fatalf("maxStep %v: OneStep(%v) = %v, want %v", b.maxStep, secs, !one, one)
			}
			for _, w := range wells {
				for _, p := range powers {
					want := refKiBaMDrain(b, w, p, secs)
					if got := b.Drain(w, p, secs); !sameWells(got, want) {
						t.Fatalf("Drain(%+v, %v, %v) = %+v, want %+v", w, p, secs, got, want)
					}
					if !one {
						continue
					}
					if got := b.Step(w, p, secs); !sameWells(got, want) {
						t.Fatalf("Step(%+v, %v, %v) = %+v, want %+v", w, p, secs, got, want)
					}
				}
			}
		}
	}
}
