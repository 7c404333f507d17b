package battery

import (
	"math"
	"math/rand"
	"testing"

	"godpm/internal/sim"
)

// checkClassBounds asserts that p classifies every available charge in as
// exactly as the thresholds classify the state of charge it reads as, and
// that ClassRange brackets each finite charge's class.
func checkClassBounds(t *testing.T, p *Pack, as []float64) {
	t.Helper()
	for _, a := range as {
		want := p.th.Classify(p.model.SoCOf(a))
		if got := p.classOf(a); got != want {
			t.Fatalf("%T: class of available %v (SoC %v) = %v, want %v (bounds %v)",
				p.model, a, p.model.SoCOf(a), got, want, p.bounds)
		}
		if math.IsNaN(a) || math.IsInf(a, 0) {
			continue
		}
		for s := Empty; s <= Full; s++ {
			lo, hi := p.ClassRange(s)
			if in := lo <= a && a < hi; in != (want == s) {
				t.Fatalf("%T: available %v in ClassRange(%v) = [%v, %v) is %v, class %v",
					p.model, a, s, lo, hi, in, want)
			}
		}
	}
}

// boundProbes returns 0, the capacity, every bound with both float64
// neighbours, and n random charges up to 1.5 capacities.
func boundProbes(p *Pack, r *rand.Rand, n int) []float64 {
	capJ := p.model.CapacityJ()
	as := []float64{0, capJ, math.Nextafter(capJ, 0), math.Nextafter(capJ, math.Inf(1))}
	for _, b := range p.bounds {
		as = append(as, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
	}
	for i := 0; i < n; i++ {
		as = append(as, r.Float64()*1.5*capJ)
	}
	return as
}

// TestPackClassBoundsMatchClassify: the joule bounds classify exactly like
// Thresholds.Classify(SoCOf(a)) for all three chemistries, at the shipped
// thresholds and at random valid parameters and thresholds.
func TestPackClassBoundsMatchClassify(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	k := sim.NewKernel()
	models := func(capJ, soc, c, kPerSec float64) []Model {
		return []Model{
			NewLinear(capJ, soc),
			NewKiBaM(capJ, soc, c, kPerSec),
			NewPeukert(capJ, soc, 1.2, 1),
		}
	}
	// The shipped batteries: the Table 2 KiBaM (c = 0.10 and 0.35) and the
	// default thresholds.
	for _, c := range []float64{0.10, 0.35} {
		for _, m := range models(1000, 0.5, c, 0.05) {
			p := NewPack(k, "bat", m, DefaultThresholds(), false)
			checkClassBounds(t, p, boundProbes(p, r, 200))
		}
	}
	for i := 0; i < 300; i++ {
		capJ := math.Exp(r.Float64()*20 - 5) // ~7 mJ .. ~3 MJ
		soc := r.Float64()
		c := 0.01 + 0.98*r.Float64()
		kPerSec := 0.001 + r.Float64()
		var th Thresholds
		cuts := [4]float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		for a := range cuts {
			for b := a + 1; b < len(cuts); b++ {
				if cuts[b] < cuts[a] {
					cuts[a], cuts[b] = cuts[b], cuts[a]
				}
			}
		}
		th.EmptyBelow, th.LowBelow, th.MediumBelow, th.HighBelow = cuts[0], cuts[1], cuts[2], cuts[3]
		if th.Validate() != nil {
			th = DefaultThresholds()
		}
		for _, m := range models(capJ, soc, c, kPerSec) {
			p := NewPack(k, "bat", m, th, false)
			checkClassBounds(t, p, boundProbes(p, r, 20))
		}
	}
}

// FuzzPackClassBounds: for any valid capacity, KiBaM well fraction and rate,
// and initial state of charge, the pack's joule bounds classify an
// available charge exactly like Thresholds.Classify(SoCOf(available)).
func FuzzPackClassBounds(f *testing.F) {
	f.Add(1000.0, 0.10, 0.05, 0.5, 17.5)
	f.Add(1000.0, 0.35, 0.08, 1.0, 350.0)
	f.Add(1e-300, 0.5, 1.0, 0.0, 0.0)
	f.Add(1e300, 0.999, 1e-9, 0.25, 1e299)
	f.Fuzz(func(t *testing.T, capJ, c, kPerSec, soc, available float64) {
		valid := capJ > 0 && !math.IsInf(capJ, 1) && c > 0 && c < 1 &&
			kPerSec > 0 && !math.IsInf(kPerSec, 1) && soc >= 0 && soc <= 1
		if !valid {
			t.Skip()
		}
		k := sim.NewKernel()
		for _, m := range []Model{
			NewLinear(capJ, soc),
			NewKiBaM(capJ, soc, c, kPerSec),
			NewPeukert(capJ, soc, 1.2, 1),
		} {
			p := NewPack(k, "bat", m, DefaultThresholds(), false)
			checkClassBounds(t, p, []float64{available, math.Abs(available)})
		}
	})
}
