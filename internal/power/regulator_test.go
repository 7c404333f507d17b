package power

import (
	"math"
	"testing"
	"testing/quick"

	"godpm/internal/sim"
)

// efficiency is η = load/input at the given operating condition, zero at
// zero load (fixed losses with nothing delivered).
func efficiency(r *Regulator, loadW, vout float64) float64 {
	if loadW <= 0 {
		return 0
	}
	return loadW / r.InputPower(loadW, vout)
}

func TestRegulatorValidate(t *testing.T) {
	if err := DefaultRegulator().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Regulator{
		{FixedLossW: -1},
		{CondLossPerW: -0.1},
		{RatioPenalty: -0.1},
		{RatioPenalty: 0.1, VinNominal: 0},
		{RatioPenalty: 0.1, VinNominal: 3.6, SweetRatio: 1.0},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad regulator %d accepted", i)
		}
	}
}

func TestRegulatorInputAlwaysAboveLoad(t *testing.T) {
	r := DefaultRegulator()
	for _, p := range []float64{0, 0.01, 0.1, 0.5, 1, 5} {
		in := r.InputPower(p, 1.8)
		if in < p {
			t.Fatalf("input %v below load %v — free energy", in, p)
		}
	}
}

func TestRegulatorZeroLoadCostsFixedLoss(t *testing.T) {
	r := DefaultRegulator()
	if got := r.InputPower(0, 1.8); got != r.FixedLossW {
		t.Fatalf("zero-load input %v, want fixed loss %v", got, r.FixedLossW)
	}
	if efficiency(r, 0, 1.8) != 0 {
		t.Fatal("zero-load efficiency should be 0")
	}
}

func TestRegulatorEfficiencyPeak(t *testing.T) {
	r := DefaultRegulator()
	r.RatioPenalty = 0 // isolate the fixed/conduction trade-off
	// Without ratio derating the optimum of P/(P + F + kP²) is √(F/k).
	pPeak := math.Sqrt(r.FixedLossW / r.CondLossPerW)
	if pPeak <= 0 {
		t.Fatal("no peak load")
	}
	ePeak := efficiency(r, pPeak, 1.8)
	for _, p := range []float64{pPeak / 4, pPeak * 4} {
		if efficiency(r, p, 1.8) >= ePeak {
			t.Fatalf("efficiency at %v not below peak at %v", p, pPeak)
		}
	}
	if ePeak <= 0.5 || ePeak >= 1 {
		t.Fatalf("peak efficiency %v implausible", ePeak)
	}
}

func TestRegulatorRatioDerating(t *testing.T) {
	r := DefaultRegulator()
	// Sweet spot at 1.8 V out of 3.6 V; 0.9 V (the ON4 supply) is worse.
	atSweet := efficiency(r, 0.2, 1.8)
	atLow := efficiency(r, 0.2, 0.9)
	if atLow >= atSweet {
		t.Fatalf("low-ratio efficiency %v not below sweet-spot %v", atLow, atSweet)
	}
}

func TestRegulatorEnergyOverhead(t *testing.T) {
	r := &Regulator{FixedLossW: 0.01}
	// The converter loss over 2 s at a constant 1 W load: (P_in − P_load)·t.
	got := (r.InputPower(1.0, 1.8) - 1.0) * (2 * sim.Sec).Seconds()
	if math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("energy overhead = %v, want 0.02 J", got)
	}
}

func TestRegulatorNegativeLoadClamped(t *testing.T) {
	r := DefaultRegulator()
	if got := r.InputPower(-1, 1.8); got != r.FixedLossW {
		t.Fatalf("negative load input %v", got)
	}
}

// Property: efficiency is always in [0,1) and input power is monotone in
// load.
func TestRegulatorMonotoneProperty(t *testing.T) {
	r := DefaultRegulator()
	f := func(a, b uint16) bool {
		pa, pb := float64(a)/1000, float64(b)/1000
		if pa > pb {
			pa, pb = pb, pa
		}
		if r.InputPower(pb, 1.2) < r.InputPower(pa, 1.2) {
			return false
		}
		eff := efficiency(r, pb, 1.2)
		return eff >= 0 && eff < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
