package battery

import (
	"fmt"
	"testing"
	"testing/quick"

	"godpm/internal/sim"
)

// drain draws power watts from m for secs seconds the way the SoC's
// accountant does, through Drain and SetWells.
func drain(m Model, power, secs float64) {
	m.SetWells(m.Drain(m.Wells(), power, secs))
}

// socOf is m's usable state of charge.
func socOf(m Model) float64 { return m.SoCOf(m.Wells().Available) }

// totalCharge is m's remaining energy fraction, bound charge included.
func totalCharge(m Model) float64 {
	w := m.Wells()
	return (w.Available + w.Bound) / m.CapacityJ()
}

func TestThresholdClassification(t *testing.T) {
	th := DefaultThresholds()
	cases := []struct {
		soc  float64
		want Status
	}{
		{0.0, Empty}, {0.049, Empty}, {0.05, Low}, {0.29, Low},
		{0.30, Medium}, {0.59, Medium}, {0.60, High}, {0.84, High},
		{0.85, Full}, {1.0, Full},
	}
	for _, c := range cases {
		if got := th.Classify(c.soc); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.soc, got, c.want)
		}
	}
}

func TestThresholdsValidate(t *testing.T) {
	if err := DefaultThresholds().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Thresholds{EmptyBelow: 0.5, LowBelow: 0.3, MediumBelow: 0.6, HighBelow: 0.85}
	if err := bad.Validate(); err == nil {
		t.Fatal("non-monotonic thresholds accepted")
	}
}

func TestLinearDischarge(t *testing.T) {
	b := NewLinear(100, 1.0) // 100 J
	drain(b, 1.0, 10)        // 1 W for 10 s = 10 J
	if soc := socOf(b); soc < 0.899 || soc > 0.901 {
		t.Fatalf("SoC = %v, want 0.9", soc)
	}
	if totalCharge(b) != socOf(b) {
		t.Fatal("linear total charge should equal SoC")
	}
}

func TestLinearNeverNegative(t *testing.T) {
	b := NewLinear(10, 0.1)
	drain(b, 100, 10)
	if socOf(b) != 0 {
		t.Fatalf("SoC = %v, want clamped to 0", socOf(b))
	}
}

func TestLinearRateCapacityPenalty(t *testing.T) {
	// Same energy delivered at double the power must cost more charge when
	// RateK > 0.
	lo := NewLinear(1000, 1.0)
	hi := NewLinear(1000, 1.0)
	lo.RateK, lo.RefPower = 0.5, 1.0
	hi.RateK, hi.RefPower = 0.5, 1.0
	drain(lo, 1.0, 20) // 20 J at 1 W
	drain(hi, 2.0, 10) // 20 J at 2 W
	if socOf(hi) >= socOf(lo) {
		t.Fatalf("rate-capacity penalty missing: hi %v >= lo %v", socOf(hi), socOf(lo))
	}
}

func TestLinearNegativePowerIgnored(t *testing.T) {
	b := NewLinear(100, 0.5)
	drain(b, -5, 1)
	if socOf(b) != 0.5 {
		t.Fatalf("negative power changed charge: %v", socOf(b))
	}
}

func TestLinearBadParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLinear(0, 0.5)
}

func TestKiBaMDischargeAndBounds(t *testing.T) {
	b := NewKiBaM(100, 1.0, 0.4, 0.1)
	drain(b, 1.0, 10)
	if socOf(b) >= 1.0 {
		t.Fatal("KiBaM did not discharge")
	}
	if totalCharge(b) > 0.91 || totalCharge(b) < 0.89 {
		t.Fatalf("total charge = %v, want ~0.9 (10 J of 100 J drawn)", totalCharge(b))
	}
}

func TestKiBaMRateCapacityEffect(t *testing.T) {
	// Under heavy load the available well drains faster than the bound well
	// refills: usable SoC drops below total charge.
	b := NewKiBaM(100, 1.0, 0.3, 0.05)
	drain(b, 5.0, 4)
	if socOf(b) >= totalCharge(b) {
		t.Fatalf("SoC %v should lag total charge %v under load", socOf(b), totalCharge(b))
	}
}

func TestKiBaMRecoveryEffect(t *testing.T) {
	// After load is removed, the available well refills from the bound
	// well: SoC rises with zero draw. This drives scenario B/C.
	b := NewKiBaM(100, 1.0, 0.3, 0.05)
	drain(b, 5.0, 4)
	low := socOf(b)
	drain(b, 0, 60)
	if socOf(b) <= low {
		t.Fatalf("no recovery: SoC %v after rest, was %v", socOf(b), low)
	}
	// Total charge must not increase during rest (no free energy).
	if totalCharge(b) > 0.81 {
		t.Fatalf("total charge grew during rest: %v", totalCharge(b))
	}
}

func TestKiBaMConservationAtRest(t *testing.T) {
	b := NewKiBaM(100, 0.8, 0.4, 0.1)
	before := totalCharge(b)
	drain(b, 0, 100)
	after := totalCharge(b)
	if diff := before - after; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("rest changed total charge by %v", diff)
	}
}

func TestKiBaMBadParamsPanic(t *testing.T) {
	bad := [][4]float64{
		{0, 1, 0.4, 0.1},   // capacity
		{100, 2, 0.4, 0.1}, // soc
		{100, 1, 0, 0.1},   // c
		{100, 1, 1, 0.1},   // c
		{100, 1, 0.4, 0},   // k
	}
	for i, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewKiBaM(p[0], p[1], p[2], p[3])
		}()
	}
}

// Property: discharge is monotone — more energy drawn never leaves more
// charge, for both models.
func TestDischargeMonotoneProperty(t *testing.T) {
	f := func(p1, p2 uint8) bool {
		a, b := float64(p1%50)/10, float64(p2%50)/10
		if a > b {
			a, b = b, a
		}
		l1, l2 := NewLinear(1000, 1), NewLinear(1000, 1)
		drain(l1, a, 10)
		drain(l2, b, 10)
		if socOf(l2) > socOf(l1)+1e-12 {
			return false
		}
		k1 := NewKiBaM(1000, 1, 0.4, 0.1)
		k2 := NewKiBaM(1000, 1, 0.4, 0.1)
		drain(k1, a, 10)
		drain(k2, b, 10)
		return totalCharge(k2) <= totalCharge(k1)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPackStatusSignal(t *testing.T) {
	k := sim.NewKernel()
	p := NewPack(k, "bat", NewLinear(100, 0.95), DefaultThresholds(), false)
	if p.Status() != Full {
		t.Fatalf("initial status %v, want Full", p.Status())
	}
	var observed []Status
	p.StatusSignal().OnChange(func(_ sim.Time, s Status) { observed = append(observed, s) })
	e := k.NewEvent("tick")
	n := 0
	k.Method("drain", func() {
		drain(p.Model(), 10, 2) // 20 J per tick
		p.Refresh(p.Model().Wells())
		n++
		if n < 5 {
			e.Notify(sim.Ms)
		}
	}).Sensitive(e)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	// 95 J initial, 20 J per tick → Full, High(75), Medium(55), Low(35→15), Empty.
	if len(observed) < 3 {
		t.Fatalf("observed transitions %v, want several classes", observed)
	}
	last := observed[len(observed)-1]
	if last != Empty && last != Low {
		t.Fatalf("final class %v, want Low or Empty", last)
	}
}

func TestPackMains(t *testing.T) {
	k := sim.NewKernel()
	p := NewPack(k, "psu", NewLinear(100, 0.5), DefaultThresholds(), true)
	if p.Status() != Mains {
		t.Fatalf("status %v, want Mains", p.Status())
	}
	// The accountant never drains a mains pack; even a drained model
	// leaves its status and charge alone.
	drain(p.Model(), 1000, 1)
	if p.Status() != Mains || p.SoC() != 1 {
		t.Fatal("mains pack must ignore load")
	}
	if p.PredictStatus(1000, sim.Sec) != Mains {
		t.Fatal("mains prediction must be Mains")
	}
}

func TestPackPredictStatus(t *testing.T) {
	k := sim.NewKernel()
	p := NewPack(k, "bat", NewLinear(100, 0.35), DefaultThresholds(), false)
	if p.Status() != Medium {
		t.Fatalf("status %v, want Medium", p.Status())
	}
	// Drawing 10 W for 1 s = 10 J → SoC 0.25 → Low.
	if got := p.PredictStatus(10, sim.Sec); got != Low {
		t.Fatalf("PredictStatus = %v, want Low", got)
	}
	// Prediction must not mutate.
	if p.SoC() != 0.35 {
		t.Fatalf("prediction mutated SoC to %v", p.SoC())
	}
	// Over-draw clamps at Empty.
	if got := p.PredictStatus(1000, sim.Sec); got != Empty {
		t.Fatalf("PredictStatus overdraw = %v, want Empty", got)
	}
}

// refStatusString is String as first written with fmt; the table-driven
// String and its Append must render every value exactly like it.
func refStatusString(s Status) string {
	switch s {
	case Empty:
		return "Empty"
	case Low:
		return "Low"
	case Medium:
		return "Medium"
	case High:
		return "High"
	case Full:
		return "Full"
	case Mains:
		return "Mains"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

func TestStatusAppendMatchesString(t *testing.T) {
	for v := Status(-40); v <= 40; v++ {
		want := refStatusString(v)
		if got := v.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(v), got, want)
		}
		if got := string(v.Append([]byte("x="))); got != "x="+want {
			t.Errorf("Status(%d).Append = %q, want %q", int(v), got, "x="+want)
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = Status(1).Append(buf[:0]); _ = Status(2).String() }); n != 0 {
		t.Errorf("Append/String of an in-range value allocate %.0f times, want 0", n)
	}
}
