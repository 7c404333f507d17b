package battery

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPeukertIdealMatchesLinear(t *testing.T) {
	// Exponent 1 must behave exactly like an ideal reservoir.
	p := NewPeukert(100, 1.0, 1.0, 1.0)
	l := NewLinear(100, 1.0)
	drain(p, 2.0, 10)
	drain(l, 2.0, 10)
	if math.Abs(socOf(p)-socOf(l)) > 1e-12 {
		t.Fatalf("Peukert(k=1) SoC %v != Linear %v", socOf(p), socOf(l))
	}
}

func TestPeukertHighRatePenalty(t *testing.T) {
	// Same energy at double the rate costs more charge when k > 1.
	lo := NewPeukert(1000, 1.0, 1.3, 1.0)
	hi := NewPeukert(1000, 1.0, 1.3, 1.0)
	drain(lo, 1.0, 20)
	drain(hi, 2.0, 10)
	if socOf(hi) >= socOf(lo) {
		t.Fatalf("no rate penalty: hi %v >= lo %v", socOf(hi), socOf(lo))
	}
}

func TestPeukertSubReferenceRateBonus(t *testing.T) {
	// Below the reference rate, the effective draw is below the actual
	// draw (the flip side of Peukert's law).
	b := NewPeukert(100, 1.0, 1.3, 1.0)
	drain(b, 0.25, 10) // 2.5 J at a quarter of the reference rate
	drawn := (1 - socOf(b)) * 100
	if drawn >= 2.5 {
		t.Fatalf("drawn %v J, want less than the nominal 2.5 J", drawn)
	}
}

func TestPeukertClampsAndIgnoresNegative(t *testing.T) {
	b := NewPeukert(1, 0.1, 1.2, 1.0)
	drain(b, -1, 1)
	if socOf(b) != 0.1 {
		t.Fatal("negative power changed charge")
	}
	drain(b, 100, 10)
	if socOf(b) != 0 {
		t.Fatalf("SoC %v, want clamped 0", socOf(b))
	}
}

func TestPeukertRecharge(t *testing.T) {
	b := NewPeukert(100, 0.2, 1.2, 1.0)
	b.SetWells(Wells{Available: 90}) // an external charger lifts it to 90%
	if socOf(b) != 0.9 {
		t.Fatalf("SoC %v after recharge", socOf(b))
	}
	if totalCharge(b) != 0.9 || b.CapacityJ() != 100 {
		t.Fatal("accessors wrong")
	}
}

func TestPeukertBadParamsPanic(t *testing.T) {
	bad := [][4]float64{
		{0, 1, 1.2, 1},     // capacity
		{100, 1.5, 1.2, 1}, // soc
		{100, 1, 0.9, 1},   // exponent < 1
		{100, 1, 1.2, 0},   // refPower
	}
	for i, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewPeukert(p[0], p[1], p[2], p[3])
		}()
	}
}

// Property: discharge is monotone in rate for any exponent >= 1.
func TestPeukertMonotoneProperty(t *testing.T) {
	f := func(a, b uint8, kRaw uint8) bool {
		k := 1 + float64(kRaw%50)/100 // 1.00..1.49
		pa, pb := float64(a%40)/10, float64(b%40)/10
		if pa > pb {
			pa, pb = pb, pa
		}
		m1 := NewPeukert(1000, 1, k, 1)
		m2 := NewPeukert(1000, 1, k, 1)
		drain(m1, pa, 10)
		drain(m2, pb, 10)
		return socOf(m2) <= socOf(m1)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
