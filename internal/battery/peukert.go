package battery

import "math"

// Peukert is the classical empirical discharge model: at draw rate P the
// charge depletes as if the rate were P·(P/Pref)^(k−1), with Peukert
// exponent k > 1 — sustained high-rate discharge wastes disproportionate
// charge, more aggressively than Linear's quadratic penalty, and with the
// textbook functional form. There is no recovery effect; compare KiBaM.
type Peukert struct {
	capacity float64
	charge   float64
	// Exponent is the Peukert constant k (1 = ideal, lead-acid ≈ 1.3,
	// Li-ion ≈ 1.05).
	Exponent float64
	// RefPower is the rate at which the nominal capacity was specified.
	RefPower float64
}

// NewPeukert creates a Peukert-law battery. exponent must be >= 1 and
// refPower positive.
func NewPeukert(capacityJ, initialSoC, exponent, refPower float64) *Peukert {
	if capacityJ <= 0 || initialSoC < 0 || initialSoC > 1 {
		panic("battery: bad Peukert capacity or SoC")
	}
	if exponent < 1 || refPower <= 0 {
		panic("battery: Peukert exponent must be >= 1 and refPower > 0")
	}
	return &Peukert{
		capacity: capacityJ,
		charge:   capacityJ * initialSoC,
		Exponent: exponent,
		RefPower: refPower,
	}
}

// Wells implements Model.
func (b *Peukert) Wells() Wells { return Wells{Available: b.charge} }

// SetWells implements Model.
func (b *Peukert) SetWells(w Wells) { b.charge = w.Available }

// Drain implements Model.
func (b *Peukert) Drain(w Wells, power, secs float64) Wells {
	if power > 0 {
		eff := power * math.Pow(power/b.RefPower, b.Exponent-1)
		w.Available -= eff * secs
		if w.Available < 0 {
			w.Available = 0
		}
	}
	return w
}

// SoCOf implements Model.
func (b *Peukert) SoCOf(available float64) float64 { return available / b.capacity }

// CapacityJ implements Model.
func (b *Peukert) CapacityJ() float64 { return b.capacity }
