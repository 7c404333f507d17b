package battery

import (
	"math"

	"godpm/internal/sim"
)

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

// Step applies a constant power draw (watts) for dt of simulated time.
func (b *Peukert) Step(power float64, dt sim.Time) {
	w, _ := b.Drain(b.Wells(), power, dt.Seconds())
	b.SetWells(w)
}

// Wells implements Model.
func (b *Peukert) Wells() Wells { return Wells{Available: b.charge} }

// SetWells implements Model.
func (b *Peukert) SetWells(w Wells) { b.charge = w.Available }

// Drain implements Model.
func (b *Peukert) Drain(w Wells, power, secs float64) (Wells, float64) {
	if power > 0 {
		eff := power * math.Pow(power/b.RefPower, b.Exponent-1)
		w.Available -= eff * secs
		if w.Available < 0 {
			w.Available = 0
		}
	}
	return w, w.Available / b.capacity
}

// SoC implements Model.
func (b *Peukert) SoC() float64 { return b.charge / b.capacity }

// TotalCharge implements Model.
func (b *Peukert) TotalCharge() float64 { return b.SoC() }

// CapacityJ implements Model.
func (b *Peukert) CapacityJ() float64 { return b.capacity }

// Recharge sets the state of charge (an external charger).
func (b *Peukert) Recharge(soc float64) {
	if soc < 0 || soc > 1 {
		panic("battery: recharge SoC outside [0,1]")
	}
	b.charge = b.capacity * soc
}
