package power

import "fmt"

// Regulator models the DC-DC converter between the battery and the
// voltage-scaled core — the supply path the paper's variable-voltage
// technique implies. A buck converter's efficiency falls both at light
// load (fixed switching losses dominate) and at heavy load (conduction
// losses grow with the square of the current); the battery must supply
// P_load / η(P_load).
//
// The model is the standard loss decomposition
//
//	P_in = P_load + P_fixed + k_cond·P_load²
//
// with η = P_load / P_in, plus an optional efficiency derating when the
// conversion ratio V_out/V_in departs from the converter's sweet spot.
type Regulator struct {
	// FixedLossW is the load-independent switching/control loss.
	FixedLossW float64
	// CondLossPerW scales the conduction loss: P_cond = CondLossPerW·P².
	CondLossPerW float64
	// RatioPenalty derates efficiency per unit of |Vout/Vin − SweetRatio|
	// (0 disables). Voltage scaling to low Vdd costs extra here: the
	// paper's ON4 supply sits far from the converter's optimum.
	RatioPenalty float64
	SweetRatio   float64
	// VinNominal is the battery-side voltage used for the ratio derating.
	VinNominal float64
}

// DefaultRegulator returns a converter characteristic typical of a small
// SoC buck regulator: 2 mW fixed loss, ~4%/W conduction slope, sweet spot
// at half the input voltage.
func DefaultRegulator() *Regulator {
	return &Regulator{
		FixedLossW:   2e-3,
		CondLossPerW: 0.04,
		RatioPenalty: 0.05,
		SweetRatio:   0.5,
		VinNominal:   3.6,
	}
}

// Validate checks the characteristic.
func (r *Regulator) Validate() error {
	if r.FixedLossW < 0 || r.CondLossPerW < 0 || r.RatioPenalty < 0 {
		return fmt.Errorf("power: regulator losses must be non-negative")
	}
	if r.RatioPenalty > 0 {
		if r.VinNominal <= 0 {
			return fmt.Errorf("power: regulator VinNominal must be positive with ratio derating")
		}
		if r.SweetRatio <= 0 || r.SweetRatio >= 1 {
			return fmt.Errorf("power: regulator SweetRatio %v outside (0,1)", r.SweetRatio)
		}
	}
	return nil
}

// InputPower returns the battery-side power for a given load power at the
// given output voltage. Zero load still costs the fixed loss.
func (r *Regulator) InputPower(loadW, vout float64) float64 {
	if loadW < 0 {
		loadW = 0
	}
	in := loadW + r.FixedLossW + r.CondLossPerW*loadW*loadW
	if r.RatioPenalty > 0 && loadW > 0 {
		ratio := vout / r.VinNominal
		dev := ratio - r.SweetRatio
		if dev < 0 {
			dev = -dev
		}
		// Derating shows up as extra loss proportional to the load.
		in += r.RatioPenalty * dev * loadW
	}
	return in
}
