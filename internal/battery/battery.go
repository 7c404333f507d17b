// Package battery models the SoC's energy source. The paper's GEM/LEM only
// observe a quantised battery status in five classes (Empty, Low, Medium,
// High, Full — plus mains power, which Table 1 lists as "Power supply"),
// but scenario B/C dynamics depend on the battery's behaviour under load:
// we provide a simple linear reservoir with a rate-capacity penalty and a
// kinetic battery model (KiBaM) whose charge-recovery effect lets the
// status class climb back when the load drops.
package battery

import (
	"fmt"
	"strconv"
)

// Status is the quantised battery class the energy managers observe.
type Status int

// Battery classes in increasing order of charge, plus Mains.
const (
	Empty Status = iota
	Low
	Medium
	High
	Full
	// Mains means the system runs from a power supply, not the battery
	// ("Power supply" row of the paper's Table 1).
	Mains
	NumStatuses = int(Mains) + 1
)

// statusNames are the paper's names, indexed by Status.
var statusNames = [NumStatuses]string{"Empty", "Low", "Medium", "High", "Full", "Mains"}

// String returns the paper's name for the class.
func (s Status) String() string {
	if s >= 0 && int(s) < NumStatuses {
		return statusNames[s]
	}
	var buf [32]byte
	return string(s.Append(buf[:0]))
}

// Append appends String's rendering of s to b; out-of-range values render
// as "Status(n)".
func (s Status) Append(b []byte) []byte {
	if s >= 0 && int(s) < NumStatuses {
		return append(b, statusNames[s]...)
	}
	b = strconv.AppendInt(append(b, "Status("...), int64(s), 10)
	return append(b, ')')
}

// Thresholds maps state of charge to a Status: soc < Empty→Empty etc.
type Thresholds struct {
	EmptyBelow  float64
	LowBelow    float64
	MediumBelow float64
	HighBelow   float64
}

// DefaultThresholds returns the classification used in the experiments.
func DefaultThresholds() Thresholds {
	return Thresholds{EmptyBelow: 0.05, LowBelow: 0.30, MediumBelow: 0.60, HighBelow: 0.85}
}

// Classify quantises a state of charge in [0,1].
func (th Thresholds) Classify(soc float64) Status {
	switch {
	case soc < th.EmptyBelow:
		return Empty
	case soc < th.LowBelow:
		return Low
	case soc < th.MediumBelow:
		return Medium
	case soc < th.HighBelow:
		return High
	default:
		return Full
	}
}

// Validate checks the thresholds are strictly increasing within (0,1).
func (th Thresholds) Validate() error {
	vals := []float64{0, th.EmptyBelow, th.LowBelow, th.MediumBelow, th.HighBelow, 1}
	for i := 0; i+1 < len(vals); i++ {
		if vals[i] >= vals[i+1] {
			return fmt.Errorf("battery: thresholds not strictly increasing: %v", th)
		}
	}
	return nil
}

// Wells is a battery model's charge state as a plain value, in joules: the
// KiBaM's available and bound wells, or a single-reservoir model's charge
// in Available (Bound stays zero).
type Wells struct{ Available, Bound float64 }

// Model is a battery chemistry: it integrates load through Drain and
// reads a state of charge off the available charge through SoCOf.
//
// SoCOf depends on the available charge alone and is non-decreasing in it.
// Pack relies on both: it classifies a state by comparing Available
// against the least available charge that reaches each threshold, which
// is exact only under that contract.
type Model interface {
	// Wells returns the model's charge state; SetWells stores one.
	Wells() Wells
	SetWells(Wells)
	// Drain returns the state w reaches under a constant draw of power
	// watts for secs seconds. It does not touch the model, so a caller can
	// step its own copy of the state across many samples and store it
	// back once.
	Drain(w Wells, power, secs float64) Wells
	// SoCOf returns the usable state of charge in [0,1] that a state with
	// the given available charge reads as — what the status encoder
	// observes.
	SoCOf(available float64) float64
	// CapacityJ returns the nominal capacity in joules.
	CapacityJ() float64
}

// Linear is an energy reservoir with an optional rate-capacity penalty:
// drawing power P costs P·(1 + RateK·P/RefPower) — high currents waste
// charge, a first-order stand-in for Peukert's law.
type Linear struct {
	capacity float64
	charge   float64
	RateK    float64
	RefPower float64
}

// NewLinear creates a linear battery with the given capacity (joules) and
// initial state of charge in [0,1].
func NewLinear(capacityJ, initialSoC float64) *Linear {
	if capacityJ <= 0 || initialSoC < 0 || initialSoC > 1 {
		panic("battery: bad linear battery parameters")
	}
	return &Linear{capacity: capacityJ, charge: capacityJ * initialSoC, RefPower: 1}
}

// Wells implements Model.
func (b *Linear) Wells() Wells { return Wells{Available: b.charge} }

// SetWells implements Model.
func (b *Linear) SetWells(w Wells) { b.charge = w.Available }

// Drain implements Model.
func (b *Linear) Drain(w Wells, power, secs float64) Wells {
	if power < 0 {
		power = 0
	}
	eff := power
	if b.RateK > 0 && b.RefPower > 0 {
		eff = power * (1 + b.RateK*power/b.RefPower)
	}
	w.Available -= eff * secs
	if w.Available < 0 {
		w.Available = 0
	}
	return w
}

// SoCOf implements Model.
func (b *Linear) SoCOf(available float64) float64 { return available / b.capacity }

// CapacityJ implements Model.
func (b *Linear) CapacityJ() float64 { return b.capacity }

// KiBaM is the kinetic battery model: charge is split between an available
// well (fraction C of capacity) that supplies the load directly and a bound
// well that refills the available well at a rate proportional to the head
// difference. Under sustained load the available well drains faster than
// the bound well refills it (rate-capacity effect); at rest charge flows
// back (recovery effect) — the mechanism that lets scenario B/C's battery
// class climb from Low back to Medium.
type KiBaM struct {
	capacity float64 // joules
	c        float64 // available-well fraction, 0 < c < 1
	kPerSec  float64 // valve rate constant (1/s)
	maxStep  float64 // Euler stability bound 1/(10k), precomputed
	// 1−c and c·capacity, precomputed for Drain and SoCOf: the same
	// operations on the same inputs, so the results are bit-identical.
	boundFrac, availCap float64
	available           float64 // joules in the available well
	bound               float64 // joules in the bound well
}

// NewKiBaM creates a kinetic battery. c is the available-charge fraction
// (typically 0.2–0.6); k the valve rate constant per second.
func NewKiBaM(capacityJ, initialSoC, c, kPerSec float64) *KiBaM {
	if capacityJ <= 0 || initialSoC < 0 || initialSoC > 1 || c <= 0 || c >= 1 || kPerSec <= 0 {
		panic("battery: bad KiBaM parameters")
	}
	total := capacityJ * initialSoC
	return &KiBaM{
		capacity:  capacityJ,
		c:         c,
		kPerSec:   kPerSec,
		maxStep:   1 / (10 * kPerSec),
		boundFrac: 1 - c,
		availCap:  c * capacityJ,
		available: total * c,
		bound:     total * (1 - c),
	}
}

// Wells implements Model.
func (b *KiBaM) Wells() Wells { return Wells{Available: b.available, Bound: b.bound} }

// SetWells implements Model.
func (b *KiBaM) SetWells(w Wells) { b.available, b.bound = w.Available, w.Bound }

// Drain implements Model: it integrates the two-well ODEs by explicit
// Euler, in sub-steps of at most 1/(10k) for stability. A step within that
// bound (every 100 µs accountant sample) is one sub-step.
func (b *KiBaM) Drain(w Wells, power, secs float64) Wells {
	if power < 0 {
		power = 0
	}
	if secs > 1e-15 && secs <= b.maxStep {
		return b.euler(w, power, secs)
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

// euler takes one explicit Euler step of h seconds at power watts.
func (b *KiBaM) euler(w Wells, power, h float64) Wells {
	h1 := w.Available / b.c
	h2 := w.Bound / b.boundFrac
	flow := b.kPerSec * (h2 - h1) // joules/sec from bound to available
	w.Available += (flow - power) * h
	w.Bound -= flow * h
	if w.Available < 0 {
		w.Available = 0
	}
	if w.Bound < 0 {
		w.Bound = 0
	}
	return w
}

// SoCOf implements Model: the usable state of charge is the available well
// relative to its share of capacity.
func (b *KiBaM) SoCOf(available float64) float64 {
	soc := available / b.availCap
	if soc > 1 {
		return 1
	}
	return soc
}

// CapacityJ implements Model.
func (b *KiBaM) CapacityJ() float64 { return b.capacity }
