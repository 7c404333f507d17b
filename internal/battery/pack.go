package battery

import (
	"math"

	"godpm/internal/sim"
)

// Pack is the simulation component wrapping a battery Model: it exposes the
// quantised status as a signal the LEM/GEM are sensitive to. The SoC's
// accountant drains the model and hands the pack each state it reaches
// through Refresh. A mains-powered pack reports Mains regardless of the
// model's charge.
type Pack struct {
	model Model
	th    Thresholds
	// bounds are the least available charges whose state of charge
	// reaches EmptyBelow, LowBelow, MediumBelow and HighBelow: a state
	// classifies by comparing its available charge against them, without
	// computing its state of charge.
	bounds [4]float64
	status *sim.Signal[Status]
	mains  bool
}

// NewPack creates a pack around model. The status signal is initialised to
// the model's current classification (or Mains).
func NewPack(k *sim.Kernel, name string, model Model, th Thresholds, mains bool) *Pack {
	if err := th.Validate(); err != nil {
		panic(err)
	}
	p := &Pack{model: model, th: th, mains: mains}
	for i, x := range [...]float64{th.EmptyBelow, th.LowBelow, th.MediumBelow, th.HighBelow} {
		p.bounds[i] = leastReaching(model, x)
	}
	init := p.classOf(model.Wells().Available)
	if mains {
		init = Mains
	}
	p.status = sim.NewSignal(k, name+".status", init)
	return p
}

// leastReaching returns the least non-negative available charge whose
// state of charge reaches x, for 0 < x <= 1. It bisects over float64 bit
// patterns, which order non-negative floats as numbers; SoCOf is
// non-decreasing in the available charge, so SoCOf(a) >= x exactly when
// a >= the result. +Inf reaches every such x, as SoCOf clamps to 1 or
// divides by a finite capacity.
func leastReaching(m Model, x float64) float64 {
	lo, hi := uint64(0), math.Float64bits(math.Inf(1)) // SoCOf(0) < x <= SoCOf(+Inf)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if m.SoCOf(math.Float64frombits(mid)) >= x {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// classOf returns the class of a state with the given available charge:
// exactly Thresholds.Classify(SoCOf(available)), without the division.
func (p *Pack) classOf(available float64) Status {
	switch {
	case available < p.bounds[0]:
		return Empty
	case available < p.bounds[1]:
		return Low
	case available < p.bounds[2]:
		return Medium
	case available < p.bounds[3]:
		return High
	default:
		return Full
	}
}

// ClassRange returns the available charges [lo, hi) that classify as s: a
// state with a finite Available is in class s exactly when
// lo <= Available < hi. A status that is not a battery class (Mains) gets
// an empty range.
func (p *Pack) ClassRange(s Status) (lo, hi float64) {
	if s < Empty || s > Full {
		return 0, 0
	}
	lo, hi = math.Inf(-1), math.Inf(1)
	if s > Empty {
		lo = p.bounds[s-1]
	}
	if s < Full {
		hi = p.bounds[s]
	}
	return lo, hi
}

// Refresh writes the status class of a state the model reached through
// Drain to the status signal. It must be called from a kernel process.
func (p *Pack) Refresh(w Wells) { p.status.Write(p.classOf(w.Available)) }

// Status returns the current quantised class.
func (p *Pack) Status() Status { return p.status.Read() }

// StatusSignal exposes the class signal for sensitivity and tracing.
func (p *Pack) StatusSignal() *sim.Signal[Status] { return p.status }

// SoC returns the model's usable state of charge (1.0 when on mains).
func (p *Pack) SoC() float64 {
	if p.mains {
		return 1
	}
	return p.model.SoCOf(p.model.Wells().Available)
}

// Mains reports whether the pack is mains-powered.
func (p *Pack) Mains() bool { return p.mains }

// Model returns the wrapped chemistry model (nil-safe for probing).
func (p *Pack) Model() Model { return p.model }

// PredictStatus estimates the class after drawing `power` watts for dt,
// without mutating the model — the LEM's "estimate the battery status at
// the end of the task" step. The estimate is first-order: it subtracts
// power·dt / CapacityJ() from the state of charge, ignoring recovery
// during the task. That is the exact drop only for a Linear pack; for
// the others it is optimistic, not conservative. A KiBaM's state of
// charge is relative to its available well, c·CapacityJ(), so the
// estimate understates the drop by a factor of 1/c (10× at c = 0.10,
// about 2.9× at c = 0.35), and a Peukert pack above its reference power
// draws more than power·dt.
func (p *Pack) PredictStatus(power float64, dt sim.Time) Status {
	if p.mains {
		return Mains
	}
	drop := power * dt.Seconds() / p.model.CapacityJ()
	soc := p.SoC() - drop
	if soc < 0 {
		soc = 0
	}
	return p.th.Classify(soc)
}
