package battery

import "godpm/internal/sim"

// Pack is the simulation component wrapping a battery Model: it exposes the
// quantised status as a signal the LEM/GEM are sensitive to. The SoC's
// accountant drains the model and hands the pack each state of charge it
// reaches through Refresh. A mains-powered pack reports Mains regardless of
// the model's charge.
type Pack struct {
	model  Model
	th     Thresholds
	status *sim.Signal[Status]
	mains  bool
}

// NewPack creates a pack around model. The status signal is initialised to
// the model's current classification (or Mains).
func NewPack(k *sim.Kernel, name string, model Model, th Thresholds, mains bool) *Pack {
	if err := th.Validate(); err != nil {
		panic(err)
	}
	init := th.Classify(model.SoC())
	if mains {
		init = Mains
	}
	return &Pack{
		model:  model,
		th:     th,
		status: sim.NewSignal(k, name+".status", init),
		mains:  mains,
	}
}

// Refresh writes the status class of a state of charge the model reached
// through Drain to the status signal. It must be called from a kernel
// process.
func (p *Pack) Refresh(soc float64) { p.status.Write(p.th.Classify(soc)) }

// Status returns the current quantised class.
func (p *Pack) Status() Status { return p.status.Read() }

// StatusSignal exposes the class signal for sensitivity and tracing.
func (p *Pack) StatusSignal() *sim.Signal[Status] { return p.status }

// SoC returns the model's usable state of charge (1.0 when on mains).
func (p *Pack) SoC() float64 {
	if p.mains {
		return 1
	}
	return p.model.SoC()
}

// Mains reports whether the pack is mains-powered.
func (p *Pack) Mains() bool { return p.mains }

// Model returns the wrapped chemistry model (nil-safe for probing).
func (p *Pack) Model() Model { return p.model }

// PredictStatus estimates the class after drawing `power` watts for dt,
// without mutating the model — the LEM's "estimate the battery status at
// the end of the task" step. The estimate is first-order: charge decreases
// by power·dt (recovery during the task is ignored, which is conservative).
func (p *Pack) PredictStatus(power float64, dt sim.Time) Status {
	if p.mains {
		return Mains
	}
	drop := power * dt.Seconds() / p.model.CapacityJ()
	soc := p.model.SoC() - drop
	if soc < 0 {
		soc = 0
	}
	return p.th.Classify(soc)
}
