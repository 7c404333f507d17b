package acpi

import (
	"fmt"

	"godpm/internal/power"
	"godpm/internal/sim"
)

// PSM is the Power State Machine attached to one IP block. It owns the
// authoritative power state, models the latency and energy of every state
// transition, and exposes the state (and a "transition in progress" flag)
// as signals the functional block and the LEM are sensitive to.
type PSM struct {
	k    *sim.Kernel
	name string
	prof *power.Profile

	state         *sim.Signal[State]
	transitioning *sim.Signal[bool]
	done          *sim.Event
	doneWait      []*sim.Event // {done}, handed out by StepTo
	fire          *sim.Event
	target        State

	// onEnergy, if set, is invoked for every quantum of transition energy;
	// the SoC wires it to the energy meter / battery / thermal models.
	onEnergy func(joules float64)
}

// NewPSM creates a PSM in the given initial state.
func NewPSM(k *sim.Kernel, name string, prof *power.Profile, initial State) *PSM {
	p := &PSM{
		k: k, name: name, prof: prof,
		state:         sim.NewSignal(k, name+".state", initial),
		transitioning: sim.NewSignal(k, name+".transitioning", false),
		done:          k.NewEvent(name + ".transition_done"),
		fire:          k.NewEvent(name + ".transition_fire"),
	}
	p.doneWait = []*sim.Event{p.done}
	k.Method(name+".psm", p.completeTransition).Sensitive(p.fire).DontInitialize()
	return p
}

// State returns the current stable state. During a transition it still
// reads the origin state; use Transitioning to distinguish.
func (p *PSM) State() State { return p.state.Read() }

// StateSignal exposes the state for sensitivity and tracing.
func (p *PSM) StateSignal() *sim.Signal[State] { return p.state }

// Transitioning exposes the transition-in-progress flag.
func (p *PSM) Transitioning() *sim.Signal[bool] { return p.transitioning }

// OnEnergy registers the sink for transition energy.
func (p *PSM) OnEnergy(fn func(joules float64)) { p.onEnergy = fn }

// TransitionCost returns the latency and energy of moving between two
// states, per the profile's characterisation:
//
//   - ON_i → ON_j: one voltage/frequency scaling step per level crossed;
//   - ON → sleep: the sleep state's enter cost;
//   - sleep → ON: the sleep state's wake cost;
//   - sleep → sleep (or soft-off): wake from the first plus enter of the
//     second (the hardware passes through an ON state).
func (p *PSM) TransitionCost(from, to State) (sim.Time, float64) {
	if from == to {
		return 0, 0
	}
	switch {
	case from.IsOn() && to.IsOn():
		steps := from.OnIndex() - to.OnIndex()
		if steps < 0 {
			steps = -steps
		}
		return p.prof.VScaleLatency * sim.Time(steps), p.prof.VScaleEnergy * float64(steps)
	case from.IsOn():
		s := p.prof.Sleep[to.SleepIndex()]
		return s.EnterLatency, s.EnterEnergy
	case to.IsOn():
		s := p.prof.Sleep[from.SleepIndex()]
		return s.WakeLatency, s.WakeEnergy
	default:
		a := p.prof.Sleep[from.SleepIndex()]
		b := p.prof.Sleep[to.SleepIndex()]
		return a.WakeLatency + b.EnterLatency, a.WakeEnergy + b.EnterEnergy
	}
}

// Request begins a transition to target. It returns the transition latency.
// Requesting the current state completes immediately (Done still fires, as
// a delta notification). Requesting while a transition is in progress is a
// protocol violation by the LEM and returns an error.
func (p *PSM) Request(target State) (sim.Time, error) {
	if int(target) < 0 || int(target) >= NumStates {
		return 0, fmt.Errorf("acpi: %s: invalid target state %d", p.name, int(target))
	}
	if p.transitioning.Read() {
		return 0, fmt.Errorf("acpi: %s: transition already in progress", p.name)
	}
	cur := p.state.Read()
	if target == cur {
		p.done.NotifyDelta()
		return 0, nil
	}
	lat, _ := p.TransitionCost(cur, target)
	p.target = target
	p.transitioning.Write(true)
	if lat == 0 {
		p.fire.NotifyDelta()
	} else {
		p.fire.Notify(lat)
	}
	return lat, nil
}

// StepTo is the managers' non-blocking transition step. It returns nil once
// the PSM rests in target; otherwise it returns the events to wait on (the
// transition-done event) before calling again: first while a transition
// already in flight drains, then while the one it requested completes.
// Done is delta-notified after the state and transitioning signals are
// written, so the call after each wake sees both settled.
func (p *PSM) StepTo(target State) []*sim.Event {
	if p.transitioning.Read() {
		return p.doneWait
	}
	if p.state.Read() == target {
		return nil
	}
	if _, err := p.Request(target); err != nil {
		panic(err)
	}
	return p.doneWait
}

// completeTransition lands in the target state and accounts the energy.
func (p *PSM) completeTransition() {
	cur := p.state.Read()
	_, energy := p.TransitionCost(cur, p.target)
	if p.onEnergy != nil && energy > 0 {
		p.onEnergy(energy)
	}
	p.state.Write(p.target)
	p.transitioning.Write(false)
	p.done.NotifyDelta()
}

// StatePower returns the residual power of the current state when idle: the
// profile's idle power for ON states, the sleep-state power otherwise.
func (p *PSM) StatePower() float64 {
	s := p.State()
	if s.IsOn() {
		return p.prof.IdlePower(p.prof.On[s.OnIndex()])
	}
	return p.prof.Sleep[s.SleepIndex()].Power
}

// Profile returns the power characterisation this PSM uses.
func (p *PSM) Profile() *power.Profile { return p.prof }
