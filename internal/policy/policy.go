// Package policy provides the baseline energy managers the paper's DPM
// architecture is compared against (and a few classics for ablations):
//
//   - AlwaysOn — the Table 2 reference: run every task at maximum speed,
//     never sleep;
//   - FixedTimeout — classic timeout DPM: after a fixed inactivity period,
//     drop into a fixed sleep state;
//   - Greedy — sleep immediately on idleness, always into the same state;
//   - Oracle — like the LEM's sleep selection but with a perfect idle-time
//     prediction (upper bound for predictor quality).
//
// All satisfy ip.Manager: each call is a non-blocking step that returns
// the events to wait on while a PSM transition is in flight, nil once done.
package policy

import (
	"fmt"

	"godpm/internal/acpi"
	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/task"
)

// AlwaysOn runs everything at ON1 and never sleeps. Table 2's percentages
// are computed against this manager.
type AlwaysOn struct {
	psm *acpi.PSM
}

// NewAlwaysOn creates the baseline manager for psm.
func NewAlwaysOn(psm *acpi.PSM) *AlwaysOn { return &AlwaysOn{psm: psm} }

// AcquireOn implements ip.Manager.
func (m *AlwaysOn) AcquireOn(task.Task) (power.OperatingPoint, []*sim.Event) {
	return acquireON1(m.psm)
}

// ReleaseIdle implements ip.Manager (the baseline stays clocked).
func (m *AlwaysOn) ReleaseIdle(sim.Time) []*sim.Event { return nil }

// acquireON1 is the full-speed acquisition every baseline shares: step the
// PSM to ON1 and run there.
func acquireON1(psm *acpi.PSM) (power.OperatingPoint, []*sim.Event) {
	if w := psm.StepTo(acpi.ON1); w != nil {
		return power.OperatingPoint{}, w
	}
	return psm.Profile().On[0], nil
}

// FixedTimeout is the classic timeout policy: when the IP has been idle for
// Timeout, the PSM drops into SleepState. Tasks always execute at ON1.
type FixedTimeout struct {
	k          *sim.Kernel
	psm        *acpi.PSM
	Timeout    sim.Time
	SleepState acpi.State

	idle    bool
	idleGen int
	timerEv *sim.Event
}

// NewFixedTimeout creates a timeout manager (classic DPM reference).
func NewFixedTimeout(k *sim.Kernel, psm *acpi.PSM, timeout sim.Time, sleepState acpi.State) *FixedTimeout {
	if timeout <= 0 {
		panic("policy: timeout must be positive")
	}
	if sleepState.IsOn() {
		panic("policy: timeout sleep state must not be an ON state")
	}
	m := &FixedTimeout{k: k, psm: psm, Timeout: timeout, SleepState: sleepState,
		timerEv: k.NewEvent("timeout.timer")}
	k.Method("timeout.policy", m.onTimer).Sensitive(m.timerEv).DontInitialize()
	return m
}

// onTimer fires when the inactivity timer expires; if the IP is still idle
// and the PSM is stable in an ON state, start the sleep transition.
func (m *FixedTimeout) onTimer() {
	if m.idle && !m.psm.Transitioning().Read() && m.psm.State().IsOn() {
		if _, err := m.psm.Request(m.SleepState); err != nil {
			panic(fmt.Sprintf("policy: timeout: %v", err))
		}
	}
}

// AcquireOn implements ip.Manager. It disarms the inactivity timer; both
// writes are idempotent, so the resumed calls of one acquisition repeat
// them harmlessly.
func (m *FixedTimeout) AcquireOn(task.Task) (power.OperatingPoint, []*sim.Event) {
	m.idle = false
	m.timerEv.Cancel()
	return acquireON1(m.psm)
}

// ReleaseIdle implements ip.Manager: it arms the inactivity timer.
func (m *FixedTimeout) ReleaseIdle(sim.Time) []*sim.Event {
	m.idle = true
	m.timerEv.Notify(m.Timeout)
	return nil
}

// Greedy sleeps immediately whenever the IP goes idle, always into
// SleepState; tasks execute at ON1.
type Greedy struct {
	psm        *acpi.PSM
	SleepState acpi.State
}

// NewGreedy creates a greedy manager.
func NewGreedy(psm *acpi.PSM, sleepState acpi.State) *Greedy {
	if sleepState.IsOn() {
		panic("policy: greedy sleep state must not be an ON state")
	}
	return &Greedy{psm: psm, SleepState: sleepState}
}

// AcquireOn implements ip.Manager.
func (m *Greedy) AcquireOn(task.Task) (power.OperatingPoint, []*sim.Event) {
	return acquireON1(m.psm)
}

// ReleaseIdle implements ip.Manager.
func (m *Greedy) ReleaseIdle(sim.Time) []*sim.Event {
	return m.psm.StepTo(m.SleepState)
}

// Oracle executes at ON1 and, on idleness, picks the deepest sleep state
// whose break-even time fits the *actual* upcoming idle duration (it trusts
// the hint). It is the upper bound for any timeout/predictive sleeping
// policy that keeps tasks at full speed.
type Oracle struct {
	psm *acpi.PSM
	// AllowSoftOff permits soft-off as a target.
	AllowSoftOff bool

	// sleeping is set while a release steps the PSM into target.
	sleeping bool
	target   acpi.State
}

// NewOracle creates an oracle manager.
func NewOracle(psm *acpi.PSM) *Oracle { return &Oracle{psm: psm} }

// AcquireOn implements ip.Manager.
func (m *Oracle) AcquireOn(task.Task) (power.OperatingPoint, []*sim.Event) {
	return acquireON1(m.psm)
}

// ReleaseIdle implements ip.Manager. The target is chosen once, from the
// state the IP went idle in; later calls step the PSM into it.
func (m *Oracle) ReleaseIdle(hint sim.Time) []*sim.Event {
	if !m.sleeping {
		target, ok := m.choose(hint)
		if !ok {
			return nil
		}
		m.sleeping, m.target = true, target
	}
	if w := m.psm.StepTo(m.target); w != nil {
		return w
	}
	m.sleeping = false
	return nil
}

// choose returns the deepest sleep state whose break-even time fits hint,
// if the IP is in an ON state and one does.
func (m *Oracle) choose(hint sim.Time) (acpi.State, bool) {
	prof := m.psm.Profile()
	s := m.psm.State()
	if !s.IsOn() {
		return 0, false
	}
	pIdle := prof.IdlePower(prof.On[s.OnIndex()])
	deepest := 3
	if m.AllowSoftOff {
		deepest = 4
	}
	for i := deepest; i >= 0; i-- {
		tbe, ok := prof.BreakEven(pIdle, prof.Sleep[i])
		if ok && hint >= tbe {
			return acpi.SleepStateByIndex(i), true
		}
	}
	return 0, false
}
