package lem

import (
	"fmt"

	"godpm/internal/acpi"
	"godpm/internal/battery"
	"godpm/internal/gem"
	"godpm/internal/power"
	"godpm/internal/rules"
	"godpm/internal/sim"
	"godpm/internal/task"
	"godpm/internal/thermal"
)

// Config parameterises a LEM.
type Config struct {
	// Table is the power-state selection policy (default: rules.Table1).
	Table *rules.Table
	// Predictor estimates idle durations (default: EWMA 0.5).
	Predictor Predictor
	// BreakEvenGating, when true (the default via NewConfig), only enters
	// a sleep state if the predicted idle time exceeds its break-even
	// time; when false the LEM always picks the deepest allowed state —
	// the ablation benchmarks quantify the difference.
	BreakEvenGating bool
	// AllowSoftOff permits the soft-off state as an idle target.
	AllowSoftOff bool
}

// NewConfig returns the defaults used in the experiments.
func NewConfig() Config {
	return Config{
		Table:           rules.Table1(),
		Predictor:       NewEWMA(0.5),
		BreakEvenGating: true,
	}
}

func (c *Config) fillDefaults() {
	if c.Table == nil {
		c.Table = rules.Table1()
	}
	if c.Predictor == nil {
		c.Predictor = NewEWMA(0.5)
	}
}

// Stats aggregates the LEM's decisions for reports and tests.
type Stats struct {
	// OnDecisions counts tasks executed per ON state name.
	OnDecisions map[string]int
	// SleepEntries counts idle periods per sleep state name ("" = stayed
	// in the ON state because no sleep paid off).
	SleepEntries map[string]int
	// ParkEvents counts times a task was parked (policy selected a sleep
	// state or the GEM disabled the IP) before eventually executing.
	ParkEvents int
	// ParkedTime totals time spent parked while a task was pending.
	ParkedTime sim.Time
}

// LEM is the local energy manager of one IP block.
type LEM struct {
	k    *sim.Kernel
	name string
	psm  *acpi.PSM
	pack *battery.Pack
	node thermal.Source
	cfg  Config

	// Optional GEM attachment.
	gem   *gem.GEM
	gemID int

	idleSince sim.Time
	idleValid bool

	// The step in progress: acq for AcquireOn, rel for ReleaseIdle.
	acq acquisition
	rel release

	// The wait sets of a parked task: gemParked while the GEM disables the
	// IP, parked while the policy selects a sleep state.
	gemParked []*sim.Event
	parked    []*sim.Event

	stats Stats
}

// acquisition is the state of an AcquireOn step sequence.
type acquisition struct {
	phase    acqPhase
	target   acpi.State   // the transition in progress (acqPark, acqRun)
	wait     []*sim.Event // the wait set of the park in progress (acqPark)
	parkedAt sim.Time     // start of the current park, or -1
}

type acqPhase uint8

const (
	acqIdle   acqPhase = iota // no acquisition in progress
	acqDecide                 // evaluate the GEM and the policy
	acqPark                   // moving into the park state
	acqRun                    // moving into the selected ON state
)

// release is the state of a ReleaseIdle step sequence.
type release struct {
	active bool
	target acpi.State
}

// New creates a LEM controlling psm, observing the battery pack and thermal
// node. Attach a GEM with AttachGEM before the simulation starts.
func New(k *sim.Kernel, name string, psm *acpi.PSM, pack *battery.Pack, node thermal.Source, cfg Config) *LEM {
	cfg.fillDefaults()
	return &LEM{
		k: k, name: name, psm: psm, pack: pack, node: node, cfg: cfg,
		parked: []*sim.Event{pack.StatusSignal().Changed(), node.ClassSignal().Changed()},
		stats:  Stats{OnDecisions: map[string]int{}, SleepEntries: map[string]int{}},
	}
}

// AttachGEM puts the LEM under global control: tasks execute only while the
// GEM enables this IP.
func (l *LEM) AttachGEM(g *gem.GEM, id int) {
	l.gem = g
	l.gemID = id
	l.gemParked = []*sim.Event{g.Changed(), l.pack.StatusSignal().Changed(), l.node.ClassSignal().Changed()}
	l.parked = append(l.parked, g.Changed())
}

// Stats returns the decision statistics collected so far.
func (l *LEM) Stats() Stats { return l.stats }

// AcquireOn is the IP's step towards executing task t. It returns the
// operating point and nil once the PSM has reached the ON state the policy
// selects for the task under the current (and predicted end-of-task)
// battery and temperature classes; until then it returns the events to
// wait on before calling again with the same task. When the policy selects
// a sleep state (empty battery, overheated chip) or the GEM has disabled
// the IP, the task is parked until conditions change.
func (l *LEM) AcquireOn(t task.Task) (power.OperatingPoint, []*sim.Event) {
	a := &l.acq
	for {
		switch a.phase {
		case acqIdle:
			// Close the idle-period observation for the predictor.
			if l.idleValid {
				l.cfg.Predictor.Observe(l.k.Now() - l.idleSince)
				l.idleValid = false
			}
			if l.gem != nil {
				l.gem.NotifyRequest(l.gemID)
			}
			a.parkedAt = -1
			a.phase = acqDecide
		case acqDecide:
			var state acpi.State
			var wait []*sim.Event
			if l.gem != nil && !l.gem.Enabled(l.gemID) {
				// Forced to Sleep1 by the GEM while disabled.
				state, wait = acpi.SL1, l.gemParked
			} else if state = l.selectState(t); state.IsOn() {
				if a.parkedAt >= 0 {
					l.stats.ParkedTime += l.k.Now() - a.parkedAt
				}
				a.target, a.phase = state, acqRun
				continue
			} else {
				// Policy says sleep (battery empty / chip hot): park and
				// wait for a class change.
				wait = l.parked
			}
			// Park: the clock starts on the first park of the acquisition.
			// The PSM moves to the park state unless it already rests
			// there or is in transit; a wake decides again.
			if a.parkedAt < 0 {
				a.parkedAt = l.k.Now()
				l.stats.ParkEvents++
			}
			if l.psm.State() != state && !l.psm.Transitioning().Read() {
				a.target, a.wait, a.phase = state, wait, acqPark
				continue
			}
			return power.OperatingPoint{}, wait
		case acqPark:
			if w := l.psm.StepTo(a.target); w != nil {
				return power.OperatingPoint{}, w
			}
			a.phase = acqDecide
			return power.OperatingPoint{}, a.wait
		case acqRun:
			if w := l.psm.StepTo(a.target); w != nil {
				return power.OperatingPoint{}, w
			}
			a.phase = acqIdle
			l.stats.OnDecisions[a.target.String()]++
			return l.psm.Profile().On[a.target.OnIndex()], nil
		}
	}
}

// selectState runs the Table 1 policy with the LEM's end-of-task
// prediction: a first pass with the current classes picks a candidate ON
// state; the battery and temperature classes are then predicted at the end
// of the task executed in that state (folding in the other IPs' power when
// a GEM is attached) and the policy is re-evaluated with the predicted
// classes.
func (l *LEM) selectState(t task.Task) acpi.State {
	battNow := l.pack.Status()
	tempNow := l.node.Class()
	state, _, ok := l.cfg.Table.Select(t.Priority, battNow, tempNow)
	if !ok {
		panic(fmt.Sprintf("lem: %s: policy table not total", l.name))
	}
	if !state.IsOn() {
		return state
	}
	prof := l.psm.Profile()
	op := prof.On[state.OnIndex()]
	dur := prof.TaskDuration(t.Instructions, op)
	pSelf := prof.InstrWeight[t.Class]*prof.DynamicPower(op) + prof.LeakagePower(op.Vdd)
	pTotal := pSelf
	if l.gem != nil {
		pTotal += l.gem.OtherPower(l.gemID)
	}
	battEnd := l.pack.PredictStatus(pTotal, dur)
	tempEnd := l.node.PredictClass(pTotal, dur)
	refined, _, ok := l.cfg.Table.Select(t.Priority, battEnd, tempEnd)
	if !ok {
		panic(fmt.Sprintf("lem: %s: policy table not total", l.name))
	}
	if refined.IsOn() {
		return refined
	}
	// Prediction guard: the *current* classes permit execution; parking on
	// a merely *predicted* degradation would deadlock (nothing changes
	// while the IP is parked, so the prediction never improves). Instead
	// the task runs in the most frugal execution state, which minimises
	// the predicted drift.
	return acpi.ON4
}

// ReleaseIdle is the IP's step into inactivity. The LEM predicts the idle
// duration and moves the PSM into the deepest sleep (or off) state whose
// break-even time the prediction exceeds; with no profitable state the IP
// stays clocked in its current ON state. hint is the actual upcoming idle
// time, consumed only by the Perfect predictor. It returns nil once the
// PSM has settled, else the events to wait on before calling again with
// the same hint.
func (l *LEM) ReleaseIdle(hint sim.Time) []*sim.Event {
	r := &l.rel
	if !r.active {
		target, ok := l.startRelease(hint)
		if !ok {
			return nil
		}
		r.active, r.target = true, target
	}
	if w := l.psm.StepTo(r.target); w != nil {
		return w
	}
	r.active = false
	l.stats.SleepEntries[r.target.String()]++
	return nil
}

// startRelease opens a release: it updates the predictor bookkeeping and
// picks the sleep state to enter, if any.
func (l *LEM) startRelease(hint sim.Time) (acpi.State, bool) {
	if hint == sim.MaxTime {
		// "No further work ever": skip the predictor (there is no next
		// idle period to learn for) and power down as deeply as allowed.
		l.idleValid = false
		return l.chooseSleep(sim.MaxTime)
	}
	l.idleSince = l.k.Now()
	l.idleValid = true
	predicted := l.cfg.Predictor.Predict(hint)

	target, ok := l.chooseSleep(predicted)
	if !ok {
		l.stats.SleepEntries[""]++
	}
	return target, ok
}

// chooseSleep returns the deepest allowed sleep state whose break-even time
// is within the predicted idle duration.
func (l *LEM) chooseSleep(predicted sim.Time) (acpi.State, bool) {
	prof := l.psm.Profile()
	var pIdle float64
	if s := l.psm.State(); s.IsOn() {
		pIdle = prof.IdlePower(prof.On[s.OnIndex()])
	} else {
		// Already asleep (e.g. GEM parked us): nothing to do.
		return 0, false
	}
	deepest := 3 // SL4
	if l.cfg.AllowSoftOff {
		deepest = 4
	}
	if !l.cfg.BreakEvenGating {
		return acpi.SleepStateByIndex(deepest), true
	}
	for i := deepest; i >= 0; i-- {
		tbe, ok := prof.BreakEven(pIdle, prof.Sleep[i])
		if ok && predicted >= tbe {
			return acpi.SleepStateByIndex(i), true
		}
	}
	return 0, false
}
