package lem

import (
	"testing"

	"godpm/internal/acpi"
	"godpm/internal/battery"
	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/task"
	"godpm/internal/thermal"
)

// rig bundles a minimal single-IP environment for LEM tests.
type rig struct {
	k     *sim.Kernel
	psm   *acpi.PSM
	pack  *battery.Pack
	node  *thermal.Node
	lem   *LEM
	model *battery.Linear
}

// newRig builds a LEM over a linear battery at the given SoC and a thermal
// node at the given temperature.
func newRig(t *testing.T, soc float64, tempC float64, cfg Config) *rig {
	t.Helper()
	k := sim.NewKernel()
	prof := power.DefaultProfile()
	psm := acpi.NewPSM(k, "ip", prof, acpi.ON1)
	model := battery.NewLinear(1e6, soc)
	pack := battery.NewPack(k, "bat", model, battery.DefaultThresholds(), false)
	node := thermal.NewNode(k, "die", thermal.DefaultParams(), tempC)
	l := New(k, "ip.lem", psm, pack, node, cfg)
	return &rig{k: k, psm: psm, pack: pack, node: node, lem: l, model: model}
}

// step is one stage of a driver script: it returns the events to wait on
// before it is called again, or nil once it is done.
type step func() []*sim.Event

// drive runs steps in order as one method process, the way the IP drives
// its manager.
func drive(k *sim.Kernel, steps ...step) {
	i := 0
	var p *sim.Proc
	p = k.Method("drv", func() {
		for ; i < len(steps); i++ {
			if w := steps[i](); w != nil {
				p.NextTrigger(w...)
				return
			}
		}
	})
}

// acquire steps l.AcquireOn(t) to completion and stores the granted
// operating point in got, when non-nil.
func acquire(l *LEM, t task.Task, got *power.OperatingPoint) step {
	return func() []*sim.Event {
		op, w := l.AcquireOn(t)
		if w == nil && got != nil {
			*got = op
		}
		return w
	}
}

// releaseIdle steps l.ReleaseIdle(hint) to completion.
func releaseIdle(l *LEM, hint sim.Time) step {
	return func() []*sim.Event { return l.ReleaseIdle(hint) }
}

// sleep waits d.
func sleep(k *sim.Kernel, d sim.Time) step {
	ev := k.NewEvent("drv.sleep")
	armed := false
	return func() []*sim.Event {
		if armed {
			return nil
		}
		armed = true
		ev.Notify(d)
		return []*sim.Event{ev}
	}
}

// mark stores the current time in at.
func mark(k *sim.Kernel, at *sim.Time) step {
	return func() []*sim.Event { *at = k.Now(); return nil }
}

func smallTask(prio task.Priority) task.Task {
	return task.Task{ID: 1, Instructions: 200_000, Class: power.InstrALU, Priority: prio}
}

func TestAcquireOnSelectsByPriorityFullBattery(t *testing.T) {
	// Battery Full (rows 11/12): V/H/M → ON1, L → ON2.
	cases := []struct {
		prio task.Priority
		want string
	}{
		{task.VeryHigh, "ON1"},
		{task.High, "ON1"},
		{task.Medium, "ON1"},
		{task.Low, "ON2"},
	}
	for _, c := range cases {
		r := newRig(t, 0.95, 50, NewConfig())
		var got power.OperatingPoint
		drive(r.k, acquire(r.lem, smallTask(c.prio), &got))
		if err := r.k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		if got.Name != c.want {
			t.Errorf("priority %v: op %q, want %q", c.prio, got.Name, c.want)
		}
	}
}

func TestAcquireOnLowBatterySlowsEveryone(t *testing.T) {
	r := newRig(t, 0.2, 50, NewConfig()) // battery Low
	var got power.OperatingPoint
	drive(r.k, acquire(r.lem, smallTask(task.VeryHigh), &got))
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if got.Name != "ON4" {
		t.Fatalf("low battery should force ON4, got %q", got.Name)
	}
}

func TestAcquireOnParksOnEmptyBatteryUntilCharge(t *testing.T) {
	// Battery Empty parks non-VeryHigh tasks in SL1; when the battery
	// class improves (here: faked by an external recharge), the task runs.
	r := newRig(t, 0.03, 50, NewConfig())
	var acquired sim.Time = -1
	drive(r.k, acquire(r.lem, smallTask(task.Medium), nil), mark(r.k, &acquired))
	// External event: a charger lifts the battery to 50% at 5 ms.
	recharge := r.k.NewEvent("recharge")
	r.k.Method("charger", func() {
		r.model.SetWells(battery.Wells{Available: 0.5 * r.model.CapacityJ()})
		r.pack.Refresh(r.model.Wells()) // refresh the status signal
	}).Sensitive(recharge).DontInitialize()
	recharge.Notify(5 * sim.Ms)
	if err := r.k.Run(100 * sim.Ms); err != nil {
		t.Fatal(err)
	}
	if acquired < 5*sim.Ms {
		t.Fatalf("task acquired at %v, want parked until the 5ms recharge", acquired)
	}
	st := r.lem.Stats()
	if st.ParkEvents != 1 || st.ParkedTime <= 0 {
		t.Fatalf("park stats: %+v", st)
	}
	// Battery Medium + temp Low → ON3 for Medium priority (row 9).
	if r.psm.State() != acpi.ON3 {
		t.Fatalf("final state %v, want ON3", r.psm.State())
	}
}

func TestVeryHighPriorityRunsEvenOnEmptyBattery(t *testing.T) {
	r := newRig(t, 0.03, 50, NewConfig())
	var got power.OperatingPoint
	drive(r.k, acquire(r.lem, smallTask(task.VeryHigh), &got))
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if got.Name != "ON4" {
		t.Fatalf("row 1 violated: got %q, want ON4", got.Name)
	}
}

func TestHighTemperatureParksUntilCool(t *testing.T) {
	// Die at 90 °C (High): Medium-priority task parks in SL1; the chip
	// cools (the test steps the node), the class drops, the task runs.
	r := newRig(t, 0.95, 90, NewConfig())
	var acquired sim.Time = -1
	drive(r.k, acquire(r.lem, smallTask(task.Medium), nil), mark(r.k, &acquired))
	cool := r.k.NewEvent("cool")
	r.k.Method("cooler", func() {
		r.node.Set(r.node.Advance(r.node.TempC(), 0, (2 * sim.Ms).Seconds())) // strong cooling per tick
		if r.node.Class() == thermal.HighTemp {
			cool.Notify(sim.Ms)
		}
	}).Sensitive(cool).DontInitialize()
	cool.Notify(sim.Ms)
	if err := r.k.Run(200 * sim.Ms); err != nil {
		t.Fatal(err)
	}
	if acquired <= 0 {
		t.Fatal("task never acquired despite cooling")
	}
	if r.lem.Stats().ParkEvents == 0 {
		t.Fatal("no park recorded at high temperature")
	}
}

func TestReleaseIdleEntersSleepWhenPredictedLongIdle(t *testing.T) {
	cfg := NewConfig()
	cfg.Predictor = Perfect{}
	r := newRig(t, 0.95, 50, cfg)
	drive(r.k, acquire(r.lem, smallTask(task.Medium), nil),
		releaseIdle(r.lem, 500*sim.Ms)) // plenty for SL4
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if r.psm.State() != acpi.SL4 {
		t.Fatalf("state %v after long predicted idle, want SL4", r.psm.State())
	}
	if r.lem.Stats().SleepEntries["SL4"] != 1 {
		t.Fatalf("sleep stats %v", r.lem.Stats().SleepEntries)
	}
}

func TestReleaseIdleStaysOnForShortIdle(t *testing.T) {
	cfg := NewConfig()
	cfg.Predictor = Perfect{}
	r := newRig(t, 0.95, 50, cfg)
	drive(r.k, acquire(r.lem, smallTask(task.Medium), nil),
		releaseIdle(r.lem, 1*sim.Us)) // below every break-even
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if !r.psm.State().IsOn() {
		t.Fatalf("state %v, want to stay ON for a tiny idle", r.psm.State())
	}
	if r.lem.Stats().SleepEntries[""] != 1 {
		t.Fatalf("sleep stats %v", r.lem.Stats().SleepEntries)
	}
}

func TestReleaseIdlePicksIntermediateState(t *testing.T) {
	cfg := NewConfig()
	cfg.Predictor = Perfect{}
	r := newRig(t, 0.95, 50, cfg)
	prof := power.DefaultProfile()
	pIdle := prof.IdlePower(prof.On[0])
	// Pick an idle length between SL2's and SL3's break-even times.
	tbe2, _ := prof.BreakEven(pIdle, prof.Sleep[1])
	tbe3, _ := prof.BreakEven(pIdle, prof.Sleep[2])
	idle := tbe2 + (tbe3-tbe2)/2
	drive(r.k, acquire(r.lem, smallTask(task.Medium), nil), releaseIdle(r.lem, idle))
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if r.psm.State() != acpi.SL2 {
		t.Fatalf("state %v for idle %v, want SL2 (tbe2=%v tbe3=%v)",
			r.psm.State(), idle, tbe2, tbe3)
	}
}

func TestBreakEvenGatingDisabledGoesDeepest(t *testing.T) {
	cfg := NewConfig()
	cfg.Predictor = Perfect{}
	cfg.BreakEvenGating = false
	r := newRig(t, 0.95, 50, cfg)
	drive(r.k, acquire(r.lem, smallTask(task.Medium), nil),
		releaseIdle(r.lem, 1*sim.Us)) // would stay ON with gating
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if r.psm.State() != acpi.SL4 {
		t.Fatalf("ungated sleep went to %v, want SL4", r.psm.State())
	}
}

func TestAllowSoftOffReachesSoftOff(t *testing.T) {
	cfg := NewConfig()
	cfg.Predictor = Perfect{}
	cfg.AllowSoftOff = true
	r := newRig(t, 0.95, 50, cfg)
	drive(r.k, acquire(r.lem, smallTask(task.Medium), nil), releaseIdle(r.lem, 10*sim.Sec))
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if r.psm.State() != acpi.SoftOff {
		t.Fatalf("state %v, want SoftOff", r.psm.State())
	}
}

func TestPredictorObservesActualIdle(t *testing.T) {
	cfg := NewConfig()
	lv := &LastValue{}
	cfg.Predictor = lv
	r := newRig(t, 0.95, 50, cfg)
	drive(r.k, acquire(r.lem, smallTask(task.Medium), nil), releaseIdle(r.lem, 0),
		sleep(r.k, 7*sim.Ms), // actual idle
		acquire(r.lem, smallTask(task.Medium), nil))
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if got := lv.Predict(0); got != 7*sim.Ms {
		t.Fatalf("observed idle = %v, want 7ms", got)
	}
}

func TestPredictionRefinesWithinOnStates(t *testing.T) {
	// Die at 50 °C (Low), battery Full: the first pass picks ON1 for a
	// Medium-priority task, but a hot-running (IO-class) long task is
	// predicted to push the temperature class to Medium by its end — the
	// refined selection lands on the completion default ON3.
	r := newRig(t, 0.95, 50, NewConfig())
	hot := task.Task{ID: 1, Instructions: 5_000_000, Class: power.InstrIO, Priority: task.Medium}
	var got power.OperatingPoint
	drive(r.k, acquire(r.lem, hot, &got))
	if err := r.k.Run(sim.Sec); err != nil {
		t.Fatal(err)
	}
	if got.Name != "ON3" {
		t.Fatalf("hot task got %q, want the refined ON3", got.Name)
	}
}

func TestPredictionGuardAvoidsParkingOnForecast(t *testing.T) {
	// Battery barely above the Empty threshold: the current class (Low)
	// permits execution but the task would drain it to Empty, for which
	// Table 1 selects SL1. Parking on that forecast would deadlock, so the
	// guard must run the task at ON4 instead.
	k := sim.NewKernel()
	prof := power.DefaultProfile()
	psm := acpi.NewPSM(k, "ip", prof, acpi.ON1)
	model := battery.NewLinear(0.02, 0.06) // 20 mJ pack at 6% — one task drains it
	pack := battery.NewPack(k, "bat", model, battery.DefaultThresholds(), false)
	node := thermal.NewNode(k, "die", thermal.DefaultParams(), 50)
	l := New(k, "ip.lem", psm, pack, node, NewConfig())
	big := task.Task{ID: 1, Instructions: 5_000_000, Class: power.InstrALU, Priority: task.Medium}
	var got power.OperatingPoint
	drive(k, acquire(l, big, &got))
	if err := k.Run(sim.Sec); err != nil {
		t.Fatal(err)
	}
	if got.Name != "ON4" {
		t.Fatalf("battery-draining task got %q, want the ON4 guard", got.Name)
	}
}

func TestStatsCountDecisions(t *testing.T) {
	r := newRig(t, 0.95, 50, NewConfig())
	var steps []step
	for i := 0; i < 3; i++ {
		steps = append(steps, acquire(r.lem, smallTask(task.Medium), nil),
			releaseIdle(r.lem, 0), sleep(r.k, sim.Ms))
	}
	drive(r.k, steps...)
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if r.lem.Stats().OnDecisions["ON1"] != 3 {
		t.Fatalf("decisions %v, want 3×ON1", r.lem.Stats().OnDecisions)
	}
}

func TestFinalReleasePowersDownDeepest(t *testing.T) {
	// ReleaseIdle with the sim.MaxTime sentinel ("no further work") must
	// bypass the predictor and reach the deepest allowed sleep state.
	cfg := NewConfig()
	cfg.Predictor = &LastValue{} // has never observed anything: predicts 0
	r := newRig(t, 0.95, 50, cfg)
	drive(r.k, acquire(r.lem, smallTask(task.Medium), nil), releaseIdle(r.lem, sim.MaxTime))
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if r.psm.State() != acpi.SL4 {
		t.Fatalf("final state %v, want SL4", r.psm.State())
	}
}

func TestFinalReleaseDoesNotPolluteAdaptivePredictor(t *testing.T) {
	cfg := NewConfig()
	lv := &LastValue{}
	cfg.Predictor = lv
	r := newRig(t, 0.95, 50, cfg)
	drive(r.k, acquire(r.lem, smallTask(task.Medium), nil), releaseIdle(r.lem, 0),
		sleep(r.k, 3*sim.Ms),
		acquire(r.lem, smallTask(task.Medium), nil), releaseIdle(r.lem, sim.MaxTime))
	if err := r.k.Run(sim.Sec); err != nil {
		t.Fatal(err)
	}
	// The observed idle is the real 3 ms, not an artefact of the final
	// power-down.
	if lv.Predict(0) != 3*sim.Ms {
		t.Fatalf("predictor remembers %v, want 3ms", lv.Predict(0))
	}
}
