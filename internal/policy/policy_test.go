package policy

import (
	"testing"

	"godpm/internal/acpi"
	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/task"
)

func newPSM(k *sim.Kernel) *acpi.PSM {
	return acpi.NewPSM(k, "ip", power.DefaultProfile(), acpi.ON1)
}

func someTask() task.Task {
	return task.Task{ID: 1, Instructions: 1000, Class: power.InstrALU, Priority: task.Medium}
}

// manager is the step interface every policy implements (ip.Manager).
type manager interface {
	AcquireOn(task.Task) (power.OperatingPoint, []*sim.Event)
	ReleaseIdle(sim.Time) []*sim.Event
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

// acquire steps m.AcquireOn to completion and stores the granted
// operating point in got, when non-nil.
func acquire(m manager, got *power.OperatingPoint) step {
	return func() []*sim.Event {
		op, w := m.AcquireOn(someTask())
		if w == nil && got != nil {
			*got = op
		}
		return w
	}
}

// releaseIdle steps m.ReleaseIdle(hint) to completion.
func releaseIdle(m manager, hint sim.Time) step {
	return func() []*sim.Event { return m.ReleaseIdle(hint) }
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

func TestAlwaysOnStaysOn(t *testing.T) {
	k := sim.NewKernel()
	psm := newPSM(k)
	m := NewAlwaysOn(psm)
	changes := 0
	psm.StateSignal().OnChange(func(sim.Time, acpi.State) { changes++ })
	var op power.OperatingPoint
	drive(k, acquire(m, &op), releaseIdle(m, 10*sim.Sec))
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if op.Name != "ON1" {
		t.Errorf("op %q, want ON1", op.Name)
	}
	if psm.State() != acpi.ON1 {
		t.Fatalf("state %v, want ON1 forever", psm.State())
	}
	if changes != 0 {
		t.Fatalf("baseline made %d transitions", changes)
	}
}

func TestAlwaysOnWakesFromSleepStart(t *testing.T) {
	k := sim.NewKernel()
	psm := acpi.NewPSM(k, "ip", power.DefaultProfile(), acpi.SL3)
	m := NewAlwaysOn(psm)
	var woke sim.Time
	drive(k, acquire(m, nil), mark(k, &woke))
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	want := power.DefaultProfile().Sleep[2].WakeLatency
	if woke != want {
		t.Fatalf("woke at %v, want wake latency %v", woke, want)
	}
}

func TestFixedTimeoutSleepsAfterTimeout(t *testing.T) {
	k := sim.NewKernel()
	psm := newPSM(k)
	m := NewFixedTimeout(k, psm, 2*sim.Ms, acpi.SL2)
	timeouts := 0
	psm.StateSignal().OnChange(func(sim.Time, acpi.State) { timeouts++ })
	drive(k, acquire(m, nil), releaseIdle(m, 0),
		sleep(k, 10*sim.Ms)) // idle long enough for the timer
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if psm.State() != acpi.SL2 {
		t.Fatalf("state %v after timeout, want SL2", psm.State())
	}
	if timeouts != 1 {
		t.Fatalf("timer put the IP to sleep %d times, want 1", timeouts)
	}
}

func TestFixedTimeoutCancelledByEarlyRequest(t *testing.T) {
	k := sim.NewKernel()
	psm := newPSM(k)
	m := NewFixedTimeout(k, psm, 5*sim.Ms, acpi.SL2)
	timeouts := 0
	psm.StateSignal().OnChange(func(sim.Time, acpi.State) { timeouts++ })
	drive(k, acquire(m, nil), releaseIdle(m, 0),
		sleep(k, 1*sim.Ms), // back before the timeout
		acquire(m, nil), sleep(k, 20*sim.Ms))
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if timeouts != 0 {
		t.Fatalf("timer fired %d times despite early request", timeouts)
	}
	if psm.State() != acpi.ON1 {
		t.Fatalf("state %v, want ON1", psm.State())
	}
}

func TestFixedTimeoutWakeupDelaysNextTask(t *testing.T) {
	k := sim.NewKernel()
	psm := newPSM(k)
	m := NewFixedTimeout(k, psm, 1*sim.Ms, acpi.SL2)
	var startedAt sim.Time
	drive(k, acquire(m, nil), releaseIdle(m, 0), sleep(k, 10*sim.Ms),
		acquire(m, nil), mark(k, &startedAt))
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	wake := power.DefaultProfile().Sleep[1].WakeLatency
	if startedAt < 10*sim.Ms+wake {
		t.Fatalf("second task at %v, want wake latency %v after 10ms", startedAt, wake)
	}
}

func TestFixedTimeoutValidation(t *testing.T) {
	k := sim.NewKernel()
	psm := newPSM(k)
	for _, fn := range []func(){
		func() { NewFixedTimeout(k, psm, 0, acpi.SL1) },
		func() { NewFixedTimeout(k, psm, sim.Ms, acpi.ON2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestGreedySleepsImmediately(t *testing.T) {
	k := sim.NewKernel()
	psm := newPSM(k)
	m := NewGreedy(psm, acpi.SL1)
	var sleptAt sim.Time
	drive(k, acquire(m, nil), releaseIdle(m, 0), mark(k, &sleptAt))
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if psm.State() != acpi.SL1 {
		t.Fatalf("state %v, want SL1", psm.State())
	}
	enter := power.DefaultProfile().Sleep[0].EnterLatency
	if sleptAt != enter {
		t.Fatalf("slept at %v, want immediately after %v enter", sleptAt, enter)
	}
}

func TestGreedyValidation(t *testing.T) {
	k := sim.NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGreedy(newPSM(k), acpi.ON1)
}

func TestOracleSleepsByActualIdle(t *testing.T) {
	prof := power.DefaultProfile()
	pIdle := prof.IdlePower(prof.On[0])
	tbe4, _ := prof.BreakEven(pIdle, prof.Sleep[3])
	tbe1, _ := prof.BreakEven(pIdle, prof.Sleep[0])

	cases := []struct {
		idle sim.Time
		want acpi.State
	}{
		{tbe4 * 2, acpi.SL4},
		{tbe1 + (tbe1 / 2), acpi.SL1},
		{tbe1 / 2, acpi.ON1}, // too short: stay on
	}
	for _, c := range cases {
		k := sim.NewKernel()
		psm := newPSM(k)
		m := NewOracle(psm)
		drive(k, acquire(m, nil), releaseIdle(m, c.idle))
		if err := k.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		if psm.State() != c.want {
			t.Errorf("idle %v: state %v, want %v", c.idle, psm.State(), c.want)
		}
	}
}

func TestOracleSoftOffOption(t *testing.T) {
	k := sim.NewKernel()
	psm := newPSM(k)
	m := NewOracle(psm)
	m.AllowSoftOff = true
	drive(k, acquire(m, nil), releaseIdle(m, 100*sim.Sec))
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if psm.State() != acpi.SoftOff {
		t.Fatalf("state %v, want SoftOff", psm.State())
	}
}
