package sim

import (
	"testing"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
}

func TestRunEmptyKernelReturns(t *testing.T) {
	k := NewKernel()
	if err := k.Run(MaxTime); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if k.Now() != 0 {
		t.Fatalf("time advanced with no events: %v", k.Now())
	}
}

func TestTimedNotifyAdvancesTime(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	var fired Time = -1
	k.Method("m", func() {
		if k.Now() > 0 {
			fired = k.Now()
		}
	}).Sensitive(e)
	e.Notify(10 * Ns)
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if fired != 10*Ns {
		t.Fatalf("fired at %v, want 10ns", fired)
	}
}

func TestMethodInitialActivation(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.Method("m", func() { ran++ })
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("method ran %d times at init, want 1", ran)
	}
}

func TestDontInitializeSuppressesInitialRun(t *testing.T) {
	k := NewKernel()
	ran := 0
	e := k.NewEvent("e")
	k.Method("m", func() { ran++ }).Sensitive(e).DontInitialize()
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Fatalf("method ran %d times despite DontInitialize", ran)
	}
	e.Notify(1 * Ns)
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("method ran %d times after notify, want 1", ran)
	}
}

func TestEarliestWinsNotification(t *testing.T) {
	// A pending later notification is replaced by an earlier one; a pending
	// earlier notification suppresses a later one.
	k := NewKernel()
	e := k.NewEvent("e")
	var times []Time
	k.Method("m", func() {
		if k.Now() > 0 {
			times = append(times, k.Now())
		}
	}).Sensitive(e)
	e.Notify(100 * Ns)
	e.Notify(10 * Ns) // earlier wins, 100ns cancelled
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(times) != 1 || times[0] != 10*Ns {
		t.Fatalf("fire times = %v, want [10ns]", times)
	}

	e.Notify(10 * Ns)
	e.Notify(100 * Ns) // later is ignored
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[1] != 20*Ns {
		t.Fatalf("fire times = %v, want second at 20ns", times)
	}
}

func TestCancelRemovesPending(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	fired := false
	k.Method("m", func() {
		if k.Now() > 0 {
			fired = true
		}
	}).Sensitive(e)
	e.Notify(5 * Ns)
	if e.pendingAt != 5*Ns {
		t.Fatal("event should be pending after Notify")
	}
	e.Cancel()
	if e.pendingAt != pendingNone || e.pendingDelta {
		t.Fatal("event still pending after Cancel")
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestDeltaNotification(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	order := []string{}
	k.Method("a", func() {
		order = append(order, "a")
		if len(order) == 1 {
			e.NotifyDelta()
		}
	})
	k.Method("b", func() { order = append(order, "b") }).Sensitive(e).DontInitialize()
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]", order)
	}
	if k.Now() != 0 {
		t.Fatalf("delta notification advanced time to %v", k.Now())
	}
}

func TestDeltaBeatsTimedNotification(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	var at Time = -1
	cnt := 0
	k.Method("m", func() { at = k.Now(); cnt++ }).Sensitive(e).DontInitialize()
	e.Notify(50 * Ns)
	e.NotifyDelta() // cancels the timed notification
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if cnt != 1 || at != 0 {
		t.Fatalf("cnt=%d at=%v, want one delta fire at t=0", cnt, at)
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	fired := false
	k.Method("m", func() {
		if k.Now() > 0 {
			fired = true
		}
	}).Sensitive(e)
	e.Notify(100 * Ns)
	if err := k.Run(50 * Ns); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if k.Now() != 50*Ns {
		t.Fatalf("Now()=%v, want parked at 50ns", k.Now())
	}
	if err := k.Run(200 * Ns); err != nil {
		t.Fatal(err)
	}
	if !fired || k.Now() != 200*Ns {
		t.Fatalf("fired=%v Now=%v, want fired at horizon 200ns", fired, k.Now())
	}
}

func TestStopHaltsSimulation(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	count := 0
	k.Method("m", func() {
		count++
		if count == 3 {
			k.Stop()
		}
		e.Notify(1 * Ns)
	}).Sensitive(e)
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3 (stopped)", count)
	}
}

func TestDeterministicProcessOrder(t *testing.T) {
	// Processes triggered in the same delta run in creation order.
	k := NewKernel()
	e := k.NewEvent("e")
	var order []string
	for _, n := range []string{"p0", "p1", "p2", "p3"} {
		name := n
		k.Method(name, func() {
			if k.Now() > 0 {
				order = append(order, name)
			}
		}).Sensitive(e)
	}
	e.Notify(1 * Ns)
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	want := []string{"p0", "p1", "p2", "p3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeFIFOGrouping(t *testing.T) {
	// Two different events notified for the same instant both fire at that
	// instant (single time advance, possibly multiple deltas).
	k := NewKernel()
	e1 := k.NewEvent("e1")
	e2 := k.NewEvent("e2")
	var at []Time
	k.Method("m1", func() {
		if k.Now() > 0 {
			at = append(at, k.Now())
		}
	}).Sensitive(e1)
	k.Method("m2", func() {
		if k.Now() > 0 {
			at = append(at, k.Now())
		}
	}).Sensitive(e2)
	e1.Notify(7 * Ns)
	e2.Notify(7 * Ns)
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != 7*Ns || at[1] != 7*Ns {
		t.Fatalf("fire times = %v, want both at 7ns", at)
	}
}

func TestDeltaLivelockDetected(t *testing.T) {
	k := NewKernel()
	k.MaxDeltasPerInstant = 100
	a := k.NewEvent("a")
	b := k.NewEvent("b")
	k.Method("pa", func() { b.NotifyDelta() }).Sensitive(a)
	k.Method("pb", func() { a.NotifyDelta() }).Sensitive(b)
	err := k.Run(MaxTime)
	if err == nil {
		t.Fatal("expected livelock error")
	}
}

func TestDeltaCountAdvances(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	n := 0
	k.Method("m", func() {
		n++
		if n < 5 {
			e.NotifyDelta()
		}
	}).Sensitive(e)
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if k.DeltaCount() < 4 {
		t.Fatalf("DeltaCount=%d, want >= 4", k.DeltaCount())
	}
}

func TestNotifyNegativePanics(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	e.Notify(-1)
}

func TestMultipleRunsContinue(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	count := 0
	k.Method("m", func() {
		if k.Now() > 0 {
			count++
			if count < 10 {
				e.Notify(10 * Ns)
			}
		}
	}).Sensitive(e)
	e.Notify(10 * Ns)
	for i := 0; i < 10; i++ {
		if err := k.Run(k.Now() + 10*Ns); err != nil {
			t.Fatal(err)
		}
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10 across chunked runs", count)
	}
}
