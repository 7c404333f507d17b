package sim

import "testing"

// The scheduling hot paths must be allocation-free in steady state: timed
// notification (queue push/pop), delta notification, signal write/update
// and process activation all run on retained buffers. Each test warms the
// kernel until every buffer has reached its working-set capacity, then
// pins the per-cycle allocation count to exactly zero.

const allocWarmup = 256

// measure runs f allocWarmup times to grow the kernel's buffers, then
// asserts testing.AllocsPerRun reports zero.
func measure(t *testing.T, name string, f func()) {
	t.Helper()
	for i := 0; i < allocWarmup; i++ {
		f()
	}
	if got := testing.AllocsPerRun(1000, f); got != 0 {
		t.Errorf("%s: %v allocs per cycle, want 0", name, got)
	}
}

func TestNotifyTimedAllocFree(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("tick")
	fired := 0
	k.Method("m", func() { fired++ }).Sensitive(e).DontInitialize()
	measure(t, "Event.Notify(timed)+Run", func() {
		e.Notify(10 * Ns)
		if err := k.Run(k.Now() + 10*Ns); err != nil {
			t.Fatal(err)
		}
	})
	if fired == 0 {
		t.Fatal("event never fired")
	}
}

func TestNotifyTimedChurnAllocFree(t *testing.T) {
	// Superseding notifications (the stale-entry path, including lazy
	// compaction) must not allocate either.
	k := NewKernel()
	e := k.NewEvent("tick")
	fired := 0
	k.Method("m", func() { fired++ }).Sensitive(e).DontInitialize()
	measure(t, "Event.Notify supersede+Run", func() {
		e.Notify(30 * Ns)
		e.Notify(20 * Ns) // earlier wins: makes the first entry stale
		if err := k.Run(k.Now() + 20*Ns); err != nil {
			t.Fatal(err)
		}
	})
	if fired == 0 {
		t.Fatal("event never fired")
	}
}

func TestNotifyDeltaAllocFree(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("d")
	fired := 0
	k.Method("m", func() { fired++ }).Sensitive(e).DontInitialize()
	measure(t, "Event.NotifyDelta+Run", func() {
		e.NotifyDelta()
		if err := k.Run(k.Now()); err != nil {
			t.Fatal(err)
		}
	})
	if fired == 0 {
		t.Fatal("event never fired")
	}
}

func TestSignalWriteAllocFree(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k, "s", 0)
	reads := 0
	k.Method("r", func() { reads++ }).Sensitive(s.Changed()).DontInitialize()
	i := 0
	measure(t, "Signal.Write+update+Run", func() {
		i++
		s.Write(i) // always a change: full write→update→notify→activate path
		if err := k.Run(k.Now()); err != nil {
			t.Fatal(err)
		}
	})
	if reads == 0 {
		t.Fatal("reader never activated")
	}
	if s.Read() != i {
		t.Fatalf("signal = %d, want %d", s.Read(), i)
	}
}

func TestCancelAllocFree(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("c")
	measure(t, "Notify+Cancel", func() {
		e.Notify(10 * Ns)
		e.Cancel()
	})
}

func TestNextTriggerAllocFree(t *testing.T) {
	// A timed NextTrigger round trip: the method re-arms its private timer
	// and returns, the kernel fires the timer and activates it again.
	k := NewKernel()
	wakes := 0
	var p *Proc
	p = k.Method("t", func() {
		wakes++
		p.NextTriggerAfter(10 * Ns)
	})
	measure(t, "NextTriggerAfter+reactivation", func() {
		if err := k.Run(k.Now() + 10*Ns); err != nil {
			t.Fatal(err)
		}
	})
	if wakes < 2 {
		t.Fatal("method never reactivated")
	}
}
