package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// The tests named after threads check that SystemC's SC_THREAD wait idioms
// come out right when written, as the model's IP processes are, as method
// state machines that arm their next activation with NextTrigger.

func TestThreadWaitTime(t *testing.T) {
	k := NewKernel()
	var marks []Time
	var p *Proc
	p = k.Method("t", func() {
		marks = append(marks, k.Now())
		switch len(marks) {
		case 1:
			p.NextTriggerAfter(10 * Ns)
		case 2:
			p.NextTriggerAfter(5 * Ns)
		}
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if want := []Time{0, 10 * Ns, 15 * Ns}; !slices.Equal(marks, want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
}

func TestThreadWaitEvent(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("go")
	var woke Time = -1
	armed := false
	var p *Proc
	p = k.Method("t", func() {
		if !armed {
			armed = true
			p.NextTrigger(e)
			return
		}
		woke = k.Now()
	})
	e.Notify(42 * Ns)
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if woke != 42*Ns {
		t.Fatalf("woke at %v, want 42ns", woke)
	}
}

func TestThreadWaitAnyReturnsTrigger(t *testing.T) {
	k := NewKernel()
	a := k.NewEvent("a")
	b := k.NewEvent("b")
	var woke []Time
	var p *Proc
	p = k.Method("t", func() {
		woke = append(woke, k.Now())
		if len(woke) == 1 {
			p.NextTrigger(a, b)
		}
	})
	b.Notify(5 * Ns)
	a.Notify(50 * Ns)
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	// b fired first; a's later fire finds the wait cleared.
	if want := []Time{0, 5 * Ns}; !slices.Equal(woke, want) {
		t.Fatalf("activations at %v, want %v", woke, want)
	}
	if len(a.dynamic) != 0 || len(b.dynamic) != 0 {
		t.Fatalf("waiters left behind: a=%d b=%d", len(a.dynamic), len(b.dynamic))
	}
}

func TestThreadTermination(t *testing.T) {
	// A process that arms nothing and has no static sensitivity is done:
	// nothing activates it again.
	k := NewKernel()
	e := k.NewEvent("e")
	runs := 0
	var p *Proc
	p = k.Method("t", func() {
		runs++
		if runs == 1 {
			p.NextTriggerAfter(1 * Ns)
		}
	})
	e.Notify(5 * Ns)
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if runs != 2 || k.Now() != 5*Ns {
		t.Fatalf("runs = %d at %v, want 2 and the run to drain at 5ns", runs, k.Now())
	}
}

func TestTwoThreadsPingPong(t *testing.T) {
	k := NewKernel()
	ping := k.NewEvent("ping")
	pong := k.NewEvent("pong")
	var seq []string
	na, nb := 0, 0
	var a, b *Proc
	a = k.Method("A", func() {
		if na > 0 {
			seq = append(seq, "A")
		}
		if na++; na <= 3 {
			ping.Notify(1 * Ns)
			a.NextTrigger(pong)
		}
	})
	b = k.Method("B", func() {
		if nb > 0 {
			seq = append(seq, "B")
			pong.Notify(1 * Ns)
		}
		if nb++; nb <= 3 {
			b.NextTrigger(ping)
		}
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if want := []string{"B", "A", "B", "A", "B", "A"}; !slices.Equal(seq, want) {
		t.Fatalf("seq = %v, want %v", seq, want)
	}
}

func TestThreadWaitUntil(t *testing.T) {
	// wait-until-condition: re-arm on the signal's change event until the
	// condition holds.
	k := NewKernel()
	s := NewSignal(k, "level", 0)
	e := k.NewEvent("tick")
	n := 0
	k.Method("drv", func() {
		n++
		s.Write(n)
		if n < 10 {
			e.Notify(1 * Ns)
		}
	}).Sensitive(e)
	var reached Time = -1
	var p *Proc
	p = k.Method("t", func() {
		if s.Read() < 5 {
			p.NextTrigger(s.Changed())
			return
		}
		reached = k.Now()
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if reached != 4*Ns {
		t.Fatalf("condition reached at %v, want 4ns (5th write)", reached)
	}
}

func TestNextTriggerSuppressesStaticSensitivity(t *testing.T) {
	// next_trigger overrides the static sensitivity for one activation;
	// once the dynamic wait fired, the static list applies again.
	k := NewKernel()
	tick, other := k.NewEvent("tick"), k.NewEvent("other")
	var woke []Time
	var p *Proc
	p = k.Method("t", func() {
		woke = append(woke, k.Now())
		if len(woke) == 1 {
			p.NextTrigger(other)
		}
	}).Sensitive(tick)
	tick.Notify(2 * Ns)  // ignored: the dynamic wait is armed
	other.Notify(5 * Ns) // ends it
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	tick.Notify(1 * Ns) // static sensitivity again
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if want := []Time{0, 5 * Ns, 6 * Ns}; !slices.Equal(woke, want) {
		t.Fatalf("activations at %v, want %v", woke, want)
	}
}

func TestNextTriggerTwicePanics(t *testing.T) {
	k := NewKernel()
	a, b := k.NewEvent("a"), k.NewEvent("b")
	p := k.Method("t", func() {})
	p.NextTrigger(a)
	defer func() {
		if recover() == nil {
			t.Fatal("second NextTrigger did not panic")
		}
	}()
	p.NextTrigger(b)
}

func TestThreadPanicPropagates(t *testing.T) {
	k := NewKernel()
	var p *Proc
	first := true
	p = k.Method("x", func() {
		if first { // panic from a later activation, not the first
			first = false
			p.NextTriggerAfter(1 * Ns)
			return
		}
		panic("boom")
	})
	err := k.Run(MaxTime)
	if err == nil {
		t.Fatal("expected error from panicking method")
	}
	if want := `sim: process "x" panicked: boom`; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

// pingPongTrace runs three methods exchanging events and returns every
// activation as "time name" lines. run drives the kernel to the horizon in
// whatever slices it likes.
func pingPongTrace(t *testing.T, run func(k *Kernel) error) []string {
	t.Helper()
	k := NewKernel()
	ping, pong, tick := k.NewEvent("ping"), k.NewEvent("pong"), k.NewEvent("tick")
	delta := k.NewEvent("B.delta")
	var trace []string
	log := func(name string) { trace = append(trace, fmt.Sprintf("%v %s", k.Now(), name)) }
	var a, b *Proc
	startedA := false
	a = k.Method("A", func() {
		if startedA {
			log("A")
		}
		startedA = true
		ping.Notify(3 * Ns)
		a.NextTrigger(pong)
	})
	bPhase := 0 // 0: start, 1: woken by ping, 2: one delta later
	b = k.Method("B", func() {
		switch bPhase {
		case 1:
			log("B")
			bPhase = 2
			delta.NotifyDelta()
			b.NextTrigger(delta)
			return
		case 2:
			pong.Notify(2 * Ns)
		}
		bPhase = 1
		b.NextTrigger(ping)
	})
	k.Method("M", func() {
		log("M")
		tick.Notify(7 * Ns)
	}).Sensitive(tick)
	if err := run(k); err != nil {
		t.Fatal(err)
	}
	return trace
}

// A kernel holds no goroutine of its own, so a later Run may come from
// another goroutine; the resumed simulation must be the same one.
func TestRunContinuesOnAnotherGoroutine(t *testing.T) {
	const horizon = 200 * Ns
	want := pingPongTrace(t, func(k *Kernel) error { return k.Run(horizon) })
	got := pingPongTrace(t, func(k *Kernel) error {
		for at := 13 * Ns; ; at += 29 * Ns {
			at = min(at, horizon)
			errc := make(chan error)
			go func() { errc <- k.Run(at) }()
			if err := <-errc; err != nil || at == horizon {
				return err
			}
		}
	})
	if len(want) < 50 {
		t.Fatalf("trace too short to mean anything: %d lines", len(want))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("sliced run across goroutines diverged:\n got %s\nwant %s",
			strings.Join(got, ", "), strings.Join(want, ", "))
	}
}

func TestWaitDelta(t *testing.T) {
	// A one-delta wait: NextTrigger on a delta-notified event.
	k := NewKernel()
	d := k.NewEvent("d")
	var before, after uint64
	var p *Proc
	first := true
	p = k.Method("t", func() {
		if first {
			first = false
			before = k.DeltaCount()
			d.NotifyDelta()
			p.NextTrigger(d)
			return
		}
		after = k.DeltaCount()
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("delta wait did not advance delta count: %d -> %d", before, after)
	}
	if k.Now() != 0 {
		t.Fatalf("delta wait advanced time to %v", k.Now())
	}
}

func TestWaitTimeNonPositivePanics(t *testing.T) {
	k := NewKernel()
	var p *Proc
	p = k.Method("t", func() { p.NextTriggerAfter(0) })
	err := k.Run(MaxTime)
	if err == nil || !strings.Contains(err.Error(), "non-positive duration") {
		t.Fatalf("NextTriggerAfter(0): err = %v, want the non-positive duration panic", err)
	}
}

// Property: N methods each waiting a distinct pseudo-random duration all
// wake exactly at their requested times, regardless of creation order.
func TestThreadPropertyWakeTimes(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 || len(durs) > 50 {
			return true
		}
		k := NewKernel()
		woke := make([]Time, len(durs))
		for i, d := range durs {
			d := Time(d) + 1 // durations >= 1ps
			armed := false
			var p *Proc
			p = k.Method("t", func() {
				if !armed {
					armed = true
					p.NextTriggerAfter(d)
					return
				}
				woke[i] = k.Now()
			})
		}
		if err := k.Run(MaxTime); err != nil {
			return false
		}
		for i, d := range durs {
			if woke[i] != Time(d)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
