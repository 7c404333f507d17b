package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestThreadWaitTime(t *testing.T) {
	k := NewKernel()
	var marks []Time
	k.Thread("t", func(c *Ctx) {
		marks = append(marks, c.Now())
		c.WaitTime(10 * Ns)
		marks = append(marks, c.Now())
		c.WaitTime(5 * Ns)
		marks = append(marks, c.Now())
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 10 * Ns, 15 * Ns}
	if len(marks) != 3 {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestThreadWaitEvent(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("go")
	var woke Time = -1
	k.Thread("t", func(c *Ctx) {
		c.Wait(e)
		woke = c.Now()
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
	var got *Event
	k.Thread("t", func(c *Ctx) {
		got = c.WaitAny(a, b)
	})
	b.Notify(5 * Ns)
	a.Notify(50 * Ns)
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Fatalf("WaitAny returned %v, want b", got)
	}
	// The thread terminated; the pending a-notification must not crash.
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestThreadTermination(t *testing.T) {
	k := NewKernel()
	p := k.Thread("t", func(c *Ctx) { c.WaitTime(1 * Ns) })
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if !p.Terminated() {
		t.Fatal("thread should have terminated")
	}
}

func TestTwoThreadsPingPong(t *testing.T) {
	k := NewKernel()
	ping := k.NewEvent("ping")
	pong := k.NewEvent("pong")
	var seq []string
	k.Thread("A", func(c *Ctx) {
		for i := 0; i < 3; i++ {
			ping.Notify(1 * Ns)
			c.Wait(pong)
			seq = append(seq, "A")
		}
	})
	k.Thread("B", func(c *Ctx) {
		for i := 0; i < 3; i++ {
			c.Wait(ping)
			seq = append(seq, "B")
			pong.Notify(1 * Ns)
		}
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	want := []string{"B", "A", "B", "A", "B", "A"}
	if len(seq) != len(want) {
		t.Fatalf("seq = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("seq = %v, want %v", seq, want)
		}
	}
}

func TestThreadWaitUntil(t *testing.T) {
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
	k.Thread("t", func(c *Ctx) {
		c.WaitUntil(s.Changed(), func() bool { return s.Read() >= 5 })
		reached = c.Now()
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if reached != 4*Ns {
		t.Fatalf("condition reached at %v, want 4ns (5th write)", reached)
	}
}

func TestShutdownUnwindsBlockedThreads(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("never")
	cleanedUp := false
	k.Thread("t", func(c *Ctx) {
		defer func() { cleanedUp = true }()
		c.Wait(e) // never fires
	})
	if err := k.Run(1 * Us); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if !cleanedUp {
		t.Fatal("deferred cleanup did not run on Shutdown")
	}
}

func TestThreadPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Thread("x", func(c *Ctx) {
		c.WaitTime(1 * Ns) // panic from a resumed activation, not the first
		panic("boom")
	})
	err := k.Run(MaxTime)
	if err == nil {
		t.Fatal("expected error from panicking thread")
	}
	if want := `sim: thread "x" panicked: boom`; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

// pingPongTrace runs two threads and a method exchanging events and
// returns every activation as "time name" lines. run drives the kernel to
// the horizon in whatever slices it likes.
func pingPongTrace(t *testing.T, run func(k *Kernel) error) []string {
	t.Helper()
	k := NewKernel()
	defer k.Shutdown()
	ping, pong, tick := k.NewEvent("ping"), k.NewEvent("pong"), k.NewEvent("tick")
	var trace []string
	log := func(name string) { trace = append(trace, fmt.Sprintf("%v %s", k.Now(), name)) }
	k.Thread("A", func(c *Ctx) {
		for {
			ping.Notify(3 * Ns)
			c.Wait(pong)
			log("A")
		}
	})
	k.Thread("B", func(c *Ctx) {
		for {
			c.Wait(ping)
			log("B")
			c.WaitDelta()
			pong.Notify(2 * Ns)
		}
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

// A kernel's threads are coroutines, so a later Run may come from another
// goroutine; the resumed simulation must be the same one.
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
	k := NewKernel()
	var before, after uint64
	k.Thread("t", func(c *Ctx) {
		before = k.DeltaCount()
		c.WaitDelta()
		after = k.DeltaCount()
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("WaitDelta did not advance delta count: %d -> %d", before, after)
	}
	if k.Now() != 0 {
		t.Fatalf("WaitDelta advanced time to %v", k.Now())
	}
}

func TestWaitTimeNonPositivePanics(t *testing.T) {
	k := NewKernel()
	var recovered bool
	k.Thread("t", func(c *Ctx) {
		defer func() {
			if recover() != nil {
				recovered = true
				panic(killError{name: "t"}) // unwind quietly
			}
		}()
		c.WaitTime(0)
	})
	_ = k.Run(MaxTime)
	if !recovered {
		t.Fatal("WaitTime(0) did not panic")
	}
}

// Property: N threads each waiting a distinct pseudo-random duration all wake
// exactly at their requested times, regardless of creation order.
func TestThreadPropertyWakeTimes(t *testing.T) {
	f := func(durs []uint16) bool {
		if len(durs) == 0 || len(durs) > 50 {
			return true
		}
		k := NewKernel()
		woke := make([]Time, len(durs))
		for i, d := range durs {
			i, d := i, Time(d)+1 // durations >= 1ps
			k.Thread("t", func(c *Ctx) {
				c.WaitTime(d)
				woke[i] = c.Now()
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
