package sim

import "testing"

func TestCancelDeltaNotification(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("e")
	fired := false
	k.Method("w", func() { fired = true }).Sensitive(e).DontInitialize()
	k.Method("driver", func() {
		e.NotifyDelta()
		e.Cancel()
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled delta notification fired")
	}
}

func TestTimedNotifyAfterDeltaIsIgnored(t *testing.T) {
	// A pending delta notification beats any timed one.
	k := NewKernel()
	e := k.NewEvent("e")
	var times []Time
	k.Method("w", func() { times = append(times, k.Now()) }).Sensitive(e).DontInitialize()
	k.Method("driver", func() {
		e.NotifyDelta()
		e.Notify(10 * Ns) // must be ignored
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(times) != 1 || times[0] != 0 {
		t.Fatalf("times = %v, want single delta fire at 0", times)
	}
}

func TestTerminatedThreadIgnoresLateEvents(t *testing.T) {
	// A dynamic wait is one-shot: once it fired, later fires of the same
	// event do not activate a process that armed nothing new.
	k := NewKernel()
	e := k.NewEvent("e")
	runs := 0
	var p *Proc
	p = k.Method("t", func() {
		runs++
		if runs == 1 {
			p.NextTrigger(e)
		}
	})
	e.Notify(1 * Ns)
	e.Notify(1 * Ns) // earliest-wins: still a single fire
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	e.Notify(1 * Ns) // after the wait was consumed
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("method activated %d times, want 2", runs)
	}
}

func TestSignalWriteOutsideProcessAppliesOnRun(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k, "s", 1)
	s.Write(7)
	if s.Read() != 1 {
		t.Fatal("write applied before update phase")
	}
	if err := k.Run(k.Now() + 1); err != nil {
		t.Fatal(err)
	}
	if s.Read() != 7 {
		t.Fatalf("Read = %d after settle", s.Read())
	}
}

func TestManyEventsSameInstantAllFire(t *testing.T) {
	k := NewKernel()
	const n = 100
	fired := 0
	for i := 0; i < n; i++ {
		e := k.NewEvent("e")
		k.Method("m", func() {
			if k.Now() > 0 {
				fired++
			}
		}).Sensitive(e)
		e.Notify(5 * Ns)
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if fired != n {
		t.Fatalf("fired = %d, want %d", fired, n)
	}
}

func TestEventNamesPreserved(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("my.event")
	if e.Name() != "my.event" {
		t.Fatalf("Name = %q", e.Name())
	}
	p := k.Method("proc", func() {})
	if p.Name() != "proc" {
		t.Fatalf("proc Name = %q", p.Name())
	}
}
