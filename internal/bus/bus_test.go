package bus

import (
	"math"
	"slices"
	"testing"

	"godpm/internal/sim"
)

func TestTransferDuration(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "bus", DefaultConfig()) // 100 MHz → 10ns/word
	if got := b.TransferDuration(32); got != 320*sim.Ns {
		t.Fatalf("TransferDuration(32) = %v, want 320ns", got)
	}
	if b.TransferDuration(0) != 0 {
		t.Fatal("zero words should take no time")
	}
}

// master drives one bus master as a method process: after delay it runs
// one transaction of words at priority, stepping TransferPri through its
// waits, and then calls done with the arbitration wait.
func master(k *sim.Kernel, b *Bus, name string, delay sim.Time, words, priority int, done func(waited sim.Time)) {
	var x Transfer
	started := delay <= 0
	var p *sim.Proc
	p = k.Method(name, func() {
		if !started {
			started = true
			p.NextTriggerAfter(delay)
			return
		}
		ev, hold := b.TransferPri(&x, words, priority)
		switch {
		case ev != nil:
			p.NextTrigger(ev)
		case hold > 0:
			p.NextTriggerAfter(hold)
		case done != nil:
			done(x.Waited)
		}
	})
}

func TestSingleTransfer(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "bus", DefaultConfig())
	var sunk float64
	b.OnEnergy(func(j float64) { sunk += j })
	var waited, done sim.Time
	master(k, b, "m0", 0, 100, 0, func(w sim.Time) { // 1us
		waited, done = w, k.Now()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if waited != 0 {
		t.Fatalf("uncontended transfer waited %v", waited)
	}
	if done != 1*sim.Us {
		t.Fatalf("transfer completed at %v, want 1us", done)
	}
	if sunk != 100*DefaultConfig().EnergyPerWord {
		t.Fatal("word accounting wrong")
	}
}

func TestContentionSerializes(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "bus", DefaultConfig())
	var doneA, doneB sim.Time
	master(k, b, "a", 0, 100, 0, func(sim.Time) { doneA = k.Now() }) // holds 0..1us
	master(k, b, "b", 100*sim.Ns, 100, 0, func(w sim.Time) {         // arrives mid-transfer
		doneB = k.Now()
		if w <= 0 {
			t.Error("contended transfer reported zero wait")
		}
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if doneA != 1*sim.Us {
		t.Fatalf("a done at %v", doneA)
	}
	if doneB != 2*sim.Us {
		t.Fatalf("b done at %v, want serialized 2us", doneB)
	}
}

func TestOccupancy(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "bus", DefaultConfig())
	master(k, b, "m", 0, 100, 0, nil)         // busy 1us
	if err := k.Run(2 * sim.Us); err != nil { // then idle 1us
		t.Fatal(err)
	}
	if occ := b.Occupancy(); math.Abs(occ-0.5) > 0.01 {
		t.Fatalf("Occupancy = %v, want 0.5", occ)
	}
}

func TestEnergyAccounting(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	b := New(k, "bus", cfg)
	var sunk float64
	b.OnEnergy(func(j float64) { sunk += j })
	master(k, b, "m", 0, 1000, 0, nil)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	want := 1000 * cfg.EnergyPerWord
	if math.Abs(sunk-want) > 1e-18 {
		t.Fatalf("sunk %v, want %v", sunk, want)
	}
}

func TestQueueLength(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "bus", DefaultConfig())
	var maxQ int
	for i := 0; i < 4; i++ {
		master(k, b, "m", 0, 500, 0, nil)
	}
	k.Method("watch", func() {
		maxQ = max(maxQ, len(b.queue))
	}).Sensitive(b.released).DontInitialize()
	probe := k.NewEvent("probe")
	k.Method("p", func() {
		maxQ = max(maxQ, len(b.queue))
		if b.busy {
			probe.Notify(sim.Us)
		}
	}).Sensitive(probe)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if maxQ < 2 {
		t.Fatalf("max queue length %d, want >= 2 under contention", maxQ)
	}
}

func TestBadConfigPanics(t *testing.T) {
	k := sim.NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(k, "bus", Config{FreqHz: 0})
}

func TestZeroWordTransferNoop(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "bus", DefaultConfig())
	var sunk float64
	b.OnEnergy(func(j float64) { sunk += j })
	completed := false
	master(k, b, "m", 0, 0, 0, func(w sim.Time) {
		completed = true
		if w != 0 {
			t.Error("zero transfer waited")
		}
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if !completed || sunk != 0 {
		t.Fatalf("zero transfer: completed %v, %v J counted", completed, sunk)
	}
}

func TestPriorityArbitration(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Arbitration = PriorityOrder
	b := New(k, "bus", cfg)
	var order []string
	// m0 holds the bus; a low- then a high-priority master queue up while
	// it transfers. The high-priority one must win despite arriving later.
	log := func(name string) func(sim.Time) { return func(sim.Time) { order = append(order, name) } }
	master(k, b, "m0", 0, 200, 1, log("m0")) // holds 0..2us
	master(k, b, "low", 100*sim.Ns, 100, 9, log("low"))
	master(k, b, "high", 200*sim.Ns, 100, 2, log("high")) // arrives after "low"
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	want := []string{"m0", "high", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOIgnoresPriority(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "bus", DefaultConfig()) // FIFO
	var order []string
	log := func(name string) func(sim.Time) { return func(sim.Time) { order = append(order, name) } }
	master(k, b, "m0", 0, 200, 5, log("m0"))
	master(k, b, "first", 100*sim.Ns, 100, 9, log("first")) // worse priority, earlier request
	master(k, b, "second", 200*sim.Ns, 100, 1, log("second"))
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	want := []string{"m0", "first", "second"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPriorityTieBreaksFIFO(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Arbitration = PriorityOrder
	b := New(k, "bus", cfg)
	var order []string
	master(k, b, "m0", 0, 200, 1, nil)
	for i, name := range []string{"a", "b", "c"} {
		// Equal priorities, staggered requests: request order decides.
		master(k, b, name, 100*sim.Ns+sim.Time(i), 10, 3, func(sim.Time) { order = append(order, name) })
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}
