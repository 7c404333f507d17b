package sim

import (
	"testing"
	"testing/quick"
)

func TestClockEdges(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", 10*Ns)
	var posTimes, negTimes []Time
	k.Method("p", func() { posTimes = append(posTimes, k.Now()) }).
		Sensitive(clk.Posedge()).DontInitialize()
	k.Method("n", func() { negTimes = append(negTimes, k.Now()) }).
		Sensitive(clk.Negedge()).DontInitialize()
	if err := k.Run(35 * Ns); err != nil {
		t.Fatal(err)
	}
	// period 10ns: pos at 5,15,25,35; neg at 10,20,30.
	wantPos := []Time{5 * Ns, 15 * Ns, 25 * Ns, 35 * Ns}
	if len(posTimes) != len(wantPos) {
		t.Fatalf("posedges at %v, want %v", posTimes, wantPos)
	}
	for i := range wantPos {
		if posTimes[i] != wantPos[i] {
			t.Fatalf("posedges at %v, want %v", posTimes, wantPos)
		}
	}
	if len(negTimes) != 3 || negTimes[0] != 10*Ns {
		t.Fatalf("negedges at %v", negTimes)
	}
	if clk.Cycles() != 4 {
		t.Fatalf("Cycles() = %d, want 4", clk.Cycles())
	}
}

func TestClockLevelSignal(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", 4*Ns)
	if err := k.Run(2 * Ns); err != nil { // just past first posedge
		t.Fatal(err)
	}
	if !clk.Level().Read() {
		t.Fatal("clock level should be high after first posedge")
	}
	if err := k.Run(4 * Ns); err != nil { // past first negedge
		t.Fatal(err)
	}
	if clk.Level().Read() {
		t.Fatal("clock level should be low after negedge")
	}
}

func TestClockHaltDrainsQueue(t *testing.T) {
	k := NewKernel()
	clk := NewClock(k, "clk", 2*Ns)
	k.Method("halter", func() {
		if clk.Cycles() >= 5 {
			clk.Halt()
		}
	}).Sensitive(clk.Posedge()).DontInitialize()
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if clk.Cycles() < 5 || clk.Cycles() > 6 {
		t.Fatalf("Cycles() = %d after halt, want ~5", clk.Cycles())
	}
}

func TestClockBadPeriodPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for period < 2")
		}
	}()
	NewClock(k, "clk", 1)
}

func TestFifoThreadProducerConsumer(t *testing.T) {
	k := NewKernel()
	f := NewFifo[int](k, "f", 2)
	var got []int
	k.Thread("prod", func(c *Ctx) {
		for i := 1; i <= 10; i++ {
			f.Put(c, i)
			// Producer is faster than consumer: it must block on the full
			// FIFO rather than dropping items.
		}
	})
	k.Thread("cons", func(c *Ctx) {
		for i := 0; i < 10; i++ {
			c.WaitTime(3 * Ns)
			got = append(got, f.Get(c))
		}
	})
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("consumed %d items, want 10", len(got))
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got = %v, want 1..10 in order", got)
		}
	}
}

func TestFifoTryOps(t *testing.T) {
	k := NewKernel()
	f := NewFifo[string](k, "f", 1)
	if _, ok := f.TryGet(); ok {
		t.Fatal("TryGet on empty fifo succeeded")
	}
	if !f.TryPut("x") {
		t.Fatal("TryPut on empty fifo failed")
	}
	if f.TryPut("y") {
		t.Fatal("TryPut on full fifo succeeded")
	}
	v, ok := f.TryGet()
	if !ok || v != "x" {
		t.Fatalf("TryGet = %q,%v", v, ok)
	}
	if f.Len() != 0 || f.Cap() != 1 {
		t.Fatalf("Len=%d Cap=%d", f.Len(), f.Cap())
	}
}

func TestFifoZeroCapacityPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFifo[int](k, "f", 0)
}

func TestMutexExclusion(t *testing.T) {
	k := NewKernel()
	m := NewMutex(k, "m")
	inCrit := 0
	maxInCrit := 0
	worker := func(c *Ctx) {
		for i := 0; i < 5; i++ {
			m.Lock(c)
			inCrit++
			if inCrit > maxInCrit {
				maxInCrit = inCrit
			}
			c.WaitTime(2 * Ns)
			inCrit--
			m.Unlock(c)
			c.WaitTime(1 * Ns)
		}
	}
	k.Thread("w1", worker)
	k.Thread("w2", worker)
	k.Thread("w3", worker)
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if maxInCrit != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInCrit)
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	k := NewKernel()
	m := NewMutex(k, "m")
	var recovered bool
	k.Thread("a", func(c *Ctx) { m.Lock(c); c.WaitTime(10 * Ns); m.Unlock(c) })
	k.Thread("b", func(c *Ctx) {
		c.WaitTime(1 * Ns)
		defer func() {
			if recover() != nil {
				recovered = true
				panic(killError{name: "b"})
			}
		}()
		m.Unlock(c)
	})
	_ = k.Run(MaxTime)
	if !recovered {
		t.Fatal("Unlock by non-owner did not panic")
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	k := NewKernel()
	s := NewSemaphore(k, "s", 2)
	active, maxActive := 0, 0
	for i := 0; i < 6; i++ {
		k.Thread("w", func(c *Ctx) {
			s.Wait(c)
			active++
			if active > maxActive {
				maxActive = active
			}
			c.WaitTime(5 * Ns)
			active--
			s.Post()
		})
	}
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if maxActive != 2 {
		t.Fatalf("max active = %d, want 2", maxActive)
	}
}

func TestSemaphoreTryWait(t *testing.T) {
	k := NewKernel()
	s := NewSemaphore(k, "s", 1)
	if !s.TryWait() {
		t.Fatal("TryWait with count 1 failed")
	}
	if s.TryWait() {
		t.Fatal("TryWait with count 0 succeeded")
	}
	s.Post()
	if s.Value() != 1 {
		t.Fatalf("Value = %d, want 1", s.Value())
	}
}

// Property: a FIFO preserves order and loses nothing for any item count and
// capacity.
func TestFifoPropertyOrderPreserved(t *testing.T) {
	f := func(n uint8, capacity uint8) bool {
		items := int(n%100) + 1
		cp := int(capacity%8) + 1
		k := NewKernel()
		fifo := NewFifo[int](k, "f", cp)
		var got []int
		k.Thread("prod", func(c *Ctx) {
			for i := 0; i < items; i++ {
				fifo.Put(c, i)
			}
		})
		k.Thread("cons", func(c *Ctx) {
			for i := 0; i < items; i++ {
				got = append(got, fifo.Get(c))
			}
		})
		if err := k.Run(MaxTime); err != nil {
			return false
		}
		if len(got) != items {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
