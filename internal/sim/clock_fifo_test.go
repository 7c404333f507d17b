package sim

import (
	"fmt"
	"math"
	"math/rand"
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

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0s"},
		{1, "1ps"},
		{-1, "-1ps"},
		{5 * Ns, "5ns"},
		{1500 * Ps, "1.5ns"},
		{2 * Us, "2us"},
		{3 * Ms, "3ms"},
		{1 * Sec, "1s"},
		{-5 * Ns, "-5ns"},
		// A fraction in every unit, trailing zeros trimmed.
		{1001 * Ps, "1.001ns"},
		{2500 * Ns, "2.5us"},
		{-2500 * Ns, "-2.5us"},
		{1250 * Us, "1.25ms"},
		{1500 * Ms, "1.5s"},
		{Sec + Ps, "1.000000000001s"},
		// Exact unit boundaries and one tick either side.
		{Ns - 1, "999ps"},
		{Ns, "1ns"},
		{Ns + 1, "1.001ns"},
		{Us - 1, "999.999ns"},
		{Us, "1us"},
		{Ms, "1ms"},
		{Sec - 1, "999.999999999ms"},
		{Sec, "1s"},
		{-Sec, "-1s"},
		{3600 * Sec, "3600s"},
		// The extremes: MaxTime is no whole number of any unit above ps;
		// MinInt64's magnitude does not fit in int64 but renders with one
		// sign like every other negative time.
		{MaxTime, "9.223372036854776e+06s"},
		{-MaxTime, "-9.223372036854776e+06s"},
		{math.MinInt64, "-9.223372036854776e+06s"},
		{9223372 * Sec, "9223372s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
		if got := string(c.t.Append([]byte("x="))); got != "x="+c.want {
			t.Errorf("Time(%d).Append = %q, want %q", int64(c.t), got, "x="+c.want)
		}
	}
}

// refTimeString is String as first written with fmt (its only defect:
// MinInt64 rendered with two minus signs). The appender must agree with
// it on every other value.
func refTimeString(t Time) string {
	if t == 0 {
		return "0s"
	}
	neg := ""
	if t < 0 {
		neg = "-"
		t = -t
	}
	units := []struct {
		div  Time
		name string
	}{{Sec, "s"}, {Ms, "ms"}, {Us, "us"}, {Ns, "ns"}, {Ps, "ps"}}
	for _, u := range units {
		if t >= u.div {
			if t%u.div == 0 {
				return fmt.Sprintf("%s%d%s", neg, t/u.div, u.name)
			}
			return fmt.Sprintf("%s%g%s", neg, float64(t)/float64(u.div), u.name)
		}
	}
	return fmt.Sprintf("%s%dps", neg, t)
}

func TestTimeStringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	units := []Time{Ps, Ns, Us, Ms, Sec}
	for i := 0; i < 200000; i++ {
		var v Time
		switch i % 5 {
		case 0:
			v = Time(rng.Uint64())
		case 1:
			v = units[rng.Intn(len(units))] * Time(rng.Int63n(1<<20)-1<<19)
		case 2:
			v = Time(rng.Int63n(1<<40) - 1<<39)
		case 3:
			// Fractional seconds with up to 16 significant digits, where
			// the exact decimal and the float64 quotient part ways.
			v = Time(rng.Int63n(1 << 53))
		default:
			// Around 2⁵³ ps, where float64 stops representing every value,
			// and around 10⁶ s, where 'g' switches to an exponent.
			centre := []Time{1 << 53, 1e6 * Sec}[rng.Intn(2)]
			v = centre + Time(rng.Int63n(1<<20)-1<<19)
		}
		if v == math.MinInt64 {
			continue
		}
		if got, want := v.String(), refTimeString(v); got != want {
			t.Fatalf("Time(%d).String() = %q, reference %q", int64(v), got, want)
		}
	}
}

func TestTimeStringAllocs(t *testing.T) {
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = (1500 * Ps).String() }); n > 1 {
		t.Errorf("String allocates %.0f times, want ≤ 1", n)
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = (1500 * Ps).Append(buf[:0]) }); n != 0 {
		t.Errorf("Append allocates %.0f times, want 0", n)
	}
	_ = sink
}

func TestTimeSecondsRoundTrip(t *testing.T) {
	f := func(ms uint16) bool {
		tm := Time(ms) * Ms
		return FromSeconds(tm.Seconds()) == tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
