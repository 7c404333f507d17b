package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"godpm/internal/sim"
)

// advance moves kernel time without other side effects.
func advance(t *testing.T, k *sim.Kernel, by sim.Time) {
	t.Helper()
	e := k.NewEvent("adv")
	e.Notify(by)
	if err := k.Run(k.Now() + by); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyMeterPiecewise(t *testing.T) {
	k := sim.NewKernel()
	m := NewEnergyMeter(k, "total")
	m.SetPower(2.0)
	advance(t, k, 3*sim.Sec) // 6 J
	m.SetPower(0.5)
	advance(t, k, 4*sim.Sec) // 2 J
	m.SetPower(0)
	advance(t, k, 10*sim.Sec) // 0 J
	if got := m.EnergyJ(); math.Abs(got-8.0) > 1e-9 {
		t.Fatalf("EnergyJ = %v, want 8", got)
	}
}

func TestEnergyMeterAddPowerAndEnergy(t *testing.T) {
	k := sim.NewKernel()
	m := NewEnergyMeter(k, "m")
	m.SetPower(1.5)
	if m.Power() != 1.5 {
		t.Fatalf("Power = %v", m.Power())
	}
	advance(t, k, 2*sim.Sec) // 3 J
	m.SetPower(0)
	m.AddEnergy(0.25)
	if got := m.EnergyJ(); math.Abs(got-3.25) > 1e-9 {
		t.Fatalf("EnergyJ = %v, want 3.25", got)
	}
}

func TestEnergyMeterIdempotentRead(t *testing.T) {
	k := sim.NewKernel()
	m := NewEnergyMeter(k, "m")
	m.SetPower(1)
	advance(t, k, sim.Sec)
	a := m.EnergyJ()
	b := m.EnergyJ()
	if a != b {
		t.Fatalf("consecutive reads differ: %v vs %v", a, b)
	}
}

func TestSeriesTimeWeightedMean(t *testing.T) {
	var s Series
	s.Add(0, 10)
	s.Add(2*sim.Sec, 20)          // 10 holds for 2 s
	s.Add(3*sim.Sec, 0)           // 20 holds for 1 s
	m := s.MeanUntil(4 * sim.Sec) // 0 holds for 1 s
	want := (10*2 + 20*1 + 0*1) / 4.0
	if math.Abs(m-want) > 1e-9 {
		t.Fatalf("MeanUntil = %v, want %v", m, want)
	}
}

// last is a series' most recent value (0 when empty).
func last(s *Series) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.vals[len(s.vals)-1]
}

func TestSeriesStats(t *testing.T) {
	var s Series
	if s.Max() != 0 || s.Min() != 0 || last(&s) != 0 {
		t.Fatal("empty series stats should be 0")
	}
	s.Add(0, 5)
	s.Add(sim.Sec, -2)
	s.Add(2*sim.Sec, 7)
	if s.Max() != 7 || s.Min() != -2 || last(&s) != 7 || s.Len() != 3 {
		t.Fatalf("Max=%v Min=%v Last=%v Len=%d", s.Max(), s.Min(), last(&s), s.Len())
	}
}

func TestSeriesRejectsTimeTravel(t *testing.T) {
	var s Series
	s.Add(sim.Sec, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Add(0, 2)
}

func TestSeriesSingleSample(t *testing.T) {
	var s Series
	s.Add(5*sim.Sec, 42)
	if got := s.MeanUntil(5 * sim.Sec); got != 42 {
		t.Fatalf("MeanUntil with zero span = %v, want the value itself", got)
	}
	if got := s.MeanUntil(10 * sim.Sec); math.Abs(got-42) > 1e-9 {
		t.Fatalf("MeanUntil = %v, want 42", got)
	}
}

func TestDelayOverhead(t *testing.T) {
	var base, dpm Ledger
	// Task 1: base 10ms, dpm 40ms → +300%. Task 2: base 10ms, dpm 10ms → 0%.
	base.Add(TaskRecord{IP: "ip0", TaskID: 1, Request: 0, Done: 10 * sim.Ms})
	base.Add(TaskRecord{IP: "ip0", TaskID: 2, Request: 0, Done: 10 * sim.Ms})
	dpm.Add(TaskRecord{IP: "ip0", TaskID: 1, Request: 0, Done: 40 * sim.Ms})
	dpm.Add(TaskRecord{IP: "ip0", TaskID: 2, Request: 0, Done: 10 * sim.Ms})
	got, err := DelayOverheadPct(&base, &dpm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-150) > 1e-9 {
		t.Fatalf("DelayOverheadPct = %v, want 150", got)
	}
}

func TestDelayOverheadUnmatchedTasksIgnored(t *testing.T) {
	var base, dpm Ledger
	base.Add(TaskRecord{IP: "ip0", TaskID: 1, Request: 0, Done: 10 * sim.Ms})
	dpm.Add(TaskRecord{IP: "ip0", TaskID: 1, Request: 0, Done: 20 * sim.Ms})
	dpm.Add(TaskRecord{IP: "ip1", TaskID: 9, Request: 0, Done: 99 * sim.Ms}) // no base twin
	got, err := DelayOverheadPct(&base, &dpm)
	if err != nil || math.Abs(got-100) > 1e-9 {
		t.Fatalf("got %v,%v want 100", got, err)
	}
}

func TestDelayOverheadErrors(t *testing.T) {
	var a, b Ledger
	if _, err := DelayOverheadPct(&a, &b); err == nil {
		t.Fatal("empty ledgers accepted")
	}
	a.Add(TaskRecord{IP: "x", TaskID: 1, Request: 5 * sim.Ms, Done: 5 * sim.Ms})
	b.Add(TaskRecord{IP: "x", TaskID: 1, Request: 0, Done: sim.Ms})
	if _, err := DelayOverheadPct(&a, &b); err == nil {
		t.Fatal("zero baseline service accepted")
	}
}

func TestEnergySaving(t *testing.T) {
	got, err := EnergySavingPct(10, 4.5)
	if err != nil || math.Abs(got-55) > 1e-9 {
		t.Fatalf("EnergySavingPct = %v,%v want 55", got, err)
	}
	if _, err := EnergySavingPct(0, 1); err == nil {
		t.Fatal("zero baseline accepted")
	}
	// Negative saving (DPM worse) is legal and reported as such.
	got, _ = EnergySavingPct(10, 12)
	if got >= 0 {
		t.Fatalf("worse DPM should yield negative saving, got %v", got)
	}
}

func TestTempReduction(t *testing.T) {
	// base 80 °C, dpm 60 °C → (80−60)/80 = 25 % on the absolute scale.
	got, err := TempReductionPct(80, 60, 45)
	if err != nil || math.Abs(got-25) > 1e-9 {
		t.Fatalf("TempReductionPct = %v,%v want 25", got, err)
	}
	if _, err := TempReductionPct(45, 50, 45); err == nil {
		t.Fatal("baseline at ambient accepted")
	}
	// A hotter DPM run yields a negative reduction, reported as such.
	got, _ = TempReductionPct(60, 72, 45)
	if got >= 0 {
		t.Fatalf("hotter DPM should yield negative reduction, got %v", got)
	}
}

func TestTaskRecordService(t *testing.T) {
	r := TaskRecord{Request: 2 * sim.Ms, Start: 3 * sim.Ms, Done: 7 * sim.Ms}
	if r.Service() != 5*sim.Ms {
		t.Fatalf("Service = %v, want 5ms", r.Service())
	}
}

// Property: meter energy equals the hand-computed sum for random power
// schedules.
func TestEnergyMeterProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		if len(steps) == 0 || len(steps) > 40 {
			return true
		}
		k := sim.NewKernel()
		m := NewEnergyMeter(k, "m")
		var want float64
		for _, s := range steps {
			p := float64(s%50) / 10
			d := sim.Time(s%7+1) * sim.Ms
			m.SetPower(p)
			e := k.NewEvent("a")
			e.Notify(d)
			if err := k.Run(k.Now() + d); err != nil {
				return false
			}
			want += p * d.Seconds()
		}
		return math.Abs(m.EnergyJ()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// ---- TimeWeighted (streaming accumulator) ----

// TestTimeWeightedMatchesSeries feeds identical random samples to the
// streaming accumulator and the retained Series and requires bit-identical
// statistics: the accountant rewrite in internal/soc leans on this
// equivalence to keep simulation results byte-stable.
func TestTimeWeightedMatchesSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var s Series
		var w TimeWeighted
		now := sim.Time(0)
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			v := rng.Float64()*100 - 20
			s.Add(now, v)
			w.Add(now, v)
			now += sim.Time(rng.Intn(3)) * sim.Us // sometimes zero: repeated instants
		}
		end := now + sim.Time(rng.Intn(5))*sim.Us
		if got, want := w.MeanUntil(end), s.MeanUntil(end); got != want {
			t.Fatalf("trial %d: streaming mean %v != series mean %v", trial, got, want)
		}
		if got, want := w.Max(), s.Max(); got != want {
			t.Fatalf("trial %d: streaming max %v != series max %v", trial, got, want)
		}
		if got, want := w.Min(), s.Min(); got != want {
			t.Fatalf("trial %d: streaming min %v != series min %v", trial, got, want)
		}
		if got, want := w.lastV, last(&s); got != want {
			t.Fatalf("trial %d: streaming last %v != series last %v", trial, got, want)
		}
		if w.Len() != s.Len() {
			t.Fatalf("trial %d: streaming len %d != series len %d", trial, w.Len(), s.Len())
		}
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var w TimeWeighted
	if w.MeanUntil(sim.Sec) != 0 || w.Max() != 0 || w.Min() != 0 || w.lastV != 0 || w.Len() != 0 {
		t.Errorf("empty accumulator must report zeros, got mean=%v max=%v min=%v last=%v len=%d",
			w.MeanUntil(sim.Sec), w.Max(), w.Min(), w.lastV, w.Len())
	}
}

func TestTimeWeightedSingleInstant(t *testing.T) {
	var w TimeWeighted
	w.Add(sim.Us, 3)
	w.Add(sim.Us, 9) // same instant: first value defines the zero-span mean
	if got := w.MeanUntil(sim.Us); got != 3 {
		t.Errorf("zero-span mean = %v, want first value 3", got)
	}
	if got := w.MeanUntil(2 * sim.Us); got != 9 {
		t.Errorf("extended mean = %v, want last value 9", got)
	}
}

func TestTimeWeightedNonDecreasing(t *testing.T) {
	var w TimeWeighted
	w.Add(sim.Ms, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on decreasing time")
		}
	}()
	w.Add(sim.Us, 2)
}
