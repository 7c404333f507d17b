package chaos

import (
	"errors"
	"sync"
	"testing"
	"time"

	"godpm/internal/engine"
	"godpm/internal/soc"
	"godpm/internal/workload"
)

var busySpec = Spec{
	PLatency: 0.2, MaxLatency: time.Millisecond,
	PTransient: 0.15, PPermanent: 0.05, PCorrupt: 0.1, PTorn: 0.1,
	OutageStart: 20, OutageLen: 5,
}

// TestInjectorDeterministic: the schedule is a pure function of
// (seed, spec) — two injectors replay it identically, and a different
// seed produces a different one.
func TestInjectorDeterministic(t *testing.T) {
	seed := workload.NewSeed(42)
	a := NewInjector(seed, busySpec)
	b := NewInjector(seed, busySpec)
	other := NewInjector(seed.Split("other"), busySpec)
	const n = 200
	diff := 0
	for i := 0; i < n; i++ {
		da, db, do := a.Next(), b.Next(), other.Next()
		if da != db {
			t.Fatalf("op %d: same seed diverged: %+v vs %+v", i, da, db)
		}
		if da != do {
			diff++
		}
	}
	if diff == 0 {
		t.Fatalf("distinct seeds produced identical %d-op schedules", n)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestInjectorConcurrentDecisionsMatchSerial: under concurrency the set
// of decisions handed out is exactly the serial schedule — op k's
// decision depends only on k, never on which goroutine drew it.
func TestInjectorConcurrentDecisionsMatchSerial(t *testing.T) {
	seed := workload.NewSeed(7)
	const n = 256
	want := make(map[Decision]int)
	serial := NewInjector(seed, busySpec)
	for i := 0; i < n; i++ {
		want[serial.Next()]++
	}

	conc := NewInjector(seed, busySpec)
	var (
		mu  sync.Mutex
		got = make(map[Decision]int)
		wg  sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				d := conc.Next()
				mu.Lock()
				got[d]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(got) != len(want) {
		t.Fatalf("decision multisets differ: %d vs %d distinct", len(got), len(want))
	}
	for d, c := range want {
		if got[d] != c {
			t.Fatalf("decision %+v drawn %d times concurrently, %d serially", d, got[d], c)
		}
	}
}

// TestOutageWindow: ops inside [OutageStart, OutageStart+OutageLen) all
// fail transiently, unconditionally — the deterministic window breaker
// tests rely on.
func TestOutageWindow(t *testing.T) {
	spec := Spec{OutageStart: 3, OutageLen: 4}
	in := NewInjector(workload.NewSeed(1), spec)
	for k := 0; k < 10; k++ {
		d := in.Next()
		inWindow := k >= 3 && k < 7
		if inWindow && d.Fault != FaultTransient {
			t.Fatalf("op %d inside outage got %v, want transient", k, d.Fault)
		}
		if !inWindow && d.Fault != FaultNone {
			t.Fatalf("op %d outside outage got %v (zero probabilities)", k, d.Fault)
		}
	}
	if st := in.Stats(); st.Outage != 4 || st.Transients != 4 {
		t.Fatalf("stats = %+v, want 4 outage transients", st)
	}
}

// TestPlanHash: equal plans hash equal; any field change moves the hash.
func TestPlanHash(t *testing.T) {
	a := DefaultPlan(workload.NewSeed(9))
	if a.Hash() != DefaultPlan(workload.NewSeed(9)).Hash() {
		t.Fatal("equal plans hash differently")
	}
	b := DefaultPlan(workload.NewSeed(10))
	if a.Hash() == b.Hash() {
		t.Fatal("different seeds hash equal")
	}
	c := a
	c.FS.PTorn = 0.5
	if a.Hash() == c.Hash() {
		t.Fatal("changed spec hashes equal")
	}
}

// TestTierFaultsAreMissesAndErrors: the tier wrapper maps every fault
// onto the tier contract — Get misses, Put errors — and never lets a
// fault fabricate or mutate a value.
func TestTierFaultsAreMissesAndErrors(t *testing.T) {
	inner := engine.NewLRU(engine.LRUOptions{})
	key := "00112233445566778899aabbccddeeff"
	res := &soc.Result{EnergyJ: 1.5, Completed: true}
	rec, err := engine.NewRecord(key, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Put(key, rec); err != nil {
		t.Fatal(err)
	}

	// A spec that always faults: every op lands in the outage window.
	always := Spec{OutageStart: 0, OutageLen: 1 << 30}
	tier := NewTier(inner, workload.NewSeed(5), always)
	if _, ok := tier.Get(key); ok {
		t.Fatal("faulted Get hit")
	}
	if err := tier.Put(key, rec); err == nil {
		t.Fatal("faulted Put returned nil")
	} else if !errors.Is(err, ErrInjected) {
		t.Fatalf("faulted Put error %v does not wrap ErrInjected", err)
	}
	// Faults never reached the inner cache's contents.
	if got, ok := inner.Get(key); !ok || got.Digest() != engine.ResultDigest(res) {
		t.Fatal("inner cache entry disturbed by faulted ops")
	}

	// A zero spec is transparent.
	clear := NewTier(inner, workload.NewSeed(5), Spec{})
	if got, ok := clear.Get(key); !ok || got.Digest() != engine.ResultDigest(res) {
		t.Fatal("clear tier did not pass the entry through")
	}
	if !clear.Has(key) {
		t.Fatal("Has not forwarded")
	}
	if st := clear.Stats(); st.Tier != engine.TierMemory || st.Entries != 1 {
		t.Fatalf("Stats not forwarded: %+v", st)
	}

	gs, ps := tier.get.Stats(), tier.put.Stats()
	if gs.Ops != 1 || ps.Ops != 1 || gs.Transients != 1 || ps.Transients != 1 {
		t.Fatalf("injector stats = get %+v put %+v, want 1 transient op each", gs, ps)
	}
}
