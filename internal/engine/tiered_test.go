package engine_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"godpm/internal/engine"
	"godpm/internal/soc"
)

// gatedCache wraps an LRU whose Puts block until released, to hold the
// write-behind writer still while a test fills the queue.
type gatedCache struct {
	inner *engine.LRU
	gate  chan struct{}
	once  sync.Once
}

func newGatedCache() *gatedCache {
	return &gatedCache{inner: engine.NewLRU(engine.LRUOptions{}), gate: make(chan struct{})}
}

func (g *gatedCache) release() { g.once.Do(func() { close(g.gate) }) }

func (g *gatedCache) Get(key string) (*engine.Record, bool) { return g.inner.Get(key) }

func (g *gatedCache) Put(key string, rec *engine.Record) error {
	<-g.gate
	return g.inner.Put(key, rec)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func testKey(b byte) string { return strings.Repeat(string([]byte{b}), 64) }

// recFor wraps a result into a record, panicking on the (impossible)
// marshal failure — usable from non-test goroutines.
func recFor(key string, r *soc.Result) *engine.Record {
	rec, err := engine.NewRecord(key, r)
	if err != nil {
		panic(err)
	}
	return rec
}

func TestTieredPromotesDeeperHits(t *testing.T) {
	fast := engine.NewLRU(engine.LRUOptions{})
	slow := engine.NewLRU(engine.LRUOptions{})
	tiered := engine.NewTiered(
		engine.Tier{Cache: fast, Name: "fast"},
		engine.Tier{Cache: slow, Name: "slow"},
	)
	defer tiered.Close()

	key := testKey('a')
	if err := slow.Put(key, recFor(key, &soc.Result{EnergyJ: 42})); err != nil {
		t.Fatal(err)
	}
	got, ok := tiered.Get(key)
	if !ok || energyHit(t, got) != 42 {
		t.Fatalf("Get = %v, %v; want the slow tier's entry", got, ok)
	}
	if !fast.Has(key) {
		t.Fatalf("deeper hit was not promoted into the fast tier")
	}
	if hits := slow.TierStats()[0].Hits; hits != 1 {
		t.Fatalf("slow tier served %d hits, want 1", hits)
	}
	// Once promoted, the entry is served by the fast tier alone.
	if _, ok := tiered.Get(key); !ok {
		t.Fatal("second Get missed")
	}
	if hits := slow.TierStats()[0].Hits; hits != 1 {
		t.Fatalf("slow tier served %d hits after the promotion, want still 1", hits)
	}
	if hits := fast.TierStats()[0].Hits; hits != 1 {
		t.Fatalf("fast tier served %d hits, want 1", hits)
	}
}

func TestTieredWriteBehindDelivers(t *testing.T) {
	local := engine.NewLRU(engine.LRUOptions{})
	behind := engine.NewLRU(engine.LRUOptions{})
	tiered := engine.NewTiered(
		engine.Tier{Cache: local, Name: "local"},
		engine.Tier{Cache: behind, Name: "behind", AsyncPut: true},
	)
	defer tiered.Close()

	key := testKey('b')
	if err := tiered.Put(key, recFor(key, &soc.Result{EnergyJ: 1})); err != nil {
		t.Fatal(err)
	}
	if !local.Has(key) {
		t.Fatalf("synchronous tier missing the entry immediately after Put")
	}
	waitFor(t, "write-behind delivery", func() bool { return behind.Has(key) })
}

func TestTieredWriteBehindDropsWhenFull(t *testing.T) {
	gated := newGatedCache()
	tiered := engine.NewTieredWith(engine.TieredOptions{QueueLen: 1},
		engine.Tier{Cache: engine.NewLRU(engine.LRUOptions{}), Name: "local"},
		engine.Tier{Cache: gated, Name: "gated", AsyncPut: true},
	)

	// First Put is picked up by the writer and blocks on the gate; the
	// second fills the queue; the rest must be dropped without blocking.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 6; i++ {
			k := testKey(byte('a' + i))
			tiered.Put(k, recFor(k, &soc.Result{}))
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("Put blocked on a full write-behind queue")
	}
	waitFor(t, "drops recorded", func() bool {
		for _, ts := range tiered.TierStats() {
			if ts.Tier == "gated" && ts.PutDrops >= 3 {
				return true
			}
		}
		return false
	})
	gated.release()
	tiered.Close()
}

func TestTieredCloseFlushesQueue(t *testing.T) {
	gated := newGatedCache()
	tiered := engine.NewTieredWith(engine.TieredOptions{QueueLen: 16},
		engine.Tier{Cache: engine.NewLRU(engine.LRUOptions{}), Name: "local"},
		engine.Tier{Cache: gated, Name: "gated", AsyncPut: true},
	)
	keys := []string{testKey('1'), testKey('2'), testKey('3'), testKey('4')}
	for _, k := range keys {
		if err := tiered.Put(k, recFor(k, &soc.Result{})); err != nil {
			t.Fatal(err)
		}
	}
	gated.release()
	if err := tiered.Close(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, ok := gated.Get(k); !ok {
			t.Fatalf("entry %s... not flushed by Close", k[:8])
		}
	}
}

func TestTieredWarmPromotesPresentKeys(t *testing.T) {
	local := engine.NewLRU(engine.LRUOptions{})
	deep := engine.NewLRU(engine.LRUOptions{})
	// statingCache gives the deep tier a batched existence probe, as the
	// remote tier would.
	tiered := engine.NewTiered(
		engine.Tier{Cache: local, Name: "local"},
		engine.Tier{Cache: statingCache{deep}, Name: "deep"},
	)
	defer tiered.Close()

	present := []string{testKey('a'), testKey('b'), testKey('c')}
	for _, k := range present {
		if err := deep.Put(k, recFor(k, &soc.Result{EnergyJ: 7})); err != nil {
			t.Fatal(err)
		}
	}
	absent := testKey('d')
	fetched := tiered.Warm(context.Background(), append(append([]string{}, present...), absent))
	if fetched != len(present) {
		t.Fatalf("Warm fetched %d entries, want %d", fetched, len(present))
	}
	for _, k := range present {
		if !local.Has(k) {
			t.Fatalf("warmed key %s... not promoted into the local tier", k[:8])
		}
	}
	if local.Has(absent) {
		t.Fatalf("absent key appeared in the local tier")
	}
	// A second warm has nothing left to do.
	if again := tiered.Warm(context.Background(), present); again != 0 {
		t.Fatalf("second Warm fetched %d entries, want 0", again)
	}
}

// statingCache adds a Stat method to an LRU so Warm treats it as a
// remote-style tier.
type statingCache struct{ *engine.LRU }

func (s statingCache) Stat(_ context.Context, keys []string) (map[string]bool, error) {
	out := make(map[string]bool)
	for _, k := range keys {
		if s.LRU.Has(k) {
			out[k] = true
		}
	}
	return out, nil
}

func TestTieredGetLocalSkipsRemoteStyleTiers(t *testing.T) {
	local := engine.NewLRU(engine.LRUOptions{})
	deep := engine.NewLRU(engine.LRUOptions{})
	tiered := engine.NewTiered(
		engine.Tier{Cache: local, Name: "local"},
		engine.Tier{Cache: statingCache{deep}, Name: "deep"},
	)
	defer tiered.Close()

	key := testKey('e')
	if err := deep.Put(key, recFor(key, &soc.Result{})); err != nil {
		t.Fatal(err)
	}
	if _, ok := tiered.GetLocal(key); ok {
		t.Fatalf("GetLocal hit through the remote-style tier")
	}
	if _, ok := tiered.Get(key); !ok {
		t.Fatalf("full Get missed the deep entry")
	}
	if _, ok := tiered.GetLocal(key); !ok {
		t.Fatalf("GetLocal missed after promotion")
	}
}

func TestTieredStatsFlatten(t *testing.T) {
	disk, err := engine.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stub := newGatedCache() // not a TierStatsReporter → named stub entry
	stub.release()
	tiered := engine.NewTiered(
		engine.Tier{Cache: disk},
		engine.Tier{Cache: stub, Name: "stub"},
	)
	defer tiered.Close()

	key := testKey('f')
	if err := tiered.Put(key, recFor(key, &soc.Result{})); err != nil {
		t.Fatal(err)
	}
	if _, ok := tiered.Get(key); !ok {
		t.Fatal("Get missed")
	}
	var names []string
	for _, ts := range tiered.TierStats() {
		names = append(names, ts.Tier)
	}
	want := []string{engine.TierMemory, engine.TierDisk, "stub"}
	if len(names) != len(want) {
		t.Fatalf("TierStats tiers = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("TierStats tiers = %v, want %v", names, want)
		}
	}
	st := tiered.CacheStats()
	if st.Entries != 1 {
		t.Fatalf("CacheStats.Entries = %d, want 1 (the disk tier's)", st.Entries)
	}
}
