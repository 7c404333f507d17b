package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"godpm/internal/soc"
)

// fakeKey builds a realistic (hex, uniformly distributed) cache key.
func fakeKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

// fakeRecord builds a record whose MemSize is controlled by the number
// of per-IP energy entries (they grow the canonical JSON).
func fakeRecord(t testing.TB, key string, id float64, mapEntries int) *Record {
	t.Helper()
	r := &soc.Result{EnergyJ: id}
	if mapEntries > 0 {
		r.EnergyByIP = make(map[string]float64, mapEntries)
		for i := 0; i < mapEntries; i++ {
			r.EnergyByIP[fmt.Sprintf("ip%d", i)] = id
		}
	}
	rec, err := NewRecord(key, r)
	if err != nil {
		t.Fatalf("NewRecord: %v", err)
	}
	return rec
}

// energyOf reads the decoded result's EnergyJ (the test's value tag).
func energyOf(t testing.TB, rec *Record) float64 {
	t.Helper()
	r, err := rec.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	return r.EnergyJ
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU(LRUOptions{MaxEntries: 4, Shards: 1})
	for i := 1; i <= 4; i++ {
		c.Put(fakeKey(i), fakeRecord(t, fakeKey(i), float64(i), 0))
	}
	// Refresh key 1: key 2 becomes the least recently used.
	if _, ok := c.Get(fakeKey(1)); !ok {
		t.Fatal("key 1 missing before overflow")
	}
	c.Put(fakeKey(5), fakeRecord(t, fakeKey(5), 5, 0))

	if _, ok := c.Get(fakeKey(2)); ok {
		t.Fatal("key 2 survived: eviction did not pick the least recently used")
	}
	for _, want := range []int{1, 3, 4, 5} {
		if _, ok := c.Get(fakeKey(want)); !ok {
			t.Fatalf("key %d evicted, want only key 2 gone", want)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 4 {
		t.Fatalf("stats %+v, want 1 eviction, 4 entries", st)
	}
}

// TestLRUHoldsEntryCapUnderDistinctStream is the unbounded-growth fix
// pinned at cache level: a stream of 10k distinct fingerprints against a
// 256-entry cache must stay at ≤256 entries with the overflow evicted.
func TestLRUHoldsEntryCapUnderDistinctStream(t *testing.T) {
	const capN, stream = 256, 10_000
	c := NewLRU(LRUOptions{MaxEntries: capN})
	for i := 0; i < stream; i++ {
		c.Put(fakeKey(i), fakeRecord(t, fakeKey(i), float64(i), 2))
		if n := c.Len(); n > capN {
			t.Fatalf("after %d puts: %d entries > cap %d", i+1, n, capN)
		}
	}
	st := c.Stats()
	if st.Entries > capN {
		t.Fatalf("final occupancy %d > cap %d", st.Entries, capN)
	}
	if st.Evictions < stream-capN {
		t.Fatalf("evictions %d, want ≥ %d", st.Evictions, stream-capN)
	}
	// The survivors are a suffix of the stream (all keys distinct, so
	// recency order is insertion order).
	for i := stream - 64; i < stream; i++ {
		if _, ok := c.Get(fakeKey(i)); !ok {
			t.Fatalf("recently inserted key %d was evicted", i)
		}
	}
}

// modelLRU is a naive reference implementation: a recency-ordered slice
// with the same entry/byte budgets as a single-shard LRU. Its byte
// accounting is exact by construction — a sum over live entries'
// Record.MemSize — which is precisely the invariant the real cache now
// claims.
type modelLRU struct {
	keys       []string // most recent first
	vals       map[string]*Record
	maxEntries int
	maxBytes   int64
	evictions  int64
}

// bytes recomputes the accounted total from scratch: the sum of live
// records' sizes, never an incrementally-maintained counter — so any
// drift in the real cache's running sum (e.g. shrink underflow in the
// update path) diverges from this immediately.
func (m *modelLRU) bytes() int64 {
	var n int64
	for _, rec := range m.vals {
		n += rec.MemSize()
	}
	return n
}

func (m *modelLRU) touch(key string) {
	for i, k := range m.keys {
		if k == key {
			m.keys = append(m.keys[:i], m.keys[i+1:]...)
			break
		}
	}
	m.keys = append([]string{key}, m.keys...)
}

func (m *modelLRU) get(key string) (*Record, bool) {
	r, ok := m.vals[key]
	if ok {
		m.touch(key)
	}
	return r, ok
}

func (m *modelLRU) put(key string, rec *Record) {
	m.vals[key] = rec
	m.touch(key)
	for len(m.keys) > m.maxEntries || (m.maxBytes > 0 && m.bytes() > m.maxBytes && len(m.keys) > 1) {
		last := m.keys[len(m.keys)-1]
		m.keys = m.keys[:len(m.keys)-1]
		delete(m.vals, last)
		m.evictions++
	}
}

// TestLRUMatchesModel drives a single-shard LRU and a naive reference
// through the same random op stream (gets, puts of varying sizes,
// re-puts that grow AND shrink entries) and requires identical
// membership, occupancy, byte accounting and eviction counts after every
// op. Because the model recomputes bytes as Σ MemSize over live records
// each step, equality here is the "accounted bytes == sum of live record
// sizes" invariant — exact accounting, no drift, no shrink underflow.
func TestLRUMatchesModel(t *testing.T) {
	const (
		maxEntries = 16
		maxBytes   = 24 * 1024
		keySpace   = 64
		ops        = 3_000
	)
	c := NewLRU(LRUOptions{MaxEntries: maxEntries, MaxBytes: maxBytes, Shards: 1})
	m := &modelLRU{
		vals:       make(map[string]*Record),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
	rng := rand.New(rand.NewSource(42))
	for op := 0; op < ops; op++ {
		key := fakeKey(rng.Intn(keySpace))
		if rng.Intn(3) == 0 {
			gr, gok := c.Get(key)
			mr, mok := m.get(key)
			if gok != mok {
				t.Fatalf("op %d: Get(%s…) ok=%v, model says %v", op, key[:8], gok, mok)
			}
			if gok && energyOf(t, gr) != energyOf(t, mr) {
				t.Fatalf("op %d: Get returned wrong value", op)
			}
		} else {
			rec := fakeRecord(t, key, float64(op), rng.Intn(40))
			c.Put(key, rec)
			m.put(key, rec)
		}
		st := c.Stats()
		if st.Entries != int64(len(m.vals)) || st.Bytes != m.bytes() || st.Evictions != m.evictions {
			t.Fatalf("op %d: stats %+v diverge from model entries=%d bytes=%d evictions=%d",
				op, st, len(m.vals), m.bytes(), m.evictions)
		}
		if st.Bytes > maxBytes && st.Entries > 1 {
			t.Fatalf("op %d: byte cap violated: %d > %d with %d entries", op, st.Bytes, maxBytes, st.Entries)
		}
	}
}

// TestLRUUpdateAccountingShrink audits the update path's signed delta
// (bytes += size - old.size): re-putting a key with a much smaller
// record must credit the difference back exactly — never underflow,
// never leak — across many grow/shrink cycles.
func TestLRUUpdateAccountingShrink(t *testing.T) {
	c := NewLRU(LRUOptions{MaxEntries: 8, Shards: 1})
	key := fakeKey(1)
	small := fakeRecord(t, key, 1, 0)
	big := fakeRecord(t, key, 1, 200)
	if big.MemSize() <= small.MemSize() {
		t.Fatalf("test setup: big record (%d) not bigger than small (%d)", big.MemSize(), small.MemSize())
	}
	for i := 0; i < 100; i++ {
		c.Put(key, big)
		c.Put(key, small)
		if st := c.Stats(); st.Bytes != small.MemSize() {
			t.Fatalf("cycle %d: accounted %d bytes, want exactly the live record's %d", i, st.Bytes, small.MemSize())
		}
		if st := c.Stats(); st.Bytes < 0 {
			t.Fatalf("cycle %d: accounting underflowed to %d", i, st.Bytes)
		}
	}
	// Drop the only entry via entry-cap pressure and the account returns
	// to the exact sum over live records.
	var sum int64
	for i := 2; i <= 9; i++ {
		rec := fakeRecord(t, fakeKey(i), float64(i), i)
		c.Put(fakeKey(i), rec)
		sum += rec.MemSize()
	}
	if st := c.Stats(); st.Bytes != sum {
		t.Fatalf("after churn: accounted %d, want Σ live sizes %d", st.Bytes, sum)
	}
}

// TestLRUConcurrent exercises the shard locking under -race: concurrent
// readers and writers over a shared key space, with the bound holding
// throughout.
func TestLRUConcurrent(t *testing.T) {
	const capN = 64
	c := NewLRU(LRUOptions{MaxEntries: capN, MaxBytes: 256 * 1024})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 1_000; i++ {
				key := fakeKey(rng.Intn(256))
				if rng.Intn(2) == 0 {
					c.Get(key)
				} else {
					c.Put(key, fakeRecord(t, key, float64(i), rng.Intn(8)))
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > capN {
		t.Fatalf("%d entries > cap %d after concurrent churn", n, capN)
	}
}

// TestLRUSmallCapAutoShards pins the auto-sharding floor: a small entry
// cap must not be silently diluted across 16 near-empty shards — a
// working set that fits the configured cap stays resident.
func TestLRUSmallCapAutoShards(t *testing.T) {
	const capN = 20 // auto-sharding: 2 shards × 10 entries
	c := NewLRU(LRUOptions{MaxEntries: capN})
	if got := len(c.shards); got != 2 {
		t.Fatalf("cap %d split over %d shards, want 2", capN, got)
	}
	for i := 0; i < capN; i++ {
		// Alternate the hex prefix so the working set splits evenly
		// across the two shards.
		key := fmt.Sprintf("%02x%060x", i%2, i)
		c.Put(key, fakeRecord(t, key, float64(i), 0))
	}
	if n := c.Len(); n != capN {
		t.Fatalf("%d of %d entries resident under an exact-fit working set", n, capN)
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("%d evictions while under the cap", st.Evictions)
	}
}

// TestLRUShardByPrefix pins the shard-selection contract: hex keys route
// by their leading byte, and every shard of a well-fed cache ends up
// populated (the prefixes of cryptographic fingerprints are uniform).
func TestLRUShardByPrefix(t *testing.T) {
	c := NewLRU(LRUOptions{MaxEntries: 1 << 14, Shards: 16})
	for i := 0; i < 4_096; i++ {
		c.Put(fakeKey(i), fakeRecord(t, fakeKey(i), float64(i), 0))
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := len(s.m)
		s.mu.Unlock()
		if n == 0 {
			t.Fatalf("shard %d empty after 4096 uniform inserts", i)
		}
	}
	// Non-hex keys must still route (FNV fallback), not panic.
	c.Put("not-a-fingerprint", fakeRecord(t, "not-a-fingerprint", 1, 0))
	if _, ok := c.Get("not-a-fingerprint"); !ok {
		t.Fatal("non-hex key lost")
	}
}
