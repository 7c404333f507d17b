package engine_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"godpm/internal/engine"
	"godpm/internal/soc"
)

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

// gatedBlobServer serves a blob server over a fresh memory store whose
// PUTs block until release is called, to hold the write-behind writer
// still while a test fills the queue.
func gatedBlobServer(t *testing.T) (url string, store *engine.LRU, release func()) {
	t.Helper()
	store = engine.NewLRU(engine.LRUOptions{})
	blob := engine.NewBlobServer(store, engine.BlobServerOptions{})
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			<-gate
		}
		blob.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(release)
	return ts.URL, store, release
}

// tierNamed returns the store's counters for one tier.
func tierNamed(t *testing.T, s *engine.Store, name string) engine.TierStats {
	t.Helper()
	for _, ts := range engine.StoreTiers(s) {
		if ts.Tier == name {
			return ts
		}
	}
	t.Fatalf("store has no %s tier", name)
	return engine.TierStats{}
}

func TestTieredPromotesDeeperHits(t *testing.T) {
	dir := t.TempDir()
	disk, err := engine.NewDiskWith(dir, engine.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey('a')
	if err := disk.Put(key, recFor(key, &soc.Result{EnergyJ: 42})); err != nil {
		t.Fatal(err)
	}
	mem := engine.NewLRU(engine.LRUOptions{})
	s, err := engine.NewStore(mem, dir, engine.DiskOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || energyHit(t, got) != 42 {
		t.Fatalf("Get = %v, %v; want the disk tier's entry", got, ok)
	}
	if !mem.Has(key) {
		t.Fatalf("deeper hit was not promoted into the memory tier")
	}
	// Once promoted, the entry is served by the memory tier alone.
	if _, ok := s.Get(key); !ok {
		t.Fatal("second Get missed")
	}
	if hits := tierNamed(t, s, engine.TierDisk).Hits; hits != 1 {
		t.Fatalf("disk tier served %d hits, want 1", hits)
	}
	if hits := tierNamed(t, s, engine.TierMemory).Hits; hits != 1 {
		t.Fatalf("memory tier served %d hits, want 1", hits)
	}
}

func TestTieredWriteBehindDelivers(t *testing.T) {
	ts, _, behind := blobServerForTest(t)
	mem := engine.NewLRU(engine.LRUOptions{})
	s, err := engine.NewStore(mem, "", engine.DiskOptions{}, &engine.RemoteOptions{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	key := testKey('b')
	if err := s.Put(key, recFor(key, &soc.Result{EnergyJ: 1})); err != nil {
		t.Fatal(err)
	}
	if !mem.Has(key) {
		t.Fatalf("memory tier missing the entry immediately after Put")
	}
	waitFor(t, "write-behind delivery", func() bool { return behind.Has(key) })
}

func TestTieredWriteBehindDropsWhenFull(t *testing.T) {
	defer engine.SetWriteBehindQueue(1)()
	url, _, release := gatedBlobServer(t)
	s, err := engine.NewStore(engine.NewLRU(engine.LRUOptions{}), "", engine.DiskOptions{},
		&engine.RemoteOptions{BaseURL: url, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	// The first Put is picked up by the writer and blocks on the gate;
	// the second fills the queue; the rest must be dropped without
	// blocking.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 6; i++ {
			k := testKey(byte('a' + i))
			s.Put(k, recFor(k, &soc.Result{}))
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("Put blocked on a full write-behind queue")
	}
	waitFor(t, "drops recorded", func() bool { return tierNamed(t, s, engine.TierRemote).PutDrops >= 3 })
	release()
	s.Close()
}

func TestTieredCloseFlushesQueue(t *testing.T) {
	url, behind, release := gatedBlobServer(t)
	s, err := engine.NewStore(engine.NewLRU(engine.LRUOptions{}), "", engine.DiskOptions{},
		&engine.RemoteOptions{BaseURL: url, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{testKey('1'), testKey('2'), testKey('3'), testKey('4')}
	for _, k := range keys {
		if err := s.Put(k, recFor(k, &soc.Result{})); err != nil {
			t.Fatal(err)
		}
	}
	release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !behind.Has(k) {
			t.Fatalf("entry %s... not flushed by Close", k[:8])
		}
	}
}

// TestTieredPutAfterCloseIsCountedDrop: once Close has stopped the
// writer, a Put still reaches the local tiers, and its remote copy is
// dropped and counted, never silently lost in the queue.
func TestTieredPutAfterCloseIsCountedDrop(t *testing.T) {
	ts, _, behind := blobServerForTest(t)
	mem := engine.NewLRU(engine.LRUOptions{})
	s, err := engine.NewStore(mem, "", engine.DiskOptions{}, &engine.RemoteOptions{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	key := testKey('c')
	if err := s.Put(key, recFor(key, &soc.Result{})); err != nil {
		t.Fatal(err)
	}
	if !mem.Has(key) {
		t.Fatal("Put after Close missed the memory tier")
	}
	if drops := tierNamed(t, s, engine.TierRemote).PutDrops; drops != 1 {
		t.Fatalf("remote PutDrops = %d after one Put past Close, want 1", drops)
	}
	if behind.Has(key) {
		t.Fatal("a Put after Close reached the remote store")
	}
}

func TestTieredWarmPromotesPresentKeys(t *testing.T) {
	ts, _, deep := blobServerForTest(t)
	mem := engine.NewLRU(engine.LRUOptions{})
	s := newStoreOver(t, mem, ts.URL)

	present := []string{testKey('a'), testKey('b'), testKey('c')}
	for _, k := range present {
		if err := deep.Put(k, recFor(k, &soc.Result{EnergyJ: 7})); err != nil {
			t.Fatal(err)
		}
	}
	absent := testKey('d')
	fetched := s.Warm(context.Background(), append(append([]string{}, present...), absent))
	if fetched != len(present) {
		t.Fatalf("Warm fetched %d entries, want %d", fetched, len(present))
	}
	for _, k := range present {
		if !mem.Has(k) {
			t.Fatalf("warmed key %s... not promoted into the memory tier", k[:8])
		}
	}
	if mem.Has(absent) {
		t.Fatalf("absent key appeared in the memory tier")
	}
	// A second warm has nothing left to do.
	if again := s.Warm(context.Background(), present); again != 0 {
		t.Fatalf("second Warm fetched %d entries, want 0", again)
	}
}

func TestTieredGetLocalSkipsRemoteStyleTiers(t *testing.T) {
	ts, _, deep := blobServerForTest(t)
	s := newStoreOver(t, engine.NewLRU(engine.LRUOptions{}), ts.URL)

	key := testKey('e')
	if err := deep.Put(key, recFor(key, &soc.Result{})); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetLocal(key); ok {
		t.Fatalf("GetLocal hit through the remote tier")
	}
	if _, ok := s.Get(key); !ok {
		t.Fatalf("full Get missed the remote entry")
	}
	if _, ok := s.GetLocal(key); !ok {
		t.Fatalf("GetLocal missed after promotion")
	}
}

// newStoreOver builds a store of the given memory tier in front of the
// shared store at remote; the test closes it.
func newStoreOver(t *testing.T, mem engine.Cache, remote string) *engine.Store {
	t.Helper()
	s, err := engine.NewStore(mem, "", engine.DiskOptions{}, &engine.RemoteOptions{BaseURL: remote})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestTieredStatsFlatten: a store reports its tiers fastest first —
// memory, disk, remote — and an engine over it takes its occupancy from
// the deepest local tier, the files.
func TestTieredStatsFlatten(t *testing.T) {
	ts, _, _ := blobServerForTest(t)
	s := newStore(t, t.TempDir(), ts.URL)
	key := testKey('f')
	if err := s.Put(key, recFor(key, &soc.Result{})); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("Get missed")
	}
	var names []string
	for _, ts := range engine.StoreTiers(s) {
		names = append(names, ts.Tier)
	}
	if want := []string{engine.TierMemory, engine.TierDisk, engine.TierRemote}; !slices.Equal(names, want) {
		t.Fatalf("tiers = %v, want %v", names, want)
	}
	st := engine.New(engine.Options{Cache: s}).Stats()
	if disk := tierNamed(t, s, engine.TierDisk); st.CacheEntries != 1 || st.CacheBytes != disk.Bytes {
		t.Fatalf("engine occupancy %d entries / %d bytes, want the disk tier's 1 / %d", st.CacheEntries, st.CacheBytes, disk.Bytes)
	}
}

// TestTieredPutRacingCloseLosesNothing: Puts racing Close from several
// goroutines either reach the remote writer or are counted as drops;
// none is silently lost in the queue, and none panics on a closed queue.
func TestTieredPutRacingCloseLosesNothing(t *testing.T) {
	ts, _, _ := blobServerForTest(t)
	s, err := engine.NewStore(engine.NewLRU(engine.LRUOptions{}), "", engine.DiskOptions{}, &engine.RemoteOptions{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := fmt.Sprintf("%062x%02x", w, i)
				s.Put(k, recFor(k, &soc.Result{}))
			}
		}(w)
	}
	s.Close()
	wg.Wait()
	if rt := tierNamed(t, s, engine.TierRemote); rt.Puts+rt.PutDrops != writers*each {
		t.Fatalf("remote puts %d + drops %d, want all %d Puts accounted for", rt.Puts, rt.PutDrops, writers*each)
	}
}
