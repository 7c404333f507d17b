package engine_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"godpm/internal/engine"
	"godpm/internal/soc"
)

func listFiles(t *testing.T, dir, pattern string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// mustRecord wraps a result into a cache record or fails the test.
func mustRecord(t testing.TB, key string, r *soc.Result) *engine.Record {
	t.Helper()
	rec, err := engine.NewRecord(key, r)
	if err != nil {
		t.Fatalf("NewRecord: %v", err)
	}
	return rec
}

// mustContainer encodes r as the flate record container a dpmremote peer
// sends on the wire.
func mustContainer(t testing.TB, key string, r *soc.Result) []byte {
	t.Helper()
	data, err := mustRecord(t, key, r).Encode(engine.CodecFlate)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return data
}

// energyHit decodes a fetched record and returns its EnergyJ.
func energyHit(t testing.TB, rec *engine.Record) float64 {
	t.Helper()
	r, err := rec.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	return r.EnergyJ
}

// TestDiskSweepsStaleTempFiles pins the crash-leak fix: temp files
// abandoned between CreateTemp and the atomic rename are removed when the
// cache is opened, and committed entries are untouched.
func TestDiskSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	seed, err := engine.NewDiskWith(dir, engine.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put("abc123", mustRecord(t, "abc123", &soc.Result{EnergyJ: 1})); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"abc123.tmp42", "def456.tmp", "ghi789.tmp999"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := engine.NewDiskWith(dir, engine.DiskOptions{}); err != nil {
		t.Fatal(err)
	}
	if left := listFiles(t, dir, "*.tmp*"); len(left) != 0 {
		t.Fatalf("stale temp files survived the janitor: %v", left)
	}
	if left := listFiles(t, dir, "*.rec"); len(left) != 1 {
		t.Fatalf("janitor touched committed entries: %v", left)
	}
}

// TestDiskDeletesCorruptEntry pins the re-miss fix: a corrupt entry is a
// miss AND is deleted, so the next Put heals the slot permanently.
func TestDiskDeletesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := engine.NewDiskWith(dir, engine.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const key = "deadbeef"
	path := filepath.Join(dir, key+".rec")
	if err := os.WriteFile(path, []byte("GDPMgarbage-that-is-not-a-record"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not deleted on failed decode")
	}

	// The slot heals: a Put stores a decodable entry that hits from a
	// fresh cache over the same directory.
	if err := c.Put(key, mustRecord(t, key, &soc.Result{EnergyJ: 42})); err != nil {
		t.Fatal(err)
	}
	c2, err := engine.NewDiskWith(dir, engine.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := c2.Get(key)
	if !ok || energyHit(t, rec) != 42 {
		t.Fatalf("healed entry not served: ok=%v rec=%v", ok, rec)
	}
}

// TestDiskKeyMismatchIsMiss pins the container/key cross-check: a record
// renamed onto another key's slot (or a hash collision in the filename)
// must not serve the wrong payload.
func TestDiskKeyMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := engine.NewDiskWith(dir, engine.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("aaaa", mustRecord(t, "aaaa", &soc.Result{EnergyJ: 7})); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "aaaa.rec"), filepath.Join(dir, "bbbb.rec")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("bbbb"); ok {
		t.Fatal("record stored under key aaaa served for key bbbb")
	}
	if _, err := os.Stat(filepath.Join(dir, "bbbb.rec")); !os.IsNotExist(err) {
		t.Fatal("mismatched entry not deleted")
	}
}

// TestDiskSizeCapGC pins the size-capped disk cache: overflow deletes the
// least-recently-modified entries first, both at open and after Put.
// Every entry holds the same result under an equal-length key, so the
// flate containers are byte-for-byte the same size and the GC arithmetic
// is exact; entries are told apart by the key in the record header.
func TestDiskSizeCapGC(t *testing.T) {
	dir := t.TempDir()
	unbounded, err := engine.NewDiskWith(dir, engine.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	same := &soc.Result{EnergyJ: 1.5, TasksDone: 3}
	var entrySize int64
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 8; i++ {
		key := fakeDiskKey(i)
		if err := unbounded.Put(key, mustRecord(t, key, same)); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, key+".rec")
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if entrySize != 0 && fi.Size() != entrySize {
			t.Fatalf("entry %d is %d bytes, want %d: sizes must match for exact GC arithmetic", i, fi.Size(), entrySize)
		}
		entrySize = fi.Size()
		// Deterministic mtime order: key i is older than key i+1.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen with room for 4 entries: GC runs at open and — with the 10%
	// hysteresis — evicts oldest-first down to ≤ 0.9×cap, keeping the 3
	// newest (3 entries fit under 3.6 entries' worth of budget).
	maxBytes := 4 * entrySize
	capped, err := engine.NewDiskWith(dir, engine.DiskOptions{MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(listFiles(t, dir, "*.rec")); n != 3 {
		t.Fatalf("%d entries after open-time GC, want 3", n)
	}
	for i := 0; i < 5; i++ {
		if _, ok := capped.Get(fakeDiskKey(i)); ok {
			t.Fatalf("old entry %d survived GC", i)
		}
	}
	for i := 5; i < 8; i++ {
		if rec, ok := capped.Get(fakeDiskKey(i)); !ok || rec.Key() != fakeDiskKey(i) {
			t.Fatalf("recent entry %d lost by GC", i)
		}
	}

	// The freed headroom absorbs the next Put without re-scanning, and
	// the cap holds. The payload matches the others byte-for-byte so the
	// arithmetic stays exact.
	if err := capped.Put(fakeDiskKey(100), mustRecord(t, fakeDiskKey(100), same)); err != nil {
		t.Fatal(err)
	}
	st := capped.Stats()
	if st.Bytes > maxBytes {
		t.Fatalf("size cap violated after Put: %d > %d", st.Bytes, maxBytes)
	}
	if st.Entries != 4 {
		t.Fatalf("entries counter = %d, want 4", st.Entries)
	}
	if st.Evictions != 5 {
		t.Fatalf("evictions %d, want 5 (the oldest five, at open)", st.Evictions)
	}
	if _, err := os.Stat(filepath.Join(dir, fakeDiskKey(100)+".rec")); err != nil {
		t.Fatal("newest entry GCed instead of the oldest")
	}
}

// TestDiskCodecRoundTrip pins the disk store's record formats: a default
// write reads back intact, and a raw (uncompressed) container already in
// the directory — as older stores may hold — is still served.
func TestDiskCodecRoundTrip(t *testing.T) {
	r := &soc.Result{EnergyJ: 3.25, TasksDone: 9, Completed: true,
		EnergyByIP: map[string]float64{"cpu": 2, "dsp": 1.25}}
	check := func(what string, rec *engine.Record, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("%s: stored entry missed", what)
		}
		got, err := rec.Result()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got.EnergyJ != r.EnergyJ || got.TasksDone != r.TasksDone || got.EnergyByIP["dsp"] != 1.25 {
			t.Fatalf("%s: round-trip mangled result: %+v", what, got)
		}
	}

	dir := t.TempDir()
	c, err := engine.NewDiskWith(dir, engine.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k1", mustRecord(t, "k1", r)); err != nil {
		t.Fatal(err)
	}
	reopened, err := engine.NewDiskWith(dir, engine.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := reopened.Get("k1")
	check("default write", rec, ok)

	raw, err := mustRecord(t, "k2", r).Encode(engine.CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "k2.rec"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, ok = reopened.Get("k2")
	check("raw container", rec, ok)
}

// fakeDiskKey builds a distinct hex cache key per index.
func fakeDiskKey(i int) string {
	return fmt.Sprintf("%032x", i)
}
