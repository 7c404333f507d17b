package engine

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DiskOptions bounds a disk tier. The zero value means: no size cap, no
// fsync, real filesystem.
type DiskOptions struct {
	// MaxBytes caps the total size of the cached *.rec containers; when
	// an insert overflows it, the least-recently-modified entries are
	// deleted until the cache fits under 90% of the cap (the hysteresis
	// amortises the GC's directory scan). 0 means unbounded.
	MaxBytes int64
	// Sync makes Put crash-consistent against power loss, not just
	// process death: the temp file is fsynced before the atomic rename
	// publishes it (so a crash can never expose a torn final entry) and
	// the directory is fsynced after (so a completed rename is durable).
	// Without Sync a crash at the wrong moment can leave a torn entry —
	// still healable (Get deletes undecodable entries) but a lost slot.
	// Turn it on for shared stores (dpmremote); leave it off for
	// per-process scratch caches where re-simulation is cheaper than an
	// fsync per insert.
	Sync bool
	// FS overrides the filesystem seam Put/GC go through (fault
	// injection, crash testing); nil means the real filesystem.
	FS FS
}

// Disk is a directory-backed record tier: one binary record container
// (`<fingerprint>.rec`, see Record) per entry. It holds files only: a
// Store puts its memory tier in front, so within one process each entry
// is read and checksummed at most once while hot — and thanks to the
// record's lazy decode, only ever decoded if a consumer needs the
// decoded Result. Safe for concurrent use within a process; concurrent
// writers in separate processes are harmless because writes are atomic
// (write-to-temp + rename) and entries are content-addressed.
//
// Opening the cache sweeps temp files abandoned by crashed writers. A Get
// that finds a corrupt or unsupported-version entry deletes it so the slot
// heals with the next Put instead of re-missing every process lifetime.
type Disk struct {
	dir  string
	fs   FS
	sync bool

	diskHits, diskMisses atomic.Int64
	// touchBroken latches after the first failed mtime refresh (e.g. a
	// read-only cache directory): recency tracking degrades to write
	// order, logged once, and hits keep being served without paying a
	// doomed Chtimes per Get.
	touchBroken atomic.Bool

	gcMu      sync.Mutex
	bytes     int64 // total size of *.rec containers
	entries   int64 // count of *.rec entries
	maxBytes  int64
	evictions int64
}

// recExt is the on-disk extension of binary record containers.
const recExt = ".rec"

// NewDiskWith opens (creating if needed) a disk tier rooted at dir,
// sweeping stale temp files left by crashed writers.
func NewDiskWith(dir string, opts DiskOptions) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: cache dir: %w", err)
	}
	fs := opts.FS
	if fs == nil {
		fs = OSFS
	}
	c := &Disk{dir: dir, fs: fs, sync: opts.Sync, maxBytes: opts.MaxBytes}
	c.sweepTemp()
	c.bytes, c.entries = c.scan()
	if c.maxBytes > 0 {
		c.gc()
	}
	return c, nil
}

func (c *Disk) path(key string) string {
	return filepath.Join(c.dir, key+recExt)
}

// sweepTemp removes temp files abandoned by writers that crashed between
// CreateTemp and the atomic rename. Any live writer's temp file is at
// most seconds old and will be renamed away or re-created; deleting it
// costs one redundant simulation, never correctness.
func (c *Disk) sweepTemp() {
	matches, err := filepath.Glob(filepath.Join(c.dir, "*.tmp*"))
	if err != nil {
		return
	}
	for _, m := range matches {
		c.fs.Remove(m)
	}
}

// scan counts the current *.rec containers and their total size.
func (c *Disk) scan() (bytes, entries int64) {
	matches, err := filepath.Glob(filepath.Join(c.dir, "*"+recExt))
	if err != nil {
		return 0, 0
	}
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil {
			bytes += fi.Size()
			entries++
		}
	}
	return bytes, entries
}

// Get returns the record stored for key. A load validates the container
// header and body checksum (cheap — the body is not decoded), so a torn or
// bit-rotted file is deleted and reported as a miss, never served.
func (c *Disk) Get(key string) (*Record, bool) {
	path := c.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		c.diskMisses.Add(1)
		return nil, false
	}
	rec, err := DecodeRecord(data)
	if err != nil || rec.Key() != key {
		// A corrupt, mis-keyed or stale-format entry can never hit again;
		// delete it so the next Put heals the slot instead of the key
		// re-missing every process lifetime.
		c.remove(path, int64(len(data)))
		c.diskMisses.Add(1)
		return nil, false
	}
	c.touch(path)
	c.diskHits.Add(1)
	return rec, true
}

// touch refreshes the entry's mtime so the size-cap GC's recency order
// reflects access, not just write order (a hit loads from disk at most
// once per process lifetime — after this the store's memory tier serves it).
// A failing touch (read-only directory, exotic filesystem) is a
// degraded recency signal, not a degraded cache: log it once, stop
// retrying, and keep serving hits.
func (c *Disk) touch(path string) {
	if c.touchBroken.Load() {
		return
	}
	now := time.Now()
	if err := os.Chtimes(path, now, now); err != nil {
		if c.touchBroken.CompareAndSwap(false, true) {
			log.Printf("engine: disk cache %s: mtime refresh failed (%v); eviction recency degrades to write order", c.dir, err)
		}
	}
}

// Has probes for key on disk without loading or decoding the entry — the
// side-effect-free existence check the blob server's HEAD/stat endpoints
// and warm-up use.
func (c *Disk) Has(key string) bool {
	_, err := os.Stat(c.path(key))
	return err == nil
}

// Put stores a record on disk, then enforces the size cap.
// The on-disk payload is the record's binary container, built once per
// record and shared with every other store it is replicated to. The write is atomic
// (temp + rename); with DiskOptions.Sync it is additionally
// crash-consistent: the payload is fsynced before the rename publishes
// it, so a crash at any point leaves the slot holding the old entry, the
// complete new entry, or nothing — never a torn file.
func (c *Disk) Put(key string, rec *Record) error {
	data, err := rec.Encode(storeCodec)
	if err != nil {
		return fmt.Errorf("engine: encode record: %w", err)
	}
	tmp, err := c.fs.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return fmt.Errorf("engine: cache write: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		c.fs.Remove(name)
		return fmt.Errorf("engine: cache write: %w", err)
	}
	if c.sync {
		// Data must be stable before the rename makes it addressable:
		// rename-then-sync can expose a torn final entry after power loss.
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			c.fs.Remove(name)
			return fmt.Errorf("engine: cache sync: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		c.fs.Remove(name)
		return fmt.Errorf("engine: cache write: %w", err)
	}
	// Stat + rename + accounting happen under gcMu so a concurrent gc()
	// snapshot cannot interleave and double-count the entry.
	path := c.path(key)
	c.gcMu.Lock()
	var old int64
	existed := false
	if fi, err := os.Stat(path); err == nil {
		old, existed = fi.Size(), true
	}
	if err := c.fs.Rename(name, path); err != nil {
		c.gcMu.Unlock()
		c.fs.Remove(name)
		return fmt.Errorf("engine: cache write: %w", err)
	}
	c.bytes += int64(len(data)) - old
	if !existed {
		c.entries++
	}
	over := c.maxBytes > 0 && c.bytes > c.maxBytes
	c.gcMu.Unlock()
	if c.sync {
		// The rename is data-safe already; the directory sync makes it
		// durable. The entry is visible either way, so a failing sync
		// degrades durability, not correctness — but report it, the
		// caller asked for crash consistency.
		if err := c.fs.SyncDir(c.dir); err != nil {
			return fmt.Errorf("engine: cache sync: %w", err)
		}
	}
	if over {
		c.gc()
	}
	return nil
}

// remove deletes one entry file and adjusts the occupancy accounting.
func (c *Disk) remove(path string, size int64) {
	if c.fs.Remove(path) == nil {
		c.gcMu.Lock()
		c.bytes -= size
		c.entries--
		c.gcMu.Unlock()
	}
}

// gc deletes least-recently-used entries until the cache fits under
// 90% of MaxBytes — LRU by mtime, which Put's atomic rename sets and a
// disk-layer Get refreshes. The 10% hysteresis amortises the directory
// scan: at steady
// state each gc buys ~MaxBytes/10 of writes before the next one, so Put
// is not O(directory) per insert. Entries evicted here are only files:
// the store's memory tier keeps serving its own (bounded) working set.
func (c *Disk) gc() {
	c.gcMu.Lock()
	defer c.gcMu.Unlock()
	matches, err := filepath.Glob(filepath.Join(c.dir, "*"+recExt))
	if err != nil {
		return
	}
	target := c.maxBytes - c.maxBytes/10
	type entry struct {
		path  string
		size  int64
		mtime int64
	}
	entries := make([]entry, 0, len(matches))
	var total int64
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			continue
		}
		entries = append(entries, entry{m, fi.Size(), fi.ModTime().UnixNano()})
		total += fi.Size()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime < entries[j].mtime })
	kept := int64(len(entries))
	for _, e := range entries {
		if total <= target {
			break
		}
		if c.fs.Remove(e.path) == nil {
			total -= e.size
			kept--
			c.evictions++
		}
	}
	c.bytes, c.entries = total, kept
}

// Stats reports the disk tier from the maintained counters — O(1), so a
// serving layer can scrape it per request without re-listing the
// directory (counters are approximate when separate processes share the
// directory). Evictions are the size-cap GC's deletions.
func (c *Disk) Stats() TierStats {
	c.gcMu.Lock()
	defer c.gcMu.Unlock()
	return TierStats{
		Tier:      TierDisk,
		Hits:      c.diskHits.Load(),
		Misses:    c.diskMisses.Load(),
		Entries:   c.entries,
		Bytes:     c.bytes,
		Evictions: c.evictions,
	}
}
