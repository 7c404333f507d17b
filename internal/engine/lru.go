package engine

import (
	"sync"
	"sync/atomic"
)

// LRUOptions bounds an LRU cache. The zero value selects the defaults,
// which is what Engine uses when Options.Cache is nil.
type LRUOptions struct {
	// MaxEntries caps the total number of cached results across all
	// shards; 0 means DefaultLRUEntries. Len() never exceeds it; when
	// MaxEntries is not divisible by the shard count the effective
	// capacity is the floor per shard × shards, slightly below the cap.
	MaxEntries int
	// MaxBytes caps the cache's retained record memory. Accounting is
	// exact in record terms: each entry is charged Record.MemSize (a
	// deterministic function of the encoded size), and the cache's
	// accounted bytes always equal the sum of live entries' sizes.
	// 0 means unbounded by size.
	MaxBytes int64
	// Shards is the lock-striping factor; 0 means defaultLRUShards.
	// More shards means less contention under concurrent workers; keys
	// are distributed by fingerprint prefix, which is uniform because
	// fingerprints are cryptographic hashes.
	Shards int
}

// DefaultLRUEntries is the entry cap of a zero-valued LRUOptions — sized
// so a long-lived process (dpmserve) holds a working set of grids without
// growing unboundedly.
const DefaultLRUEntries = 4096

const (
	defaultLRUShards = 16
	// minShardEntries is the smallest per-shard capacity auto-sharding
	// will produce; smaller caps use fewer shards instead.
	minShardEntries = 8
)

// LRU is a sharded, bounded, least-recently-used record cache: the
// replacement for the unbounded Memory map. Each shard owns an
// independent mutex, hash map and intrusive recency list, so concurrent
// workers rarely contend on the same lock. When an insert overflows a
// shard's entry or byte budget, the least-recently-used entries of that
// shard are evicted (counted in Stats().Evictions).
//
// Records handed out by Get are shared with every other caller of the
// same key — treat them (and their decoded Results) as immutable.
type LRU struct {
	shards       []lruShard
	evictions    atomic.Int64
	hits, misses atomic.Int64
}

type lruShard struct {
	mu         sync.Mutex
	m          map[string]*lruEntry
	head, tail *lruEntry // intrusive recency list; head = most recent
	bytes      int64
	maxEntries int
	maxBytes   int64
}

type lruEntry struct {
	key        string
	rec        *Record
	size       int64
	prev, next *lruEntry
}

// NewLRU builds a sharded LRU cache. See LRUOptions for the defaults.
func NewLRU(opts LRUOptions) *LRU {
	maxEntries := opts.MaxEntries
	if maxEntries <= 0 {
		maxEntries = DefaultLRUEntries
	}
	shards := opts.Shards
	if shards <= 0 {
		// Auto-sharding keeps at least minShardEntries per shard: a small
		// cap over many shards would both undershoot the configured total
		// (floor division) and thrash whenever two hot keys share a
		// near-empty shard.
		shards = defaultLRUShards
		if s := maxEntries / minShardEntries; s < shards {
			shards = s
		}
		if shards < 1 {
			shards = 1
		}
	}
	if shards > maxEntries {
		// Explicitly-set shard counts shrink too, so the per-shard floor
		// of one entry cannot overshoot the configured total.
		shards = maxEntries
	}
	if shards > 256 {
		// The fingerprint-prefix router addresses 256 values; more shards
		// would be unreachable and silently strip capacity.
		shards = 256
	}
	perEntries := maxEntries / shards
	if perEntries < 1 {
		perEntries = 1
	}
	var perBytes int64
	if opts.MaxBytes > 0 {
		perBytes = opts.MaxBytes / int64(shards)
		if perBytes < 1 {
			perBytes = 1
		}
	}
	c := &LRU{shards: make([]lruShard, shards)}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*lruEntry)
		c.shards[i].maxEntries = perEntries
		c.shards[i].maxBytes = perBytes
	}
	return c
}

// shard maps a key to its shard by fingerprint prefix: the leading two
// hex digits give a uniform value in 0..255 because fingerprints are
// SHA-256 hex. Non-hex keys fall back to an FNV-1a hash of the whole key.
func (c *LRU) shard(key string) *lruShard {
	n := uint32(len(c.shards))
	if len(key) >= 2 {
		hi, ok1 := hexVal(key[0])
		lo, ok2 := hexVal(key[1])
		if ok1 && ok2 {
			return &c.shards[(hi<<4|lo)%n]
		}
	}
	const (
		fnvOffset = 2166136261
		fnvPrime  = 16777619
	)
	h := uint32(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime
	}
	return &c.shards[h%n]
}

func hexVal(b byte) (uint32, bool) {
	switch {
	case b >= '0' && b <= '9':
		return uint32(b - '0'), true
	case b >= 'a' && b <= 'f':
		return uint32(b-'a') + 10, true
	case b >= 'A' && b <= 'F':
		return uint32(b-'A') + 10, true
	}
	return 0, false
}

// Get returns the cached record for key, if any, marking it most
// recently used.
func (c *LRU) Get(key string) (*Record, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	s.moveToFront(e)
	return e.rec, true
}

// Has probes for key without promoting it or touching the hit/miss
// counters — the side-effect-free existence check warm-up uses.
func (c *LRU) Has(key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[key]
	return ok
}

// Put stores a record, evicting least-recently-used entries if the
// shard's entry or byte budget overflows. Updating an existing key
// adjusts the shard's accounted bytes by the signed size delta — an
// entry that shrinks credits bytes back, and because every entry's
// charge is its own MemSize the running sum can never underflow: it
// always equals the (non-negative) sum over live entries.
func (c *LRU) Put(key string, rec *Record) error {
	size := rec.MemSize()
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok {
		s.bytes += size - e.size
		e.rec, e.size = rec, size
		s.moveToFront(e)
	} else {
		e := &lruEntry{key: key, rec: rec, size: size}
		s.m[key] = e
		s.pushFront(e)
		s.bytes += size
	}
	for len(s.m) > s.maxEntries || (s.maxBytes > 0 && s.bytes > s.maxBytes && len(s.m) > 1) {
		c.evictions.Add(1)
		s.evictTail()
	}
	return nil
}

// Len returns the number of cached entries across all shards.
func (c *LRU) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Stats reports the cache as the memory tier.
func (c *LRU) Stats() TierStats {
	st := TierStats{
		Tier:      TierMemory,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += int64(len(s.m))
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// store runs the cache alone, as a memory-only Store.
func (c *LRU) store() *Store { return &Store{tiers: []Cache{c}, local: 1} }

func (s *lruShard) pushFront(e *lruEntry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *lruShard) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *lruShard) moveToFront(e *lruEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *lruShard) evictTail() {
	e := s.tail
	if e == nil {
		return
	}
	s.unlink(e)
	delete(s.m, e.key)
	s.bytes -= e.size
	e.rec = nil
}
