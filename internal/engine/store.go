package engine

import (
	"context"
	"sync"
	"sync/atomic"
)

// Cache is one tier of a Store: the memory LRU, the Disk files or the
// Remote client. Every tier deals in *Record — the encoded canonical
// bytes plus the lazily decoded Result — so a value crosses tiers and
// reaches a socket without ever being re-marshalled. Records handed out
// by Get are shared — with singleflight dedup and a serving layer on
// top, one entry may back many concurrent jobs and HTTP responses, so
// callers must treat them as strictly immutable: never mutate a Record,
// or a Result (or its Ledger/maps) obtained from one. Implementations
// must be safe for concurrent use.
type Cache interface {
	Get(key string) (*Record, bool)
	Put(key string, rec *Record) error
	// Has probes for key without side effects: no promotion, no recency
	// bump, no hit/miss accounting.
	Has(key string) bool
	// Stats reports the tier's lookup and occupancy counters.
	Stats() TierStats
}

// Tier names in TierStats.
const (
	TierMemory = "memory"
	TierDisk   = "disk"
	TierRemote = "remote"
)

// TierStats are one store tier's lookup and occupancy counters. The
// hit/miss split per tier is what makes fleet-wide dedup observable
// rather than inferred: a serving replica whose remote tier shows hits
// is provably being served simulations another replica ran.
type TierStats struct {
	Tier   string `json:"tier"`
	Hits   int64  `json:"hits"`
	Misses int64  `json:"misses"`
	// Errors counts failed operations against the tier (remote transport
	// failures, corrupt bodies); local tiers don't fail, they miss.
	Errors int64 `json:"errors,omitempty"`
	// Puts counts store attempts against the tier (surfaced for the
	// remote tier, whose write-behind PUTs are asynchronous and would
	// otherwise be invisible).
	Puts int64 `json:"puts,omitempty"`
	// PutDrops counts write-behind Puts dropped because the queue was
	// full or the store was closed — lost replication opportunities,
	// never lost results.
	PutDrops  int64 `json:"put_drops,omitempty"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Evictions int64 `json:"evictions"`
	// Rejected counts responses dropped because their bytes did not match
	// the digest the peer vouched for — corruption caught end-to-end.
	Rejected int64 `json:"rejected,omitempty"`
	// Breaker is the remote tier's circuit-breaker state, "open" or
	// "closed"; empty for tiers without a breaker. The companion fields
	// say why it is where it is: consecutive failures feeding it, how
	// many times it has tripped, how many operations an open breaker
	// short-circuited, and (while open) milliseconds until the next probe.
	Breaker       string `json:"breaker,omitempty"`
	BreakerFails  int64  `json:"breaker_fails,omitempty"`
	BreakerTrips  int64  `json:"breaker_trips,omitempty"`
	BreakerSkips  int64  `json:"breaker_skips,omitempty"`
	BreakerWaitMs int64  `json:"breaker_wait_ms,omitempty"`
}

// Storage is what Options.Cache and NewBlobServer take: a *Store, or an
// *LRU, which runs as a memory-only Store.
type Storage interface {
	store() *Store
}

const (
	// warmConcurrency bounds the parallel fetches Warm issues for
	// remotely-present entries.
	warmConcurrency = 8
)

// writeBehindQueue bounds the write-behind queue feeding the remote
// tier. A full queue drops Puts (counted in the remote tier's PutDrops)
// rather than blocking the simulation path. A variable only so tests
// can shrink it.
var writeBehindQueue = 256

// Store is the engine's result store: a flat list of tiers, fastest
// first — memory, then optionally files (a Disk), then optionally the
// fleet's shared dpmremote store (a Remote client). Get probes the tiers
// in order and promotes a deeper hit into every faster local tier, so a
// result fetched from the shared store is served from memory on the next
// probe. Put writes through the local tiers and write-behind to the
// remote one, so the network hop never sits on the simulation path.
//
// A down or slow remote degrades Gets to the local tiers (the Remote
// client fails open), so a remote tier never makes a request fail that
// would have succeeded locally. Safe for concurrent use. Call Close when
// done to flush the write-behind queue.
type Store struct {
	tiers  []Cache // memory, [disk], [remote]
	local  int     // the first local tiers are tiers[:local]
	remote *Remote // tiers[local] when non-nil

	queue    chan wbPut
	closeMu  sync.RWMutex // held shared by write-behind Puts, exclusively by Close
	closed   bool
	wg       sync.WaitGroup
	putDrops atomic.Int64
}

type wbPut struct {
	key string
	rec *Record
}

// NewStore builds a store over the memory tier (an *LRU, or a wrapper of
// one). A non-empty dir adds a Disk tier of record files under it with
// the given bounds; a non-nil remote adds a client of the shared store
// at remote.BaseURL behind the local tiers.
func NewStore(memory Cache, dir string, disk DiskOptions, remote *RemoteOptions) (*Store, error) {
	s := &Store{tiers: []Cache{memory}}
	if dir != "" {
		d, err := NewDiskWith(dir, disk)
		if err != nil {
			return nil, err
		}
		s.tiers = append(s.tiers, d)
	}
	s.local = len(s.tiers)
	if remote != nil {
		r, err := NewRemote(*remote)
		if err != nil {
			return nil, err
		}
		s.remote = r
		s.tiers = append(s.tiers, r)
		s.queue = make(chan wbPut, writeBehindQueue)
		s.wg.Add(1)
		go s.writeBehind()
	}
	return s, nil
}

func (s *Store) store() *Store { return s }

// writeBehind drains the queue into the remote tier until Close, then
// flushes what is left.
func (s *Store) writeBehind() {
	defer s.wg.Done()
	for p := range s.queue {
		_ = s.remote.Put(p.key, p.rec)
	}
}

// Get probes the tiers fastest-first; a hit in a deeper tier is promoted
// into every faster local tier before returning.
func (s *Store) Get(key string) (*Record, bool) {
	return s.get(key, len(s.tiers))
}

// GetLocal probes only the local tiers. The engine uses it for the
// pre-singleflight probe, so a stampede of identical jobs costs one
// network round-trip (the flight leader's full Get) instead of one per
// job: the network hop collapses into the singleflight exactly like the
// simulation itself.
func (s *Store) GetLocal(key string) (*Record, bool) {
	return s.get(key, s.local)
}

func (s *Store) get(key string, n int) (*Record, bool) {
	for i := 0; i < n; i++ {
		if rec, ok := s.tiers[i].Get(key); ok {
			s.promote(key, rec, i)
			return rec, true
		}
	}
	return nil, false
}

// promote writes a tier-i hit into the faster tiers, which are all local.
func (s *Store) promote(key string, rec *Record, i int) {
	for j := 0; j < i; j++ {
		_ = s.tiers[j].Put(key, rec)
	}
}

// Has probes the local tiers for key without promotion or hit/miss
// accounting.
func (s *Store) Has(key string) bool {
	for _, t := range s.tiers[:s.local] {
		if t.Has(key) {
			return true
		}
	}
	return false
}

// Put writes through the local tiers and enqueues a write-behind Put for
// the remote one. A full queue, or a closed store, drops the remote copy
// (counted) instead of blocking: the local tiers already hold the
// result, so the only cost is a replication opportunity.
func (s *Store) Put(key string, rec *Record) error {
	var firstErr error
	for _, t := range s.tiers[:s.local] {
		if err := t.Put(key, rec); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.remote != nil {
		s.closeMu.RLock()
		if s.closed {
			s.putDrops.Add(1)
		} else {
			select {
			case s.queue <- wbPut{key: key, rec: rec}:
			default:
				s.putDrops.Add(1)
			}
		}
		s.closeMu.RUnlock()
	}
	return firstErr
}

// Close flushes the write-behind queue, stops the background writer and
// closes the remote client (in-flight backoff waits abort, connections
// are released). Puts after Close still reach the local tiers; their
// remote copies are dropped and counted.
func (s *Store) Close() error {
	if s.remote == nil {
		return nil
	}
	s.closeMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.closeMu.Unlock()
	s.wg.Wait()
	return s.remote.Close()
}

// Warm pre-populates the local tiers for keys about to be looked up: it
// asks the remote tier in one batched stat which of the keys missing
// locally it holds, and fetches the present ones concurrently, promoting
// them forward. It returns the number of entries fetched. Without a
// remote tier it does nothing; failures degrade to a cold start — the
// per-key Get path still works without warm-up.
func (s *Store) Warm(ctx context.Context, keys []string) int {
	if s.remote == nil {
		return 0
	}
	missing := make([]string, 0, len(keys))
	for _, k := range keys {
		if !s.Has(k) {
			missing = append(missing, k)
		}
	}
	if len(missing) == 0 {
		return 0
	}
	present, err := s.remote.Stat(ctx, missing)
	if err != nil {
		return 0
	}
	var (
		wg  sync.WaitGroup
		sem = make(chan struct{}, warmConcurrency)
		n   atomic.Int64
	)
	for _, k := range missing {
		if !present[k] || ctx.Err() != nil {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(k string) {
			defer wg.Done()
			defer func() { <-sem }()
			if rec, ok := s.remote.Get(k); ok {
				s.promote(k, rec, s.local)
				n.Add(1)
			}
		}(k)
	}
	wg.Wait()
	return int(n.Load())
}

// snapshot reports each tier's counters, fastest first, with the
// write-behind drops on the remote tier, and the store's occupancy: the
// entries and bytes of its deepest local tier (the files when there are
// any, else memory) and the evictions summed over its tiers.
func (s *Store) snapshot() (tiers []TierStats, entries, bytes, evictions int64) {
	tiers = make([]TierStats, len(s.tiers))
	for i, t := range s.tiers {
		tiers[i] = t.Stats()
		evictions += tiers[i].Evictions
	}
	if s.remote != nil {
		tiers[s.local].PutDrops += s.putDrops.Load()
	}
	deepest := tiers[s.local-1]
	return tiers, deepest.Entries, deepest.Bytes, evictions
}
