package engine

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
)

// Tier names used by the built-in caches' TierStats.
const (
	TierMemory = "memory"
	TierDisk   = "disk"
	TierRemote = "remote"
)

// TierStats are one cache tier's lookup and occupancy counters. The
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
	// full — lost replication opportunities, never lost results.
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

// Breaker state labels used in TierStats.Breaker.
const (
	breakerOpen   = "open"
	breakerClosed = "closed"
)

// TierStatsReporter is implemented by caches that can split their
// counters per tier; Engine.Stats surfaces the slice when present.
// Layered caches (Disk = memory front + files, Tiered = its children)
// report one entry per layer.
type TierStatsReporter interface {
	TierStats() []TierStats
}

// Warmer is implemented by caches that can pre-populate themselves for
// a set of keys about to be looked up (see Tiered.Warm); Engine.Run
// invokes it with the plan's fingerprints before dispatching, so a
// batched remote stat replaces per-job round-trips.
type Warmer interface {
	Warm(ctx context.Context, keys []string) int
}

// haser is an optional probe without side effects (no promotion, no
// recency bump, no hit/miss accounting).
type haser interface {
	Has(key string) bool
}

// localProber is implemented by caches that can probe their cheap local
// tiers separately from expensive (network) ones; the engine uses it
// for the pre-singleflight probe so only flight leaders pay the network
// round-trip.
type localProber interface {
	GetLocal(key string) (*Record, bool)
}

// blobStater is the batched existence probe a remote tier offers for
// plan warm-up.
type blobStater interface {
	Stat(ctx context.Context, keys []string) (map[string]bool, error)
}

// Tier is one layer of a Tiered cache.
type Tier struct {
	// Name labels the tier in TierStats when its Cache does not report
	// its own (the built-in LRU, Disk and Remote caches all do).
	Name  string
	Cache Cache
	// AsyncPut selects write-behind: Put enqueues to a bounded queue
	// drained by a background writer instead of blocking the caller on
	// the tier's (typically network) latency. When the queue is full the
	// Put is dropped and counted, never waited for.
	AsyncPut bool
}

// TieredOptions tunes a Tiered cache. The zero value selects defaults.
type TieredOptions struct {
	// QueueLen bounds the shared write-behind queue feeding the AsyncPut
	// tiers; 0 means defaultWriteBehindQueue. A full queue drops Puts
	// (counted per tier in TierStats.PutDrops) rather than blocking the
	// simulation path.
	QueueLen int
	// WarmConcurrency bounds the parallel fetches Warm issues for
	// remotely-present entries; 0 means defaultWarmConcurrency.
	WarmConcurrency int
}

const (
	defaultWriteBehindQueue = 256
	defaultWarmConcurrency  = 8
)

// Tiered composes caches into a read-through hierarchy: Get probes the
// tiers in order and promotes a deeper hit into every faster synchronous
// tier, so a result fetched from the shared remote store is served from
// local memory on the next probe. Put writes through the synchronous
// tiers and write-behind to the AsyncPut ones, so the network hop never
// sits on the simulation path.
//
// The canonical fleet composition is memory→disk→remote:
//
//	NewTiered(
//		Tier{Cache: disk},                        // Disk = memory front + files
//		Tier{Cache: remote, AsyncPut: true},      // shared dpmremote store
//	)
//
// A down or slow remote tier degrades Gets to the local tiers (the
// Remote cache itself fails open), so composing a remote in never makes
// a request fail that would have succeeded locally. Safe for concurrent
// use. Call Close when done to flush the write-behind queue.
type Tiered struct {
	tiers     []Tier
	queue     chan wbPut
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	drops     []atomic.Int64 // per-tier write-behind drops
	warmConc  int
}

type wbPut struct {
	tier int
	key  string
	rec  *Record
}

// NewTiered builds a tiered cache with default options over the given
// tiers, ordered fastest first.
func NewTiered(tiers ...Tier) *Tiered {
	return NewTieredWith(TieredOptions{}, tiers...)
}

// NewTieredWith builds a tiered cache with explicit options.
func NewTieredWith(opts TieredOptions, tiers ...Tier) *Tiered {
	qlen := opts.QueueLen
	if qlen <= 0 {
		qlen = defaultWriteBehindQueue
	}
	wc := opts.WarmConcurrency
	if wc <= 0 {
		wc = defaultWarmConcurrency
	}
	c := &Tiered{
		tiers:    tiers,
		queue:    make(chan wbPut, qlen),
		closed:   make(chan struct{}),
		drops:    make([]atomic.Int64, len(tiers)),
		warmConc: wc,
	}
	for _, t := range tiers {
		if t.AsyncPut {
			c.wg.Add(1)
			go c.writeBehind()
			break
		}
	}
	return c
}

// writeBehind drains the queue until Close, then flushes what is left.
func (c *Tiered) writeBehind() {
	defer c.wg.Done()
	for {
		select {
		case p := <-c.queue:
			_ = c.tiers[p.tier].Cache.Put(p.key, p.rec)
		case <-c.closed:
			for {
				select {
				case p := <-c.queue:
					_ = c.tiers[p.tier].Cache.Put(p.key, p.rec)
				default:
					return
				}
			}
		}
	}
}

// Get probes the tiers fastest-first; a hit in a deeper tier is promoted
// into every faster synchronous tier before returning.
func (c *Tiered) Get(key string) (*Record, bool) {
	return c.get(key, len(c.tiers))
}

// GetLocal probes only the tiers before the first remote one (the first
// offering a batched stat — see blobStater). The engine uses it for the
// pre-singleflight probe, so a stampede of identical jobs costs one
// network round-trip (the flight leader's full Get) instead of one per
// job: the network hop collapses into the singleflight exactly like the
// simulation itself.
func (c *Tiered) GetLocal(key string) (*Record, bool) {
	n := len(c.tiers)
	for i := range c.tiers {
		if _, remote := c.tiers[i].Cache.(blobStater); remote {
			n = i
			break
		}
	}
	return c.get(key, n)
}

func (c *Tiered) get(key string, n int) (*Record, bool) {
	for i := 0; i < n; i++ {
		rec, ok := c.tiers[i].Cache.Get(key)
		if !ok {
			continue
		}
		c.promote(key, rec, i)
		return rec, true
	}
	return nil, false
}

// promote writes a tier-i hit into the faster synchronous tiers.
func (c *Tiered) promote(key string, rec *Record, i int) {
	if i == 0 {
		return
	}
	for j := 0; j < i; j++ {
		if !c.tiers[j].AsyncPut {
			_ = c.tiers[j].Cache.Put(key, rec)
		}
	}
}

// Put writes through the synchronous tiers and enqueues write-behind
// Puts for the asynchronous ones. A full write-behind queue drops the
// Put (counted) instead of blocking: the local tiers already hold the
// result, so the only cost is a replication opportunity.
func (c *Tiered) Put(key string, rec *Record) error {
	var firstErr error
	for i := range c.tiers {
		if c.tiers[i].AsyncPut {
			select {
			case c.queue <- wbPut{tier: i, key: key, rec: rec}:
			default:
				c.drops[i].Add(1)
			}
			continue
		}
		if err := c.tiers[i].Cache.Put(key, rec); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close flushes the write-behind queue, stops the background writer,
// then closes any tier cache that is itself a Closer (the Remote client
// aborts in-flight backoff waits and releases its connections). Puts
// after Close still reach the synchronous tiers; their write-behind
// copies are dropped.
func (c *Tiered) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	c.wg.Wait()
	for i := range c.tiers {
		if cl, ok := c.tiers[i].Cache.(io.Closer); ok {
			_ = cl.Close()
		}
	}
	return nil
}

// Warm pre-populates the faster tiers for keys about to be looked up:
// for every tier offering a batched existence probe (the remote), it
// stats the keys missing from the faster tiers in one round-trip and
// fetches the present ones concurrently, promoting them forward. It
// returns the number of entries fetched. Failures degrade to a cold
// start — the per-key Get path still works without warm-up.
func (c *Tiered) Warm(ctx context.Context, keys []string) int {
	fetched := 0
	for i := range c.tiers {
		st, ok := c.tiers[i].Cache.(blobStater)
		if !ok {
			continue
		}
		missing := c.missingBefore(keys, i)
		if len(missing) == 0 {
			continue
		}
		present, err := st.Stat(ctx, missing)
		if err != nil {
			continue
		}
		var (
			wg  sync.WaitGroup
			sem = make(chan struct{}, c.warmConc)
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
				if rec, ok := c.tiers[i].Cache.Get(k); ok {
					c.promote(k, rec, i)
					n.Add(1)
				}
			}(k)
		}
		wg.Wait()
		fetched += int(n.Load())
	}
	return fetched
}

// missingBefore filters keys to those absent from every tier faster
// than tier i, probing without promotion where the tier supports it.
func (c *Tiered) missingBefore(keys []string, i int) []string {
	missing := make([]string, 0, len(keys))
next:
	for _, k := range keys {
		for j := 0; j < i; j++ {
			if h, ok := c.tiers[j].Cache.(haser); ok {
				if h.Has(k) {
					continue next
				}
			} else if _, ok := c.tiers[j].Cache.Get(k); ok {
				continue next
			}
		}
		missing = append(missing, k)
	}
	return missing
}

// CacheStats sums the occupancy of the tiers that report it. The
// built-in Remote tier reports zero occupancy (the blobs live on the
// server), so for the canonical local+remote composition this is the
// local occupancy, comparable to a bare Disk or LRU cache's.
func (c *Tiered) CacheStats() CacheStats {
	var st CacheStats
	for i := range c.tiers {
		if r, ok := c.tiers[i].Cache.(StatsReporter); ok {
			cs := r.CacheStats()
			st.Entries += cs.Entries
			st.Bytes += cs.Bytes
			st.Evictions += cs.Evictions
		}
	}
	return st
}

// TierStats flattens the per-tier counters of every layer: a tier that
// reports its own layers (Disk reports memory+disk, Remote reports
// itself) contributes those entries; others contribute a named stub.
// Write-behind drops are attributed to the dropping tier's last entry.
func (c *Tiered) TierStats() []TierStats {
	out := make([]TierStats, 0, len(c.tiers)+1)
	for i := range c.tiers {
		var ts []TierStats
		if r, ok := c.tiers[i].Cache.(TierStatsReporter); ok {
			ts = r.TierStats()
		} else {
			name := c.tiers[i].Name
			if name == "" {
				name = "tier"
			}
			ts = []TierStats{{Tier: name}}
		}
		if d := c.drops[i].Load(); d > 0 && len(ts) > 0 {
			ts[len(ts)-1].PutDrops += d
		}
		out = append(out, ts...)
	}
	return out
}
