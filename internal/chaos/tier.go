package chaos

import (
	"context"
	"fmt"
	"time"

	"godpm/internal/engine"
	"godpm/internal/workload"
)

// Tier wraps an engine.Cache with a deterministic fault schedule. This
// seam carries whole records, not raw bytes, so faults map onto the
// Cache contract's only two failure shapes: a faulted Get is a miss, a
// faulted Put returns an error. Corrupt/torn decisions degrade to the
// same — fabricating a corrupted *engine.Record here would poison
// callers by construction, which is exactly the bug class the
// byte-level seams (RoundTripper, FaultFS) exist to exercise instead.
//
// Gets and Puts draw from independent schedules (independent seed
// splits), so the mix of operations does not perturb either stream.
type Tier struct {
	inner engine.Cache
	get   *Injector
	put   *Injector
}

// NewTier wraps inner with the spec's fault schedule rooted at seed.
func NewTier(inner engine.Cache, seed workload.Seed, spec Spec) *Tier {
	return &Tier{
		inner: inner,
		get:   NewInjector(seed.Split("get"), spec),
		put:   NewInjector(seed.Split("put"), spec),
	}
}

// Get applies the schedule, then delegates. Faulted Gets are misses —
// the tier contract has no way to say more, and the engine must treat
// any tier failure as "simulate it yourself".
func (t *Tier) Get(key string) (*engine.Record, bool) {
	d := t.get.Next()
	if d.Latency > 0 {
		time.Sleep(d.Latency)
	}
	if d.Fault != FaultNone {
		return nil, false
	}
	return t.inner.Get(key)
}

// Put applies the schedule, then delegates. Faulted Puts error without
// touching the inner cache (the entry is simply not stored — a lost
// replication opportunity, which callers must already tolerate).
func (t *Tier) Put(key string, rec *engine.Record) error {
	d := t.put.Next()
	if d.Latency > 0 {
		time.Sleep(d.Latency)
	}
	if d.Fault != FaultNone {
		return fmt.Errorf("chaos: put %s: %w", d.Fault, ErrInjected)
	}
	return t.inner.Put(key, rec)
}

// Has forwards the side-effect-free probe when the inner cache offers
// it. Probes are not faulted: Has is an optimisation seam, and a false
// negative here would only change *where* a lookup happens, adding
// schedule noise without exercising any failure contract.
func (t *Tier) Has(key string) bool {
	if h, ok := t.inner.(interface{ Has(string) bool }); ok {
		return h.Has(key)
	}
	return false
}

// Warm forwards plan warm-up when the inner cache supports it.
func (t *Tier) Warm(ctx context.Context, keys []string) int {
	if w, ok := t.inner.(engine.Warmer); ok {
		return w.Warm(ctx, keys)
	}
	return 0
}

// CacheStats forwards the inner cache's occupancy.
func (t *Tier) CacheStats() engine.CacheStats {
	if r, ok := t.inner.(engine.StatsReporter); ok {
		return r.CacheStats()
	}
	return engine.CacheStats{}
}

// TierStats forwards the inner cache's per-tier counters, so wrapping a
// cache in chaos does not blind the stats surface being tested.
func (t *Tier) TierStats() []engine.TierStats {
	if r, ok := t.inner.(engine.TierStatsReporter); ok {
		return r.TierStats()
	}
	return nil
}
