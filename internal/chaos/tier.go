package chaos

import (
	"fmt"
	"time"

	"godpm/internal/engine"
	"godpm/internal/workload"
)

// Tier wraps a store tier (an engine.Cache, in every shipped
// configuration the memory tier) with a deterministic fault schedule.
// This seam carries whole records, not raw bytes, so faults map onto the
// tier contract's only two failure shapes: a faulted Get is a miss, a
// faulted Put returns an error. Corrupt/torn decisions degrade to the
// same — fabricating a corrupted *engine.Record here would poison
// callers by construction, which is exactly the bug class the
// byte-level seams (RoundTripper, FaultFS) exist to exercise instead.
//
// Gets and Puts draw from independent schedules (independent seed
// splits), so the mix of operations does not perturb either stream.
// Has and Stats forward to the inner tier unfaulted: Has is an
// optimisation seam, where a false negative would only change where a
// lookup happens, and stats must stay visible under test.
type Tier struct {
	engine.Cache
	get *Injector
	put *Injector
}

// NewTier wraps inner with the spec's fault schedule rooted at seed.
func NewTier(inner engine.Cache, seed workload.Seed, spec Spec) *Tier {
	return &Tier{
		Cache: inner,
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
	return t.Cache.Get(key)
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
	return t.Cache.Put(key, rec)
}
