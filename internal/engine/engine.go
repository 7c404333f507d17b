// Package engine executes batches of SoC simulations concurrently: it
// shards a Plan of soc.Config jobs across a bounded worker pool, runs each
// job on its own discrete-event kernel (soc.Run is single-goroutine and
// deterministic, so parallelism across jobs is free), and aggregates the
// results order-stably — the result slice is index-aligned with the plan
// no matter which worker finished first.
//
// Every job is content-addressed: Fingerprint hashes the normalized
// soc.Config, and a Store (a sharded bounded LRU in memory, optionally
// over a directory of binary record containers and the fleet's shared
// store) short-circuits jobs whose fingerprint has already been
// computed. Concurrent jobs with the same fingerprint additionally
// collapse to one simulation (singleflight): the waiters are
// served the winner's result as cache hits. Repeated invocations of the
// same experiment grid — the paper's Table 2 scenarios, ablation sweeps,
// seed-replication fan-outs — therefore cost one simulation per distinct
// configuration, ever, when a disk cache is shared between runs.
//
// Each job is normalized once: its key is derived from the normalized
// config (soc.NormalConfig), and a miss simulates that same config. Within
// one Run, each distinct workload generator spec is generated once and
// its workload shared by every job that carries it, such as the entrants
// of one tournament replicate, through a memo that lives only as long as
// the call (see genMemo).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"godpm/internal/soc"
	"godpm/internal/stats"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds the worker pool; 0 means runtime.NumCPU().
	Workers int
	// Cache stores results by fingerprint: a *Store (see NewStore for
	// one that persists across processes), or an *LRU, which runs as a
	// memory-only store; nil means a fresh default LRU.
	Cache Storage
	// NoCache disables caching entirely (every job simulates), used by
	// benchmarks that need cold runs. It takes precedence over Cache.
	NoCache bool
	// OnStart, when non-nil, observes every job as a worker picks it up.
	// Calls are serialised with OnResult; the index is the job's plan
	// position. Together they let a CLI stream live grid progress.
	OnStart func(i int, job Job)
	// OnResult, when non-nil, observes every finished job in completion
	// order. Calls are serialised; the index is the job's plan position.
	OnResult func(i int, jr JobResult)
}

// JobResult is the outcome of one job.
type JobResult struct {
	Job Job
	// Key is the config fingerprint ("" when fingerprinting failed).
	Key string
	// Result is nil iff Err is non-nil. Cached results are shared across
	// jobs and invocations — treat them as immutable.
	Result *soc.Result
	// Record carries Result's cache record — the pre-encoded canonical
	// bytes plus cached content digest — when the job went through the
	// cache (hit or stored miss). Serving layers write Record bytes
	// instead of re-marshalling Result. Nil for uncached (volatile or
	// NoCache) jobs and failures; shared and immutable like Result.
	Record *Record
	Err    error
	// CacheHit reports that Result came from the cache.
	CacheHit bool
}

// Stats are the engine's cumulative counters.
type Stats struct {
	// Hits and Misses count cache lookups; Runs counts simulations
	// actually executed (== Misses unless caching is disabled); Errors
	// counts failed jobs. Jobs served by waiting on a concurrent
	// identical simulation (singleflight) count as Hits.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Runs   int64 `json:"runs"`
	Errors int64 `json:"errors"`
	// Canceled counts jobs abandoned or aborted by context cancellation —
	// kept apart from Errors so progress reporting and /statsz don't
	// present cancellations as failures.
	Canceled int64 `json:"canceled"`
	// Deduped counts the singleflight waiters: jobs served the result of
	// a concurrent identical simulation without probing the cache. They
	// are included in Hits.
	Deduped int64 `json:"deduped"`
	// Forked counts the simulations avoided by fork groups (sweep
	// warm-start): jobs served from a shared soc.RunForked session beyond
	// the first member. They are included in Misses but not in Runs, so
	// Runs == Misses - Forked when caching is enabled.
	Forked int64 `json:"forked"`
	// Evictions, CacheEntries and CacheBytes are the store's occupancy:
	// evictions summed over its tiers, entries and bytes of its deepest
	// local tier (the files when there are any, else memory); zero
	// without a store.
	Evictions    int64 `json:"evictions"`
	CacheEntries int64 `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes"`
	// Tiers splits the store's counters per tier (memory/disk/remote hits
	// and misses), fastest first; nil without a store. This is how
	// fleet-wide dedup is observed rather than inferred: remote-tier hits
	// are simulations another process ran.
	Tiers []TierStats `json:"tiers,omitempty"`
	// RunLatency is the wall-clock distribution of executed simulations
	// (cache hits excluded — they are the serving layer's latency, not
	// the engine's), as a mergeable sketch plus headline quantiles; nil
	// until the first simulation completes.
	RunLatency *stats.Latency `json:"run_latency,omitempty"`
}

// Engine runs plans. It is safe for concurrent use; counters and cache
// accumulate across Run calls, which is what makes a second invocation of
// the same plan observably cache-served.
type Engine struct {
	workers  int
	cache    *Store // nil when caching is off
	flights  flightGroup
	onStart  func(i int, job Job)
	onResult func(i int, jr JobResult)
	cbMu     sync.Mutex

	hits, misses, runs, errs, canceled, deduped, forked atomic.Int64
	runLat                                              stats.Histogram
}

// New builds an engine.
func New(opts Options) *Engine {
	w := opts.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	var c *Store
	switch {
	case opts.NoCache:
	case opts.Cache == nil:
		c = NewLRU(LRUOptions{}).store()
	default:
		c = opts.Cache.store()
	}
	return &Engine{workers: w, cache: c, onStart: opts.OnStart, onResult: opts.OnResult}
}

// Workers returns the pool bound.
func (e *Engine) Workers() int { return e.workers }

// Stats returns a snapshot of the cumulative counters, including the
// store's per-tier counters and occupancy.
func (e *Engine) Stats() Stats {
	st := Stats{
		Hits:     e.hits.Load(),
		Misses:   e.misses.Load(),
		Runs:     e.runs.Load(),
		Errors:   e.errs.Load(),
		Canceled: e.canceled.Load(),
		Deduped:  e.deduped.Load(),
		Forked:   e.forked.Load(),
	}
	if e.cache != nil {
		st.Tiers, st.CacheEntries, st.CacheBytes, st.Evictions = e.cache.snapshot()
	}
	if snap := e.runLat.Snapshot(); snap.Count > 0 {
		l := stats.LatencyOf(snap)
		st.RunLatency = &l
	}
	return st
}

// simulate runs a job's normalized config, recording its wall-clock cost
// in the run-latency sketch.
func (e *Engine) simulate(ctx context.Context, norm soc.NormalConfig, opts soc.RunOptions) (*soc.Result, error) {
	t0 := time.Now()
	r, err := norm.Run(ctx, opts)
	e.runLat.RecordDuration(time.Since(t0))
	return r, err
}

// ErrInternal marks the error of a job that panicked, or of one that
// otherwise ended with neither a result nor an error: a fault of the
// engine or the model, not of the job's config.
var ErrInternal = errors.New("engine: internal failure")

// Run executes every job of the plan and returns the results index-aligned
// with plan.Jobs. It always returns a full-length slice; jobs that failed
// (or were abandoned on cancellation) carry their error in their slot, and
// the joined error of all failed jobs — including ctx.Err() if the context
// ended the run early — is returned alongside.
//
// Cancellation is prompt: in-flight simulations poll ctx at least every
// 1024 samples and abort with ctx.Err(); queued jobs are abandoned with
// ctx.Err() without starting.
//
// Jobs whose configs differ only in Horizon (or stop conditions) are
// batched into fork groups and run as one shared soc.RunForked session —
// the common trajectory prefix simulates once; see fork.go. Each member
// still gets its own cache entry and its Result is bit-identical to a
// solo run's.
func (e *Engine) Run(ctx context.Context, plan Plan) ([]JobResult, error) {
	return e.RunObserved(ctx, plan, nil)
}

// RunObserved is Run with a per-invocation result observer: onResult
// (when non-nil) sees every finished job in completion order, serialised
// with the engine-wide Options callbacks. It exists for callers that
// stream progress of one plan (e.g. tournament progress reporting) on a
// shared long-lived engine.
//
// Each distinct workload generator spec is generated once per call, by a
// memo that every job's normalization goes through and that dies with the
// call (see genMemo).
func (e *Engine) RunObserved(ctx context.Context, plan Plan, onResult func(i int, jr JobResult)) ([]JobResult, error) {
	n := len(plan.Jobs)
	results := make([]JobResult, n)
	gen := newGenMemo().materialize
	keys, units := e.planUnits(plan, gen)
	e.warm(ctx, plan, keys)

	workers := e.workers
	if workers > len(units) {
		workers = len(units)
	}
	if workers < 1 {
		workers = 1
	}

	notify := func(i int, jr JobResult) {
		if e.onResult == nil && onResult == nil {
			return
		}
		e.cbMu.Lock()
		if e.onResult != nil {
			e.onResult(i, jr)
		}
		if onResult != nil {
			onResult(i, jr)
		}
		e.cbMu.Unlock()
	}

	uidx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range uidx {
				unit := units[u]
				if e.onStart != nil {
					e.cbMu.Lock()
					for _, i := range unit.indices {
						e.onStart(i, plan.Jobs[i])
					}
					e.cbMu.Unlock()
				}
				if len(unit.indices) == 1 {
					i := unit.indices[0]
					jr := e.runJob(ctx, plan.Jobs[i], keys[i], false, gen)
					results[i] = jr
					notify(i, jr)
					continue
				}
				e.runGroup(ctx, plan.Jobs, keys, unit.indices, results, gen)
				for _, i := range unit.indices {
					notify(i, results[i])
				}
			}
		}()
	}
feed:
	for u := 0; u < len(units); u++ {
		select {
		case uidx <- u:
		case <-ctx.Done():
			// Mark everything not yet handed to a worker as abandoned.
			// Abandonment is cancellation, not failure.
			for j := u; j < len(units); j++ {
				for _, i := range units[j].indices {
					results[i] = JobResult{Job: plan.Jobs[i], Err: ctx.Err()}
					e.canceled.Add(1)
				}
			}
			break feed
		}
	}
	close(uidx)
	wg.Wait()

	var errs []error
	for i := range results {
		if results[i].Result == nil && results[i].Err == nil {
			results[i].Job = plan.Jobs[i]
			results[i].Err = fmt.Errorf("%w: job %s finished without a result", ErrInternal, plan.Jobs[i].ID)
		}
		if results[i].Err != nil {
			errs = append(errs, fmt.Errorf("engine: job %s: %w", results[i].Job.ID, results[i].Err))
		}
	}
	return results, errors.Join(errs...)
}

// warm pre-populates a store with a remote tier with the plan's
// distinct fingerprints before dispatch: one batched stat against the
// shared store replaces per-job remote round-trips, and every entry the
// fleet already computed arrives in the local tiers before a worker
// would have simulated it. Single-job plans skip it — the per-job Get
// covers them.
func (e *Engine) warm(ctx context.Context, plan Plan, keys []jobKeys) {
	if !e.warms(plan) {
		return
	}
	seen := make(map[string]struct{}, len(plan.Jobs))
	distinct := make([]string, 0, len(plan.Jobs))
	for i, job := range plan.Jobs {
		k := keys[i].key
		if job.Options.Volatile() || keys[i].err != nil {
			continue
		}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		distinct = append(distinct, k)
	}
	if len(distinct) > 0 {
		e.cache.Warm(ctx, distinct)
	}
}

// warms reports whether warm does anything for the plan.
func (e *Engine) warms(plan Plan) bool {
	return len(plan.Jobs) >= 2 && e.cache != nil && e.cache.remote != nil
}

// runJob executes one job: key derivation (unless planUnits already did
// it; workloads are generated with gen), cache probe, singleflight join,
// simulate the normalized config the key was derived from, store.
// Concurrent jobs with the same key collapse to one simulation — the
// waiters are served the winner's result as cache hits, so a stampede of
// identical jobs costs one run and never double-counts Misses. probed
// says the caller's Lookup has just missed this job's key, so the first
// pre-flight probe is skipped and the local tiers count one miss, as on
// Run.
//
// A panic anywhere in the job — normalizing or keying its config, the
// run, the record — is contained in the job's result as an error wrapping
// ErrInternal, and a flight the job leads is finished with it, so the
// job's waiters get the error too instead of waiting forever.
func (e *Engine) runJob(ctx context.Context, job Job, keys jobKeys, probed bool, gen soc.Materializer) (jr JobResult) {
	var led *flight // the flight this job leads, until it finishes it
	defer func() {
		if p := recover(); p != nil {
			err := fmt.Errorf("%w: job %s panicked: %v", ErrInternal, job.ID, p)
			if led != nil {
				e.flights.finish(keys.key, led, nil, nil, err)
			}
			e.errs.Add(1)
			jr = JobResult{Job: job, Key: keys.key, Err: err}
		}
	}()
	if err := ctx.Err(); err != nil {
		e.canceled.Add(1)
		return JobResult{Job: job, Err: err}
	}
	if !keys.done {
		keys = keysOf(job, false, gen)
	}
	jr = JobResult{Job: job, Key: keys.key}
	if keys.err != nil {
		e.errs.Add(1)
		jr.Err = keys.err
		return jr
	}
	// Observers are pure instrumentation (an observed run's Result is
	// bit-identical to a bare run), so they never block caching — though a
	// cache-served job does not simulate and its observers see nothing.
	// Stop conditions are part of the key; only Volatile (host-timing)
	// conditions make a job uncacheable. Uncacheable jobs also skip
	// dedup: NoCache benchmarks want cold runs, and volatile jobs are
	// not interchangeable.
	if e.cache == nil || job.Options.Volatile() {
		e.runs.Add(1)
		jr.Result, jr.Err = e.simulate(ctx, keys.norm, job.Options)
		if jr.Err != nil {
			e.countFailure(jr.Err)
		}
		return jr
	}
	for {
		// The pre-flight probe skips expensive remote tiers when the cache
		// distinguishes them: a stampede of identical jobs then costs one
		// network round-trip (the flight leader's full probe below), not
		// one per job. A record that fails to decode — corrupt bytes that
		// survived the container checksum — is NOT a hit: fall through to
		// the flight, whose leader re-simulates and overwrites the entry.
		if !probed {
			if hit, ok := e.Lookup(jr.Key); ok {
				hit.Job = job
				return hit
			}
		}
		probed = false
		f, leader := e.flights.join(jr.Key)
		if !leader {
			select {
			case <-f.done:
				if f.err != nil {
					if isCancellation(f.err) && ctx.Err() == nil {
						// The winner's context died, not the work — retake
						// the flight (or hit the cache, if a sibling won).
						continue
					}
					e.countFailure(f.err)
					jr.Err = f.err
					return jr
				}
				e.hits.Add(1)
				e.deduped.Add(1)
				jr.Result, jr.Record, jr.CacheHit = f.r, f.rec, true
				return jr
			case <-ctx.Done():
				e.canceled.Add(1)
				jr.Err = ctx.Err()
				return jr
			}
		}
		led = f
		// Leader. A sibling may have populated the cache between our miss
		// and the join; re-probe — this time through every tier, remote
		// included — before paying for a simulation. An undecodable record
		// is treated as a miss, so the simulation below heals the slot.
		if rec, ok := e.probe(jr.Key, false); ok {
			if r, derr := rec.Result(); derr == nil {
				led = nil
				e.flights.finish(jr.Key, f, r, rec, nil)
				e.hits.Add(1)
				jr.Result, jr.Record, jr.CacheHit = r, rec, true
				return jr
			}
		}
		e.misses.Add(1)
		e.runs.Add(1)
		r, runErr := e.simulate(ctx, keys.norm, job.Options)
		var rec *Record
		if runErr == nil {
			// Build the record (the one marshal this result will ever pay)
			// and Put before finish: retired flights send latecomers to the
			// cache, so it must already hold the result. A cache-write
			// failure degrades caching, not correctness.
			if rec, _ = NewRecord(jr.Key, r); rec != nil {
				_ = e.cache.Put(jr.Key, rec)
			}
		} else {
			e.countFailure(runErr)
		}
		led = nil
		e.flights.finish(jr.Key, f, r, rec, runErr)
		jr.Result, jr.Record, jr.Err = r, rec, runErr
		return jr
	}
}

// Lookup serves a job whose cache key the caller already knows, without
// its config: it is runJob's pre-flight probe, of the local tiers only,
// and on a hit returns the decoded result and its record, counted as one
// hit. A missing or undecodable record returns false and counts nothing;
// the caller then runs the job through Run, which counts the miss, joins
// the flight (so a stampede still costs one remote round trip) and heals
// a bad slot.
func (e *Engine) Lookup(key string) (JobResult, bool) {
	if e.cache == nil {
		return JobResult{}, false
	}
	rec, ok := e.probe(key, true)
	if !ok {
		return JobResult{}, false
	}
	r, err := rec.Result()
	if err != nil {
		return JobResult{}, false
	}
	e.hits.Add(1)
	return JobResult{Key: key, Result: r, Record: rec, CacheHit: true}, true
}

// RunAfterLookup is Run for a one-job plan whose pre-flight probe a
// Lookup of the job's key has just made and missed: it starts past that
// probe, so the local tiers see one lookup per request, as on Run. The
// Options callbacks fire as they do for Run. Called without a preceding
// Lookup it merely skips the probe, and the leader's full probe still
// finds a cached record.
func (e *Engine) RunAfterLookup(ctx context.Context, job Job) JobResult {
	if e.onStart != nil {
		e.cbMu.Lock()
		e.onStart(0, job)
		e.cbMu.Unlock()
	}
	jr := e.runJob(ctx, job, jobKeys{}, true, materializeSpec)
	if e.onResult != nil {
		e.cbMu.Lock()
		e.onResult(0, jr)
		e.cbMu.Unlock()
	}
	return jr
}

// probe looks the key up in the store; localOnly restricts the lookup
// to the cheap local tiers.
func (e *Engine) probe(key string, localOnly bool) (*Record, bool) {
	if localOnly {
		return e.cache.GetLocal(key)
	}
	return e.cache.Get(key)
}

// countFailure books a failed job under Canceled or Errors.
func (e *Engine) countFailure(err error) {
	if isCancellation(err) {
		e.canceled.Add(1)
	} else {
		e.errs.Add(1)
	}
}

// isCancellation reports whether err is a context cancellation rather
// than a simulation failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
