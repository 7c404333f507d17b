package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"godpm/internal/soc"
)

// Fork groups — the engine end of the sweep warm-start. Jobs whose
// configurations are identical except for Horizon (and stop conditions,
// which live in RunOptions) simulate the same trajectory up to their
// respective cut points, so the engine batches them into one
// soc.RunForked session: the shared prefix runs once and each member's
// Result is finished at its cut, bit-identical to a solo run (the soc
// fork-equivalence tests pin this). Each member keeps its own cache key,
// so a later solo run of any member is still a hit.

// forkable reports whether a job may join a fork group. Observed jobs run
// solo (a shared session has nowhere to attach per-member observers),
// volatile jobs are not pure functions of their config, NoFastForward is
// a benchmarking knob asking for untouched solo scheduling, and per-tick
// GEM bus polling is rejected by soc.RunForked. Cold-run engines
// (NoCache) never fork: their benchmarks price solo simulations.
func (e *Engine) forkable(job Job) bool {
	if e.cache == nil {
		return false
	}
	if len(job.Options.Observers) > 0 || job.Options.Volatile() || job.Options.NoFastForward {
		return false
	}
	return !(job.Config.UseGEM && job.Config.GEM.BusOccupancyLimit > 0)
}

// workUnit is one dispatchable unit of a plan: a single job, or a fork
// group that one worker runs as a shared session.
type workUnit struct {
	indices []int // plan positions; len > 1 means a fork group
}

// planUnits partitions the plan into work units, preserving plan order by
// first occurrence, and derives up front the keys a plan-wide step needs:
// every job's cache key when the store warms up for the plan, and the keys
// of forkable jobs when the plan has at least two of them. Each of those
// jobs is normalized and encoded once, and its cache key and fork-prefix
// key share that encoding. All other keys stay zero; runJob derives them
// on its worker, so plans that neither warm nor fork (NoCache engines,
// observed jobs, single-job serving plans) key in parallel and never pay
// for the prefix hash.
//
// The up-front keys are derived in parallel too, on at most e.workers
// goroutines counting the caller (see keyJobs), so keying a grid does not
// hold every worker back by the sum of its jobs' keying times. Grouping
// runs serially afterwards, over the index-aligned keys, so unit order and
// fork groups do not depend on which goroutine keyed which job.
//
// Unforkable jobs (and jobs whose config does not normalize — runJob
// surfaces the error) become solo units; forkable jobs sharing a prefix
// key collapse into one group unit. The prefix key is the fingerprint of
// the normalized config with Horizon zeroed. Normalized horizons are
// never zero, so the zero marks "any horizon" — two jobs share a prefix
// key iff their configs are identical modulo Horizon, which is exactly
// when they share a trajectory prefix. The returned keys are index-aligned
// with plan.Jobs.
func (e *Engine) planUnits(plan Plan) ([]jobKeys, []workUnit) {
	nForkable := 0
	for _, job := range plan.Jobs {
		if e.forkable(job) {
			nForkable++
		}
	}
	warming := e.warms(plan)
	var need []keyTask
	for i, job := range plan.Jobs {
		if fork := nForkable >= 2 && e.forkable(job); fork || warming {
			need = append(need, keyTask{i: i, fork: fork})
		}
	}
	keys := make([]jobKeys, len(plan.Jobs))
	keyJobs(plan.Jobs, need, keys, e.workers)

	units := make([]workUnit, 0, len(plan.Jobs))
	slot := make(map[string]int)
	for i := range plan.Jobs {
		prefix := keys[i].prefix
		if prefix == "" {
			units = append(units, workUnit{indices: []int{i}})
			continue
		}
		if u, ok := slot[prefix]; ok {
			units[u].indices = append(units[u].indices, i)
			continue
		}
		slot[prefix] = len(units)
		units = append(units, workUnit{indices: []int{i}})
	}
	return keys, units
}

// keyTask names a job planUnits keys up front, and whether it needs the
// fork-prefix key.
type keyTask struct {
	i    int
	fork bool
}

// goKeyer starts one keying goroutine; tests count the calls.
var goKeyer = func(f func()) { go f() }

// keyJobs derives keys[t.i] for every task, on the caller and up to
// workers−1 more goroutines, which take tasks from a shared counter. Every
// job's keys land in its own slot, so the result does not depend on the
// schedule. Fewer than two tasks start no goroutine. A panic while keying
// becomes that job's key error, wrapping ErrInternal, as runJob would
// report it: a keying goroutine has no caller to unwind to.
func keyJobs(jobs []Job, tasks []keyTask, keys []jobKeys, workers int) {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var next atomic.Int64
	keyAll := func() {
		for {
			n := int(next.Add(1) - 1)
			if n >= len(tasks) {
				return
			}
			t := tasks[n]
			keys[t.i] = safeKeysOf(jobs[t.i], t.fork)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		goKeyer(func() {
			defer wg.Done()
			keyAll()
		})
	}
	keyAll()
	wg.Wait()
}

// safeKeysOf is keysOf with a panic turned into the keys' error.
func safeKeysOf(job Job, withPrefix bool) (k jobKeys) {
	defer func() {
		if p := recover(); p != nil {
			k = jobKeys{err: fmt.Errorf("%w: job %s: keying panicked: %v", ErrInternal, job.ID, p), done: true}
		}
	}()
	return keysOf(job, withPrefix)
}

// runForked runs a fork group's shared session; tests replace it.
var runForked = soc.RunForked

// runGroup executes one fork group: members already cached are served as
// ordinary hits, members led elsewhere (a concurrent identical job holds
// the flight) fall back to the solo path, and everything else runs as ONE
// shared soc.RunForked session whose per-member snapshots are stored
// under the members' individual cache keys. Results land in out at each
// member's plan position; keys are the plan's precomputed job keys.
//
// A panic costs the group's jobs, not the process: as in runJob, every
// flight the group still leads is finished with an error wrapping
// ErrInternal that names the member, and every member left with neither
// a result nor an error gets one.
func (e *Engine) runGroup(ctx context.Context, jobs []Job, keys []jobKeys, indices []int, out []JobResult) {
	type liveMember struct {
		i      int
		key    string
		flight *flight // nil once finished
	}
	var live []liveMember
	var fallback []int
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		for _, i := range indices {
			if out[i].Result != nil || out[i].Err != nil {
				continue
			}
			e.errs.Add(1)
			err := fmt.Errorf("%w: job %s: its fork group panicked: %v", ErrInternal, jobs[i].ID, p)
			out[i] = JobResult{Job: jobs[i], Key: keys[i].key, Err: err}
		}
		for _, m := range live {
			if m.flight != nil {
				e.flights.finish(m.key, m.flight, nil, nil, out[m.i].Err)
			}
		}
	}()
	for _, i := range indices {
		job := jobs[i]
		if err := ctx.Err(); err != nil {
			e.canceled.Add(1)
			out[i] = JobResult{Job: job, Err: err}
			continue
		}
		key := keys[i].key
		if err := keys[i].err; err != nil {
			e.errs.Add(1)
			out[i] = JobResult{Job: job, Err: err}
			continue
		}
		out[i] = JobResult{Job: job, Key: key}
		// Same probe protocol as runJob: a cheap local-tier look first, a
		// full (remote-included) probe only for flight leaders — a group
		// of N members then costs at most N remote round-trips, exactly
		// like N solo leaders, not N per-member probes.
		if rec, ok := e.probe(key, true); ok {
			if r, derr := rec.Result(); derr == nil {
				e.hits.Add(1)
				out[i].Result, out[i].Record, out[i].CacheHit = r, rec, true
				continue
			}
		}
		f, leader := e.flights.join(key)
		if !leader {
			fallback = append(fallback, i)
			continue
		}
		live = append(live, liveMember{i: i, key: key, flight: f})
		if rec, ok := e.probe(key, false); ok {
			if r, derr := rec.Result(); derr == nil {
				live = live[:len(live)-1]
				e.flights.finish(key, f, r, rec, nil)
				e.hits.Add(1)
				out[i].Result, out[i].Record, out[i].CacheHit = r, rec, true
				continue
			}
		}
	}

	if len(live) > 0 {
		members := make([]soc.ForkMember, len(live))
		for j, m := range live {
			members[j] = soc.ForkMember{
				Horizon:  jobs[m.i].Config.Horizon,
				StopWhen: jobs[m.i].Options.StopWhen,
			}
		}
		e.misses.Add(int64(len(live)))
		e.runs.Add(1)
		t0 := time.Now()
		rs, err := runForked(ctx, jobs[live[0].i].Config, members)
		e.runLat.RecordDuration(time.Since(t0))
		if err != nil {
			for j, m := range live {
				e.countFailure(err)
				out[m.i].Err = err
				live[j].flight = nil
				e.flights.finish(m.key, m.flight, nil, nil, err)
			}
		} else {
			e.forked.Add(int64(len(live) - 1))
			for j, m := range live {
				r := rs[j]
				var rec *Record
				if rec, _ = NewRecord(m.key, r); rec != nil {
					_ = e.cache.Put(m.key, rec)
				}
				out[m.i].Result, out[m.i].Record = r, rec
				live[j].flight = nil
				e.flights.finish(m.key, m.flight, r, rec, nil)
			}
		}
	}

	// Members whose flight is led by a concurrent identical job take the
	// ordinary path: wait on that flight, or hit whatever the cache holds
	// by now.
	for _, i := range fallback {
		out[i] = e.runJob(ctx, jobs[i], keys[i], false)
	}
}
