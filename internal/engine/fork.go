package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

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
//
// A group is a work unit like a solo job, and runs through the same path
// (runUnit): its members are claimed one by one, and the members it leads
// share one session through the runForked seam, or run alone when only
// one of them is left to simulate.

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

// planUnits partitions the plan into work units, preserving plan order by
// first occurrence, and derives up front the keys a plan-wide step needs:
// every job's cache key when the store warms up for the plan, and the keys
// of forkable jobs when the plan has at least two of them. Each of those
// jobs is normalized and encoded once, and its cache key and fork-prefix
// key share that encoding. All other keys stay zero; runUnit derives them
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
// Unforkable jobs (and jobs whose config does not normalize — runUnit
// surfaces the error) become solo units; forkable jobs sharing a prefix
// key collapse into one group unit. The prefix key is the fingerprint of
// the normalized config with Horizon zeroed. Normalized horizons are
// never zero, so the zero marks "any horizon" — two jobs share a prefix
// key iff their configs are identical modulo Horizon, which is exactly
// when they share a trajectory prefix. The returned keys are index-aligned
// with plan.Jobs.
func (e *Engine) planUnits(plan Plan, gen soc.Materializer) ([]jobKeys, [][]int) {
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
	keyJobs(plan.Jobs, need, keys, e.workers, gen)

	units := make([][]int, 0, len(plan.Jobs))
	slot := make(map[string]int)
	for i := range plan.Jobs {
		prefix := keys[i].prefix
		if u, ok := slot[prefix]; ok {
			units[u] = append(units[u], i)
			continue
		}
		if prefix != "" {
			slot[prefix] = len(units)
		}
		units = append(units, []int{i})
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
// becomes that job's key error, wrapping ErrInternal, as runUnit would
// report it: a keying goroutine has no caller to unwind to. Workloads are
// generated by gen.
func keyJobs(jobs []Job, tasks []keyTask, keys []jobKeys, workers int, gen soc.Materializer) {
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
			keys[t.i] = safeKeysOf(jobs[t.i], t.fork, gen)
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
func safeKeysOf(job Job, withPrefix bool, gen soc.Materializer) (k jobKeys) {
	defer func() {
		if p := recover(); p != nil {
			k = jobKeys{err: fmt.Errorf("%w: job %s: keying panicked: %v", ErrInternal, job.ID, p), done: true}
		}
	}()
	return keysOf(job, withPrefix, gen)
}

// runForked runs the shared session of a unit's leaders; tests replace
// it.
var runForked = soc.NormalConfig.RunForked
