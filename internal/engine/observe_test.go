package engine_test

import (
	"context"
	"testing"
	"time"

	"godpm/internal/engine"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/stats"
)

// tallyObserver counts task completions across runs.
type tallyObserver struct {
	soc.NopObserver
	tasks int
}

func (o *tallyObserver) TaskDone(t sim.Time, rec *stats.TaskRecord) { o.tasks++ }

// TestObservedJobCacheServed is the contract that motivated the observer
// redesign: instrumentation no longer makes a job uncacheable. The first
// run simulates (observer sees the tasks); the rerun of the same plan is
// cache-served — and, being unsimulated, is silent to the observer.
func TestObservedJobCacheServed(t *testing.T) {
	obs := &tallyObserver{}
	var plan engine.Plan
	plan.Jobs = append(plan.Jobs, engine.Job{ID: "watched", Config: testConfig(1, soc.PolicyDPM, 10),
		Options: soc.RunOptions{Observers: []soc.Observer{obs}}})

	eng := engine.New(engine.Options{Workers: 1})
	first, err := eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].CacheHit {
		t.Fatal("first run cannot be a cache hit")
	}
	if obs.tasks == 0 {
		t.Fatal("observer saw no tasks on the simulated run")
	}
	seen := obs.tasks

	second, err := eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !second[0].CacheHit {
		t.Fatal("observed job was not cache-served on rerun")
	}
	if engine.ResultDigest(second[0].Result) != engine.ResultDigest(first[0].Result) {
		t.Fatal("cache returned a different result")
	}
	if obs.tasks != seen {
		t.Errorf("observer fired on a cache-served job (%d -> %d)", seen, obs.tasks)
	}
	if st := eng.Stats(); st.Runs != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 run / 1 hit", st)
	}
}

// TestStopConditionsPartitionTheCache: a job with a stop condition must not
// share a cache slot with the bare job of the same Config — stopping early
// changes the Result — but reruns of the same stopped job are cache-served.
func TestStopConditionsPartitionTheCache(t *testing.T) {
	cfg := testConfig(2, soc.PolicyDPM, 40)
	stop := soc.RunOptions{StopWhen: []soc.StopCondition{soc.StopOnEnergyBudget(1e-3)}}
	var plan engine.Plan
	plan.Add("bare", cfg)
	plan.Jobs = append(plan.Jobs, engine.Job{ID: "stopped", Config: cfg, Options: stop})

	eng := engine.New(engine.Options{Workers: 1})
	results, err := eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Key == results[1].Key {
		t.Fatal("stopped job shares the bare job's cache key")
	}
	if results[1].CacheHit {
		t.Fatal("stopped job hit the bare job's cache entry")
	}
	if results[1].Result.StopReason == "" {
		t.Fatal("stop condition never fired")
	}
	if results[1].Result.Duration >= results[0].Result.Duration {
		t.Fatal("stopped run did not end early")
	}

	rerun, err := eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rerun[0].CacheHit || !rerun[1].CacheHit {
		t.Fatalf("rerun not cache-served: bare=%v stopped=%v", rerun[0].CacheHit, rerun[1].CacheHit)
	}
	if rerun[1].Result.StopReason != results[1].Result.StopReason {
		t.Fatal("cached stopped result lost its StopReason")
	}
}

// TestVolatileJobsNeverCached: wall-clock stop conditions depend on host
// timing, so their jobs must simulate every time.
func TestVolatileJobsNeverCached(t *testing.T) {
	var plan engine.Plan
	plan.Jobs = append(plan.Jobs, engine.Job{ID: "volatile", Config: testConfig(3, soc.PolicyDPM, 5),
		Options: soc.RunOptions{StopWhen: []soc.StopCondition{soc.StopOnWallClock(time.Hour)}}})
	eng := engine.New(engine.Options{Workers: 1})
	for i := 0; i < 2; i++ {
		if _, err := eng.Run(context.Background(), plan); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.Stats(); st.Runs != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 runs / 0 hits", st)
	}
}

// TestOnStartStreamsProgress: OnStart fires exactly once per job before its
// OnResult, giving CLIs a live start/finish stream.
func TestOnStartStreamsProgress(t *testing.T) {
	plan := testPlan(5)
	started := make(map[int]bool)
	eng := engine.New(engine.Options{
		Workers: 4,
		OnStart: func(i int, job engine.Job) {
			if started[i] {
				t.Errorf("job %d started twice", i)
			}
			started[i] = true
		},
		OnResult: func(i int, jr engine.JobResult) {
			if !started[i] {
				t.Errorf("job %d finished before OnStart", i)
			}
		},
	})
	if _, err := eng.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if len(started) != plan.Len() {
		t.Fatalf("started %d of %d jobs", len(started), plan.Len())
	}
}
