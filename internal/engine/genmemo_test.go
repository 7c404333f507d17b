package engine_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"godpm/internal/engine"
	"godpm/internal/soc"
	"godpm/internal/sweep"
	"godpm/internal/workload"
)

// TestTournamentMaterializesOncePerReplicate: every entrant of a
// (scenario, seed) replicate carries the same generator spec, so a
// tournament of P policies × S scenarios × N seeds generates S·N
// workloads, not one per job (and not the two per job that keying and
// running each used to cost), on 1 and 4 workers, cached or not.
func TestTournamentMaterializesOncePerReplicate(t *testing.T) {
	var calls atomic.Int64
	defer engine.CountMaterializations(func(workload.Spec) { calls.Add(1) })()

	tour := engine.Tournament{
		Policies:  engine.StandardPolicies(),
		Scenarios: engine.ArenaScenarios(20),
		Seeds:     []workload.Seed{1, 2, 3},
	}
	replicates := int64(len(tour.Scenarios) * len(tour.Seeds))
	for _, workers := range []int{1, 4} {
		for _, noCache := range []bool{false, true} {
			calls.Store(0)
			eng := engine.New(engine.Options{Workers: workers, NoCache: noCache})
			if _, err := engine.RunTournament(context.Background(), eng, tour); err != nil {
				t.Fatal(err)
			}
			if got := calls.Load(); got != replicates {
				t.Errorf("%d workers, NoCache %v: %d workloads generated for %d replicates of %d jobs",
					workers, noCache, got, replicates, replicates*int64(len(tour.Policies)))
			}
		}
	}
}

// TestMaterializePanicFailsEverySharer: a generator that panics fails
// every job of its replicate with an error wrapping ErrInternal, and
// never hands a job an empty workload.
func TestMaterializePanicFailsEverySharer(t *testing.T) {
	defer engine.CountMaterializations(func(workload.Spec) { panic("generator exploded") })()
	tour := engine.Tournament{
		Policies:  engine.StandardPolicies(),
		Scenarios: engine.ArenaScenarios(20)[:1],
		Seeds:     []workload.Seed{1},
	}
	plan, err := tour.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		results, err := engine.New(engine.Options{Workers: workers}).Run(context.Background(), plan)
		if err == nil {
			t.Fatalf("%d workers: no error", workers)
		}
		for _, jr := range results {
			if !errors.Is(jr.Err, engine.ErrInternal) || !strings.Contains(jr.Err.Error(), "generator exploded") {
				t.Fatalf("%d workers: job %s: err %v, want ErrInternal naming the panic", workers, jr.Job.ID, jr.Err)
			}
		}
	}
}

// TestArenaCycleMatchesSoloRuns is the differential check for shared
// workloads: every job of one arena cycle — a tournament, whose entrants
// share one generated workload per replicate and run concurrently, then
// a horizon study, whose jobs share fork sessions — served by the engine
// has the digest of a solo soc.RunWith of its own config. Run it under
// -race: the shared workloads are read by concurrent runs.
func TestArenaCycleMatchesSoloRuns(t *testing.T) {
	root := workload.NewSeed(7)
	tour := engine.Tournament{
		Policies:  engine.StandardPolicies()[:4],
		Scenarios: engine.ArenaScenarios(40),
		Seeds:     []workload.Seed{root.SplitN(0), root.SplitN(1), root.SplitN(2)},
	}
	tourPlan, err := tour.Plan()
	if err != nil {
		t.Fatal(err)
	}
	plans := []engine.Plan{tourPlan, sweep.HorizonStudy(int64(root.SplitN(3)>>1), 40).Plan()}

	ctx := context.Background()
	for _, noCache := range []bool{false, true} {
		eng := engine.New(engine.Options{Workers: 4, NoCache: noCache})
		for _, plan := range plans {
			results, err := eng.Run(ctx, plan)
			if err != nil {
				t.Fatal(err)
			}
			for i, job := range plan.Jobs {
				solo, err := soc.RunWith(ctx, job.Config, job.Options)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := engine.ResultDigest(results[i].Result), engine.ResultDigest(solo); got != want {
					t.Errorf("NoCache %v: job %s: engine digest %s, solo %s", noCache, job.ID, got, want)
				}
			}
		}
		if st := eng.Stats(); !noCache && st.Forked == 0 {
			t.Errorf("the horizon study did not fork: %+v", st)
		}
	}
}
