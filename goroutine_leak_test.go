package godpm_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"godpm/internal/experiments"
	"godpm/internal/sim"
	"godpm/internal/soc"
)

// settledGoroutines polls runtime.NumGoroutine until it is at most want or
// a deadline passes, and returns the last count. Goroutines of earlier
// tests may still be winding down, so a count is only trusted once it has
// had a moment to settle.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunsLeaveNoGoroutines pins that a kernel holds no goroutine of its
// own and that no run leaves one behind, on every way a run can end: a run
// to the horizon, a run whose context is cancelled before or during the
// run, a run cut short by StopWhen and a forked group. Every sim process
// is a method that runs on the goroutine calling Kernel.Run, so a
// goroutine that outlives a run means some layer started one and lost it.
func TestRunsLeaveNoGoroutines(t *testing.T) {
	cfg := experiments.B(benchTuning()).Config
	full, err := soc.RunWith(context.Background(), cfg, soc.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	midway := soc.StopOnEnergyBudget(full.EnergyJ / 2)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"RunWith", func(t *testing.T) {
			if _, err := soc.RunWith(context.Background(), cfg, soc.RunOptions{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"cancelled", func(t *testing.T) {
			if _, err := soc.RunWith(cancelled, cfg, soc.RunOptions{}); err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		}},
		{"cancelled mid-run", func(t *testing.T) {
			// The condition never fires; it cancels the run's context at
			// the first sample, after the IP processes have started.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			canceller := soc.StopCondition{Reason: "cancel", Eval: func(*soc.Probe) bool {
				cancel()
				return false
			}}
			_, err := soc.RunWith(ctx, cfg, soc.RunOptions{StopWhen: []soc.StopCondition{canceller}})
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		}},
		{"StopWhen", func(t *testing.T) {
			res, err := soc.RunWith(context.Background(), cfg,
				soc.RunOptions{StopWhen: []soc.StopCondition{midway}})
			if err != nil {
				t.Fatal(err)
			}
			if res.StopReason != midway.Reason || res.TasksDone >= full.TasksDone {
				t.Fatalf("run was not stopped mid-way: reason %q, %d of %d tasks",
					res.StopReason, res.TasksDone, full.TasksDone)
			}
		}},
		{"RunForked", func(t *testing.T) {
			members := []soc.ForkMember{
				{Horizon: 100 * sim.Ms},
				{StopWhen: []soc.StopCondition{midway}},
				{},
			}
			res, err := soc.RunForked(context.Background(), cfg, members)
			if err != nil {
				t.Fatal(err)
			}
			if res[0].TasksDone >= full.TasksDone || res[2].TasksDone != full.TasksDone {
				t.Fatalf("fork members did %d and %d of %d tasks",
					res[0].TasksDone, res[2].TasksDone, full.TasksDone)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for range 5 {
				tc.run(t)
			}
			if n := settledGoroutines(base); n > base {
				t.Fatalf("%d goroutines after 5 runs, %d before", n, base)
			}
		})
	}
}
