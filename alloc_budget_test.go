package godpm_test

import (
	"context"
	"testing"

	"godpm/internal/experiments"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/workload"
)

// idleHeavyConfig is an ON/OFF workload dominated by idle time: ~40 ms
// bursts at 200 req/s separated by ~1.6 s lulls at 0.5 req/s, the regime
// DPM exists for — and the one where a ticked kernel would spend almost
// all of its wall clock sampling an idle SoC.
func idleHeavyConfig(seed uint64, numTasks int) soc.Config {
	p := workload.DefaultMMPP(workload.NewSeed(seed), numTasks)
	p.QuietRate = 0.5
	p.MeanQuiet = 1600 * sim.Ms
	return soc.Config{
		IPs:     []soc.IPSpec{{Name: "ip0", Arrivals: p.MustGenerate()}},
		Battery: soc.DefaultBattery(0.95),
		Policy:  soc.PolicyDPM,
	}
}

// TestRunAllocationBudgets bounds the heap allocations of one whole
// simulation run. The kernel and the accountant allocate nothing per
// event or per sample, so a run's count is mostly SoC assembly and
// result assembly; a budget catches an allocation that creeps into a
// per-event, per-sample or per-task path. Each budget is the count
// measured on go1.24.0 linux/amd64 (the same with and without -race)
// plus 10%.
func TestRunAllocationBudgets(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    soc.Config
		opts   soc.RunOptions
		budget float64
	}{
		{"A", experiments.A1(benchTuning()).Config, soc.RunOptions{}, 135},
		{"BC", experiments.B(benchTuning()).Config, soc.RunOptions{}, 356},
		{"idle/fastforward", idleHeavyConfig(11, 40), soc.RunOptions{}, 128},
		{"idle/ticked", idleHeavyConfig(11, 40), soc.RunOptions{NoFastForward: true}, 127},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() {
				if _, err := soc.RunWith(context.Background(), tc.cfg, tc.opts); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm up: first-use initialisation is not per-run cost
			got := testing.AllocsPerRun(10, run)
			if got > tc.budget {
				t.Fatalf("%.0f allocs per run, budget %.0f", got, tc.budget)
			}
		})
	}
}
