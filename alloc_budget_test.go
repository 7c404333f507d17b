package godpm_test

import (
	"context"
	"testing"

	"godpm/internal/engine"
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
// measured on go1.24.0 linux/amd64 plus 10%. The counts are the same
// with and without -race, except the record row's: sync.Pool drops
// buffers under the race detector, so that row is skipped there.
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
			checkAllocBudget(t, tc.budget, func() {
				if _, err := soc.RunWith(context.Background(), tc.cfg, tc.opts); err != nil {
					t.Fatal(err)
				}
			})
		})
	}

	// A miss encodes its result once into a pooled buffer. The budget on
	// scenario B's record (24 measured, 94 when encoding/json wrote the
	// body) keeps reflection and per-value allocation out of the body
	// encoder and the digest; a fractional time renders without strconv's
	// float path allocating.
	t.Run("record", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the pooled encoding buffer is not reused under the race detector")
		}
		res, err := soc.Run(experiments.B(benchTuning()).Config)
		if err != nil {
			t.Fatal(err)
		}
		checkAllocBudget(t, 26, func() {
			if _, err := engine.NewRecord("key", res); err != nil {
				t.Fatal(err)
			}
		})
	})
	// A disk or remote hit decodes its record: DecodeRecord, then Result
	// inflates the body and reads it in one pass, its ledger rows into one
	// slice and its repeated strings interned. The budget on scenario B's
	// flate container (54 measured, 618 when json.Unmarshal read the body)
	// keeps per-row and per-value allocation out of the decoder.
	t.Run("decode", func(t *testing.T) {
		res, err := soc.Run(experiments.B(benchTuning()).Config)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := engine.NewRecord("key", res)
		if err != nil {
			t.Fatal(err)
		}
		data, err := rec.Encode(engine.CodecFlate)
		if err != nil {
			t.Fatal(err)
		}
		checkAllocBudget(t, 59, func() {
			dec, err := engine.DecodeRecord(data)
			if err == nil {
				_, err = dec.Result()
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("time", func(t *testing.T) {
		buf := make([]byte, 0, 64)
		checkAllocBudget(t, 0, func() { buf = (1234567 * sim.Ns).Append(buf[:0]) })
	})
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// checkAllocBudget fails t when run allocates more than budget times on
// average, after one warm-up call: first-use initialisation is not
// per-run cost.
func checkAllocBudget(t *testing.T, budget float64, run func()) {
	t.Helper()
	run()
	if got := testing.AllocsPerRun(10, run); got > budget {
		t.Fatalf("%.0f allocs per run, budget %.0f", got, budget)
	}
}
