// Command godpm-bench is godpm's benchmark. One run measures one workload
// for a fixed time and prints every metric by name with its unit, checking
// each result the program produced against a committed oracle:
//
//	bash bench/run.sh --workload paper_grid_cold --seed 1 --seconds 10 --trace 0
//
// Four workloads cover the program's layers (see README.md):
//
//   - paper_grid_cold: Table 2 grids on fresh engines (kernel, soc, record
//     encode; no cache hits);
//   - arena_sweep_cold: tournaments plus a horizon sweep (generator
//     materialisation, idle fast-forward, fork warm-start);
//   - serve_hot: open-loop cache hits against a real dpmserve (resolve,
//     fingerprint, LRU, HTTP; no simulation);
//   - serve_churn: an open-loop miss/hit/tournament mix against dpmserve
//     in front of a real dpmremote (record writes, the remote tier).
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// replays the first quarter of the same inputs with spans recorded around
// every layer call and reports the per-layer metrics. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. A run that fails a validity or
// correctness check still prints it, with correct false, and exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run, identical for every
// workload (BENCHMARK.json lists the same names and units).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"kind_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"table2_err_pp", "pp"},
}

// perLayer are the metrics of a traced run. A layer the workload does not
// reach reports 0.
var perLayer = []metricDef{
	{"loadgen.lateness_p99_ms", "ms"},
	{"loadgen.conn_wait_p50_ms", "ms"},
	{"loadgen.latency_p99_ms", "ms"},
	{"loadgen.tournament_p50_ms", "ms"},
	{"dpmserve.simulate_p50_ms", "ms"},
	{"dpmserve.simulate_p99_ms", "ms"},
	{"dpmserve.tournament_p50_ms", "ms"},
	{"dpmserve.http_p50_ms", "ms"},
	{"dpmserve.throttled", "count"},
	{"dpmserve.max_rps_slo", "req/s"},
	{"experiments.resolve_us", "us"},
	{"experiments.resolve_allocs", "count"},
	{"workload.normalize_us", "us"},
	{"workload.normalize_allocs", "count"},
	{"workload.plan_ms", "ms"},
	{"engine.fingerprint_us", "us"},
	{"engine.fingerprint_allocs", "count"},
	{"engine.fork_prefix_us", "us"},
	{"engine.lru_get_us", "us"},
	{"engine.lru_put_us", "us"},
	{"engine.record_new_us", "us"},
	{"engine.record_encode_us", "us"},
	{"engine.record_decode_us", "us"},
	{"engine.record_bytes", "B"},
	{"engine.run_p50_ms", "ms"},
	{"engine.hit_ratio", "fraction"},
	{"engine.runs", "count"},
	{"engine.forked_frac", "fraction"},
	{"engine.deduped", "count"},
	{"engine.evictions", "count"},
	{"engine.idle_frac", "fraction"},
	{"engine.remote_hit_ratio", "fraction"},
	{"engine.remote_errors", "count"},
	{"soc.run_us", "us"},
	{"soc.setup_us", "us"},
	{"soc.fork_ms", "ms"},
	{"sim.kcycles_per_s", "Kcycle/s"},
	{"sim.kernel_share", "fraction"},
	{"sim.deltas_per_job", "count"},
	{"dpmremote.blob_get_p50_ms", "ms"},
	{"dpmremote.blob_put_p50_ms", "ms"},
	{"dpmremote.puts", "count"},
	{"trace.coverage", "fraction"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	// bin holds the prebuilt dpmserve and dpmremote binaries.
	bin string
	// out receives the traced run's spans file.
	out string
	// log receives progress lines (standard error in a real run).
	log io.Writer
	// setups is how many times the run sets up (setup_s is their median);
	// the smoke test sets up once.
	setups int
}

// outcome is what a workload run hands back: counts of attempted and
// failed operations (a failed oracle check counts as a failed operation),
// the metrics it measured, and the validity checks that failed.
type outcome struct {
	attempted int64
	failed    int64
	metrics   map[string]float64
	invalid   []error
	// prefix is the run's oracle prefix (descriptor → digest), kept for
	// -update-oracle.
	prefix map[string]string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// fail books one failed operation with its reason.
func (o *outcome) fail(err error) {
	o.failed++
	o.invalid = append(o.invalid, err)
}

// check books a failed correctness or validity check without counting an
// operation.
func (o *outcome) check(err error) {
	if err != nil {
		o.invalid = append(o.invalid, err)
	}
}

type runner func(ctx context.Context, o options) (*outcome, error)

var workloads = map[string]runner{
	"paper_grid_cold":  runPaperGrid,
	"arena_sweep_cold": runArenaSweep,
	"serve_hot":        runServeHot,
	"serve_churn":      runServeChurn,
}

// report is the result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload and assembles its report. An error means the
// run could not be carried out at all (no report is printed).
func run(ctx context.Context, o options) (*report, []error, error) {
	r, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	out, err := r(ctx, o)
	if err != nil {
		return nil, nil, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	rep := &report{Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metricValue, len(defs))}
	problems := out.invalid
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Errorf("metric %s is not finite", d.Name))
			v = 0
		}
		if !o.trace && v <= 0 {
			problems = append(problems, fmt.Errorf("end-to-end metric %s is %g, want > 0", d.Name, v))
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if rep.Attempted < 1 {
		problems = append(problems, errors.New("no operation attempted"))
	}
	rep.Correct = len(problems) == 0 && rep.Failed == 0
	return rep, problems, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "paper_grid_cold | arena_sweep_cold | serve_hot | serve_churn")
		seed     = flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", 10, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		bin      = flag.String("bin", "", "directory with prebuilt dpmserve and dpmremote binaries (serving workloads)")
		out      = flag.String("out", os.TempDir(), "directory for the traced run's <workload>-<seed>.spans.json")
		update   = flag.String("update-oracle", "", "recompute the seed-1 oracle of every workload into this file, then exit")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: --seconds must be > 0, got %g\n", *seconds)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *update != "" {
		if err := updateOracle(ctx, *update, *bin, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	rep, problems, err := run(ctx, options{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		bin:      *bin,
		out:      *out,
		log:      os.Stderr,
		setups:   setupRepeats,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	printTable(os.Stdout, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// printTable renders the report for humans, one metric per line.
func printTable(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "%-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-30s %14d / %d\n", "failed / attempted", rep.Failed, rep.Attempted)
}
