package engine_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"godpm/internal/engine"
	"godpm/internal/experiments"
	"godpm/internal/lem"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/stats"
	"godpm/internal/sweep"
	"godpm/internal/workload"
)

// realisticConfigs are every built-in configuration: the paper's
// scenarios, the extensions, the design-choice variants the root ablation
// benchmarks run, the arena catalog and the sweep studies.
func realisticConfigs(t *testing.T) []soc.Config {
	t.Helper()
	tun := experiments.DefaultTuning()
	tun.NumTasks = 20
	var cfgs []soc.Config
	for _, s := range append(experiments.All(tun), experiments.Extensions(tun)...) {
		cfgs = append(cfgs, s.Config, experiments.Baseline(s))
	}
	for _, kind := range []soc.PredictorKind{
		soc.PredictorEWMA, soc.PredictorLast, soc.PredictorPerfect,
		soc.PredictorAdaptive, soc.PredictorQuantile,
	} {
		cfg := experiments.A1(tun).Config
		cfg.LEM.Predictor = kind
		cfgs = append(cfgs, cfg)
	}
	ungated := experiments.A1(tun).Config
	ungated.LEM.DisableBreakEven = true
	linear := experiments.B(tun).Config
	linear.Battery = soc.BatteryConfig{Kind: "linear", CapacityJ: linear.Battery.CapacityJ, InitialSoC: linear.Battery.InitialSoC}
	noGEM := experiments.B(tun).Config
	noGEM.UseGEM = false
	cfgs = append(cfgs, ungated, linear, noGEM)
	for _, nc := range engine.ArenaScenarios(20) {
		cfgs = append(cfgs, nc.Config)
	}
	for _, name := range sweep.StudyNames() {
		st, err := sweep.Resolve(name, 1, 20)
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range st.Plan().Jobs {
			cfgs = append(cfgs, job.Config)
		}
	}
	return cfgs
}

// TestKeysMatchReference compares every derived key — fingerprint, job key
// with stop conditions, fork-prefix key — with the reference on the
// built-in configurations.
func TestKeysMatchReference(t *testing.T) {
	stops := []soc.StopCondition{soc.StopOnBatteryEmpty(), soc.StopOnEnergyBudget(0.5)}
	for i, cfg := range realisticConfigs(t) {
		norm, err := cfg.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := engine.ConfigEncoding(&norm), engine.RefConfigEncoding(&norm); !bytes.Equal(got, want) {
			t.Fatalf("config %d: encoding differs from the reference", i)
		}
		job := engine.Job{Config: cfg, Options: soc.RunOptions{StopWhen: stops[:i%3]}}
		key, prefix, err := engine.JobKeys(job)
		if err != nil {
			t.Fatal(err)
		}
		fp, _ := engine.RefFingerprint(cfg)
		if got, _ := engine.Fingerprint(cfg); got != fp {
			t.Errorf("config %d: Fingerprint %s, reference %s", i, got, fp)
		}
		if want, _ := engine.RefJobKey(job); key != want {
			t.Errorf("config %d: job key %s, reference %s", i, key, want)
		}
		if want, _ := engine.RefForkPrefixKey(cfg); prefix != want {
			t.Errorf("config %d: prefix key %s, reference %s", i, prefix, want)
		}
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestResultDigestMatchesReference digests real simulation results —
// ledgers, LEM statistics, per-IP energy maps — against the reference.
func TestResultDigestMatchesReference(t *testing.T) {
	tun := experiments.DefaultTuning()
	tun.NumTasks = 20
	for _, s := range append(experiments.All(tun), experiments.Extensions(tun)...) {
		res, err := soc.Run(s.Config)
		if err != nil {
			t.Fatal(err)
		}
		want := sha256Hex(engine.RefResultEncoding(res))
		if got := engine.ResultDigest(res); got != want {
			t.Errorf("%s: digest %s, reference %s", s.ID, got, want)
		}
	}
}

// recordForm is the Result a record of r decodes to: r with WallSeconds
// zeroed, and a ledger without rows holding a nil row slice, as one
// Ledger.Add starts does. Nil and empty maps, and a nil and an empty
// ledger, stay apart.
func recordForm(r *soc.Result) *soc.Result {
	c := *r
	c.WallSeconds = 0
	if c.Ledger != nil && c.Ledger.Len() == 0 {
		c.Ledger = stats.NewLedger(nil)
	}
	return &c
}

// checkRecordRoundTrip stores rec's container as every store writes it,
// decodes it back and requires the Result of res (see recordForm): deeply
// equal, with the record's digest, and marshalling to res's JSON, which
// is what dpmserve answers with on a hit and on a miss.
func checkRecordRoundTrip(t *testing.T, name string, rec *engine.Record, res *soc.Result) {
	t.Helper()
	data, err := rec.Encode(engine.CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := engine.DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Result()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := recordForm(res)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded Result differs from the simulated one", name)
	}
	if d := engine.ResultDigest(got); d != engine.ResultDigest(res) || d != rec.Digest() {
		t.Fatalf("%s: decoded digest %s, simulated %s, stored %s", name, d, engine.ResultDigest(res), rec.Digest())
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("%s: decoded Result marshals to other JSON (%d vs %d bytes)", name, len(gotJSON), len(wantJSON))
	}
}

// TestRecordBodyMatchesJSONOnRealResults round-trips the records of the
// real results of every Table 2 run (DPM and baseline) and every arena
// entrant, on workload seeds 1-4: each decodes to the simulated Result,
// WallSeconds aside, and marshals to its JSON.
func TestRecordBodyMatchesJSONOnRealResults(t *testing.T) {
	seeds := []workload.Seed{1, 2, 3, 4}
	var cfgs []soc.Config
	for _, seed := range seeds {
		tun := experiments.DefaultTuning()
		tun.Seed = int64(seed)
		for _, s := range experiments.All(tun) {
			cfgs = append(cfgs, s.Config, experiments.Baseline(s))
		}
	}
	arena := engine.Tournament{Policies: engine.StandardPolicies(), Scenarios: engine.ArenaScenarios(40), Seeds: seeds}
	plan, err := arena.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range plan.Jobs {
		cfgs = append(cfgs, job.Config)
	}
	for i, cfg := range cfgs {
		res, err := soc.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := engine.NewRecord("k", res)
		if err != nil {
			t.Fatal(err)
		}
		checkRecordRoundTrip(t, fmt.Sprint("config ", i), rec, res)
	}
}

// TestRecordDecodeMatchesJSONOnRealResults decodes the stored record of
// every job of a plan holding the Table 2 runs (DPM and baseline, seeds 1
// and 2), the extensions, an arena tournament and every sweep study, run
// through a caching engine so fork groups serve members from shared
// sessions. Each Result must equal the job's, WallSeconds aside, carry
// its digest and marshal to its JSON. So must variants with nil and empty
// maps and nil and empty ledgers.
func TestRecordDecodeMatchesJSONOnRealResults(t *testing.T) {
	var plan engine.Plan
	for _, seed := range []int64{1, 2} {
		tun := experiments.DefaultTuning()
		tun.Seed = seed
		for _, s := range append(experiments.All(tun), experiments.Extensions(tun)...) {
			plan.AddPair(fmt.Sprint(s.ID, seed), s.Config, experiments.Baseline(s))
		}
	}
	arena, err := engine.Tournament{Policies: engine.StandardPolicies(), Scenarios: engine.ArenaScenarios(40),
		Seeds: []workload.Seed{1, 2}}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	plan.Jobs = append(plan.Jobs, arena.Jobs...)
	for _, name := range sweep.StudyNames() {
		st, err := sweep.Resolve(name, 1, 20)
		if err != nil {
			t.Fatal(err)
		}
		plan.Jobs = append(plan.Jobs, st.Plan().Jobs...)
	}
	eng := engine.New(engine.Options{Workers: 2})
	results, err := eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Forked == 0 {
		t.Fatalf("no job was served as a forked member: %+v", st)
	}
	for _, jr := range results {
		if jr.Err != nil || jr.Record == nil {
			t.Fatalf("job %s: error %v, record %v", jr.Job.ID, jr.Err, jr.Record)
		}
		checkRecordRoundTrip(t, jr.Job.ID, jr.Record, jr.Result)
	}
	for i, variant := range []func(r *soc.Result){
		func(r *soc.Result) { r.Ledger = nil },
		func(r *soc.Result) { r.Ledger = stats.NewLedger(nil) },
		func(r *soc.Result) { r.Ledger = stats.NewLedger([]stats.TaskRecord{}) },
		func(r *soc.Result) { r.EnergyByIP, r.LEMStats = nil, nil },
		func(r *soc.Result) { r.EnergyByIP, r.LEMStats = map[string]float64{}, map[string]lem.Stats{} },
		func(r *soc.Result) {
			r.LEMStats = map[string]lem.Stats{"ip0": {}, "ip1": {OnDecisions: map[string]int{}}}
		},
	} {
		for _, jr := range results[:8] {
			r := *jr.Result
			variant(&r)
			rec, err := engine.NewRecord(jr.Key, &r)
			if err != nil {
				t.Fatal(err)
			}
			checkRecordRoundTrip(t, fmt.Sprintf("%s variant %d", jr.Job.ID, i), rec, &r)
		}
	}
}

// TestHashAllocBudget keeps fmt (or any per-field allocation) out of the
// hash path: the budgets are the measured counts plus a small margin.
func TestHashAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	tun := experiments.DefaultTuning()
	tun.NumTasks = 60
	cfg := experiments.B(tun).Config
	res, err := soc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Normalization dominates Fingerprint's count: the IPs copy, the
	// default rule table and profile. The encoding itself allocates
	// nothing beyond the key string.
	if n := testing.AllocsPerRun(20, func() { _, _ = engine.Fingerprint(cfg) }); n > fingerprintAllocBudget {
		t.Errorf("Fingerprint(B) allocates %.0f times, budget %d", n, fingerprintAllocBudget)
	}
	// One sort slice per map plus the digest string.
	if n := testing.AllocsPerRun(20, func() { _ = engine.ResultDigest(res) }); n > digestAllocBudget {
		t.Errorf("ResultDigest(B) allocates %.0f times, budget %d", n, digestAllocBudget)
	}
}

// Measured on B at 60 tasks: 9 and 11.
const (
	fingerprintAllocBudget = 12
	digestAllocBudget      = 14
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestRunNormalizesOncePerJob counts the engine's normalizations through
// normalizeConfig, the only way it normalizes: exactly one per job,
// whether the job misses (its run simulates the config its key was
// derived from) or hits, on a cached engine whose plan forks, on a
// NoCache engine, and through RunAfterLookup.
func TestRunNormalizesOncePerJob(t *testing.T) {
	var calls atomic.Int64
	defer engine.CountNormalizations(func() { calls.Add(1) })()

	plan := sweep.HorizonStudy(1, 20).Plan()
	tun := experiments.DefaultTuning()
	tun.NumTasks = 20
	for _, s := range experiments.All(tun)[:2] {
		plan.AddPair(s.ID, s.Config, experiments.Baseline(s))
	}
	ctx := context.Background()
	count := func(name string, want int, run func()) {
		t.Helper()
		calls.Store(0)
		run()
		if got := calls.Load(); got != int64(want) {
			t.Errorf("%s: %d normalizations for %d jobs", name, got, want)
		}
	}
	hits := func(name string, results []engine.JobResult, err error, want bool) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, jr := range results {
			if jr.CacheHit != want {
				t.Fatalf("%s: job %s cache hit %v, want %v", name, jr.Job.ID, jr.CacheHit, want)
			}
		}
	}

	eng := engine.New(engine.Options{Workers: 2})
	count("cached, miss", len(plan.Jobs), func() {
		results, err := eng.Run(ctx, plan)
		hits("cached, miss", results, err, false)
	})
	if st := eng.Stats(); st.Forked == 0 {
		t.Fatalf("plan did not fork: %+v", st)
	}
	count("cached, hit", len(plan.Jobs), func() {
		results, err := eng.Run(ctx, plan)
		hits("cached, hit", results, err, true)
	})
	count("NoCache", len(plan.Jobs), func() {
		results, err := engine.New(engine.Options{Workers: 2, NoCache: true}).Run(ctx, plan)
		hits("NoCache", results, err, false)
	})

	srv := engine.New(engine.Options{Workers: 2})
	job := plan.Jobs[0]
	for _, want := range []bool{false, true} {
		name := fmt.Sprintf("RunAfterLookup, hit %v", want)
		count(name, 1, func() {
			jr := srv.RunAfterLookup(ctx, job)
			hits(name, []engine.JobResult{jr}, jr.Err, want)
		})
	}
}

// TestEngineRunsTheConfigItKeyed: the engine simulates the config its
// normalization returned, not the job's raw config. A normalization that
// cuts every horizon to a thousandth shows up in every result — solo
// misses, fork-group members, NoCache runs and RunAfterLookup — as the
// digest of a solo run of the cut config.
func TestEngineRunsTheConfigItKeyed(t *testing.T) {
	cut := func(c soc.Config) soc.Config {
		c.Horizon /= 1000
		return c
	}
	defer engine.RewriteNormalizations(cut)()

	ctx := context.Background()
	check := func(name string, job engine.Job, jr engine.JobResult) {
		t.Helper()
		if jr.Err != nil {
			t.Fatalf("%s: job %s: %v", name, job.ID, jr.Err)
		}
		solo, err := soc.RunWith(ctx, cut(job.Config), job.Options)
		if err != nil {
			t.Fatal(err)
		}
		if solo.Completed {
			t.Fatalf("%s: job %s completes within the cut horizon; the check shows nothing", name, job.ID)
		}
		if got, want := engine.ResultDigest(jr.Result), engine.ResultDigest(solo); got != want {
			t.Errorf("%s: job %s: digest %s, a solo run of the keyed config gives %s", name, job.ID, got, want)
		}
	}
	solo := testPlan(25)
	forked := horizonPlan(7, []sim.Time{30 * sim.Ms, 75 * sim.Ms, 60 * sim.Sec})
	for _, tc := range []struct {
		name string
		plan engine.Plan
		opts engine.Options
	}{
		{"solo", solo, engine.Options{Workers: 2}},
		{"forked", forked, engine.Options{Workers: 2}},
		{"NoCache", forked, engine.Options{Workers: 2, NoCache: true}},
	} {
		eng := engine.New(tc.opts)
		results, err := eng.Run(ctx, tc.plan)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st := eng.Stats(); (st.Forked > 0) != (tc.name == "forked") {
			t.Fatalf("%s: Forked = %d", tc.name, st.Forked)
		}
		for i, job := range tc.plan.Jobs {
			check(tc.name, job, results[i])
		}
	}
	job := solo.Jobs[0]
	check("RunAfterLookup", job, engine.New(engine.Options{}).RunAfterLookup(ctx, job))
}

// TestRunKeysOnWorkersWithoutFork checks that a plan which neither forks
// nor warms leaves key derivation to the workers: a NoCache run still
// normalizes each job once, and a run whose context is already canceled
// normalizes nothing.
func TestRunKeysOnWorkersWithoutFork(t *testing.T) {
	var calls atomic.Int64
	defer engine.CountNormalizations(func() { calls.Add(1) })()

	plan := sweep.HorizonStudy(1, 20).Plan()
	eng := engine.New(engine.Options{Workers: 2, NoCache: true})
	if _, err := eng.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if got, want := calls.Load(), int64(len(plan.Jobs)); got != want {
		t.Errorf("NoCache run: %d normalizations for %d jobs", got, want)
	}

	calls.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx, plan); err == nil {
		t.Fatal("canceled run returned no error")
	}
	if got := calls.Load(); got != 0 {
		t.Errorf("canceled run: %d normalizations, want 0", got)
	}
}

// TestPlanUnitsKeysInParallel: planUnits keys a plan's jobs on up to
// Workers goroutines, and at Workers 1, 2 and 8 returns the keys a serial
// pass of JobKeys derives and the units that grouping those keys by
// fork-prefix key in plan order gives — for a Table 2 grid, a horizon
// study (fork groups), an arena tournament, and a horizon study with an
// observed, unforkable job, which only a warming engine keys up front. A
// single-job plan starts no goroutine.
func TestPlanUnitsKeysInParallel(t *testing.T) {
	tun := experiments.DefaultTuning()
	tun.NumTasks = 20
	grid := experiments.Plan(experiments.All(tun))
	arena, err := engine.Tournament{Policies: engine.StandardPolicies(), Scenarios: engine.ArenaScenarios(20),
		Seeds: []workload.Seed{1, 2}}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	observed := sweep.HorizonStudy(1, 20).Plan()
	observed.Jobs[1].Options.Observers = []soc.Observer{soc.NopObserver{}}
	single := engine.Plan{Jobs: grid.Jobs[:1]}

	// A store with a remote tier warms up for a multi-job plan, so its
	// engine keys every job up front.
	ts, _, _ := blobServerForTest(t)
	warming := func() engine.Storage { return newStore(t, "", ts.URL) }

	var started atomic.Int64
	defer engine.CountKeyGoroutines(func() { started.Add(1) })()
	for _, tc := range []struct {
		name    string
		plan    engine.Plan
		cache   func() engine.Storage
		fork    bool // whether the plan has fork groups
		unkeyed int  // the job left to its worker, or -1
	}{
		{"table2", grid, nil, false, -1},
		{"horizon", sweep.HorizonStudy(1, 20).Plan(), nil, true, -1},
		{"arena", arena, nil, false, -1},
		{"observed", observed, nil, true, 1},
		{"warming", observed, warming, true, -1},
		{"single", single, nil, false, 0},
	} {
		for _, workers := range []int{1, 2, 8} {
			opts := engine.Options{Workers: workers}
			if tc.cache != nil {
				opts.Cache = tc.cache()
			}
			started.Store(0)
			keys, prefixes, units := engine.PlanUnits(engine.New(opts), tc.plan)
			keyed := 0
			for _, k := range keys {
				if k != "" {
					keyed++
				}
			}
			if want := max(min(workers, keyed)-1, 0); started.Load() != int64(want) {
				t.Errorf("%s, %d workers: %d keying goroutines for %d keyed jobs, want %d",
					tc.name, workers, started.Load(), keyed, want)
			}

			slot := map[string]int{}
			var want [][]int
			grouped := false
			for i, job := range tc.plan.Jobs {
				key, prefix, err := engine.JobKeys(job)
				if err != nil {
					t.Fatal(err)
				}
				if keys[i] != "" && keys[i] != key || prefixes[i] != "" && prefixes[i] != prefix {
					t.Fatalf("%s, %d workers: job %d keyed %q/%q, want %q/%q", tc.name, workers, i, keys[i], prefixes[i], key, prefix)
				}
				if keyed := keys[i] != ""; keyed != (i != tc.unkeyed) {
					t.Fatalf("%s, %d workers: job %d keyed up front: %v", tc.name, workers, i, keyed)
				}
				if u, ok := slot[prefixes[i]]; ok && prefixes[i] != "" {
					want[u] = append(want[u], i)
					grouped = true
					continue
				}
				slot[prefixes[i]] = len(want)
				want = append(want, []int{i})
			}
			if grouped != tc.fork {
				t.Errorf("%s, %d workers: fork groups %v, want %v", tc.name, workers, grouped, tc.fork)
			}
			if fmt.Sprint(units) != fmt.Sprint(want) {
				t.Errorf("%s, %d workers: units %v, want %v", tc.name, workers, units, want)
			}
		}
	}
}

// TestKeyingPanicIsContained: a panic while planUnits keys a job, on the
// caller or on a keying goroutine, becomes that job's error wrapping
// ErrInternal instead of killing the process.
func TestKeyingPanicIsContained(t *testing.T) {
	defer engine.CountNormalizations(func() { panic("keying exploded") })()
	plan := sweep.HorizonStudy(1, 20).Plan()
	for _, workers := range []int{1, 4} {
		results, err := engine.New(engine.Options{Workers: workers}).Run(context.Background(), plan)
		if err == nil {
			t.Fatalf("%d workers: no error", workers)
		}
		for i, jr := range results {
			if !errors.Is(jr.Err, engine.ErrInternal) || !strings.Contains(jr.Err.Error(), "keying exploded") {
				t.Fatalf("%d workers: job %d: err %v, want ErrInternal naming the panic", workers, i, jr.Err)
			}
		}
	}
}
