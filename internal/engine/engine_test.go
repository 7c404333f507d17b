package engine_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"godpm/internal/engine"
	"godpm/internal/rules"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/task"
	"godpm/internal/workload"
)

// testConfig builds a quick single-IP simulation parameterised by seed and
// policy, cheap enough to fan out under -race.
func testConfig(seed int64, policy soc.PolicyKind, numTasks int) soc.Config {
	p := workload.HighActivity(seed, numTasks)
	p.PriorityWeights = [task.NumPriorities]float64{1, 2, 2, 1}
	return soc.Config{
		IPs:      []soc.IPSpec{{Name: "ip0", Sequence: p.MustGenerate()}},
		Policy:   policy,
		Battery:  soc.DefaultBattery(0.95),
		BusWords: 16,
		Horizon:  60 * sim.Sec,
	}
}

// newStore builds a store over a default memory tier, with a disk tier
// under dir unless dir is empty and a remote tier talking to the store
// at remote unless remote is empty. The test closes it.
func newStore(t *testing.T, dir, remote string) *engine.Store {
	t.Helper()
	var ropts *engine.RemoteOptions
	if remote != "" {
		ropts = &engine.RemoteOptions{BaseURL: remote}
	}
	s, err := engine.NewStore(engine.NewLRU(engine.LRUOptions{}), dir, engine.DiskOptions{}, ropts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// testPlan fans three seeds out over DPM and the always-on baseline.
func testPlan(numTasks int) engine.Plan {
	var p engine.Plan
	for _, seed := range []int64{1, 2, 3} {
		p.Add(fmt.Sprintf("dpm@%d", seed), testConfig(seed, soc.PolicyDPM, numTasks))
		p.Add(fmt.Sprintf("base@%d", seed), testConfig(seed, soc.PolicyAlwaysOn, numTasks))
	}
	return p
}

func TestFingerprintStable(t *testing.T) {
	a, err := engine.Fingerprint(testConfig(1, soc.PolicyDPM, 10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Fingerprint(testConfig(1, soc.PolicyDPM, 10))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical configs hash differently: %s vs %s", a, b)
	}

	// Normalization: leaving a defaultable field zero and setting it to
	// its documented default is the same configuration.
	explicit := testConfig(1, soc.PolicyDPM, 10)
	explicit.SampleInterval = 100 * sim.Us
	explicit.Timeout = 5 * sim.Ms
	explicit.LEM = soc.LEMOptions{Predictor: soc.PredictorEWMA, Alpha: 0.5, Table: rules.Table1()}
	c, err := engine.Fingerprint(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Fatal("explicitly-set defaults changed the fingerprint")
	}

	// Options that cannot influence the run don't influence the key:
	// GEM settings without a GEM, LEM settings under a non-DPM policy.
	unusedGEM := testConfig(1, soc.PolicyDPM, 10)
	unusedGEM.GEM.HighPriorityCutoff = 7
	unusedGEM.Timeout = 7 * sim.Ms // only read by the timeout policy
	d, err := engine.Fingerprint(unusedGEM)
	if err != nil {
		t.Fatal(err)
	}
	if a != d {
		t.Fatal("unused GEM/timeout options changed the fingerprint")
	}
	lastA := testConfig(1, soc.PolicyDPM, 10)
	lastA.LEM.Predictor = soc.PredictorLast
	lastA.LEM.Alpha = 0.3
	lastB := testConfig(1, soc.PolicyDPM, 10)
	lastB.LEM.Predictor = soc.PredictorLast
	lastB.LEM.Alpha = 0.7
	ga, err := engine.Fingerprint(lastA)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := engine.Fingerprint(lastB)
	if err != nil {
		t.Fatal(err)
	}
	if ga != gb {
		t.Fatal("Alpha changed the fingerprint of a non-EWMA predictor config")
	}
	to := testConfig(1, soc.PolicyTimeout, 10)
	toLEM := testConfig(1, soc.PolicyTimeout, 10)
	toLEM.LEM.Alpha = 0.9
	e, err := engine.Fingerprint(to)
	if err != nil {
		t.Fatal(err)
	}
	f, err := engine.Fingerprint(toLEM)
	if err != nil {
		t.Fatal(err)
	}
	if e != f {
		t.Fatal("LEM options changed the fingerprint of a non-DPM config")
	}

	for name, mutate := range map[string]func(*soc.Config){
		"seed":    func(c *soc.Config) { c.IPs[0].Sequence = workload.HighActivity(99, 10).MustGenerate() },
		"policy":  func(c *soc.Config) { c.Policy = soc.PolicyTimeout },
		"alpha":   func(c *soc.Config) { c.LEM.Alpha = 0.9 },
		"horizon": func(c *soc.Config) { c.Horizon = 30 * sim.Sec },
		"battery": func(c *soc.Config) { c.Battery.InitialSoC = 0.25 },
	} {
		cfg := testConfig(1, soc.PolicyDPM, 10)
		mutate(&cfg)
		d, err := engine.Fingerprint(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d == a {
			t.Fatalf("changing %s did not change the fingerprint", name)
		}
	}
}

// TestDeterminismAcrossWorkerCounts is the engine's core guarantee: the
// same plan produces digest-identical results at every worker count.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	plan := testPlan(15)
	var digests [][]string
	for _, workers := range []int{1, 4} {
		eng := engine.New(engine.Options{Workers: workers, NoCache: true})
		results, err := eng.Run(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]string, len(results))
		for i, jr := range results {
			if jr.Job.ID != plan.Jobs[i].ID {
				t.Fatalf("results not order-stable: slot %d holds %s, want %s", i, jr.Job.ID, plan.Jobs[i].ID)
			}
			if jr.CacheHit {
				t.Fatalf("%s: cache hit with caching disabled", jr.Job.ID)
			}
			ds[i] = engine.ResultDigest(jr.Result)
		}
		digests = append(digests, ds)
	}
	for i := range digests[0] {
		if digests[0][i] != digests[1][i] {
			t.Fatalf("job %s: digest differs between 1 and 4 workers", plan.Jobs[i].ID)
		}
	}
}

func TestCacheHitMiss(t *testing.T) {
	plan := testPlan(10)
	eng := engine.New(engine.Options{Workers: 4})

	first, err := eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Hits != 0 || st.Misses != int64(plan.Len()) || st.Runs != int64(plan.Len()) {
		t.Fatalf("cold run counters: %+v", st)
	}

	second, err := eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.Hits != int64(plan.Len()) || st.Runs != int64(plan.Len()) {
		t.Fatalf("warm run counters: %+v (want %d hits, no new runs)", st, plan.Len())
	}
	for i := range second {
		if !second[i].CacheHit {
			t.Fatalf("%s: expected cache hit", second[i].Job.ID)
		}
		if engine.ResultDigest(second[i].Result) != engine.ResultDigest(first[i].Result) {
			t.Fatalf("%s: cached result differs", second[i].Job.ID)
		}
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	plan := testPlan(10)

	eng1 := engine.New(engine.Options{Workers: 2, Cache: newStore(t, dir, "")})
	first, err := eng1.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}

	// A separate engine over the same directory — as a fresh process would
	// see it — must serve every job from disk, digest-identically.
	eng2 := engine.New(engine.Options{Workers: 2, Cache: newStore(t, dir, "")})
	second, err := eng2.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	st := eng2.Stats()
	if st.Runs != 0 || st.Hits != int64(plan.Len()) {
		t.Fatalf("disk-warm counters: %+v", st)
	}
	for i := range second {
		if !second[i].CacheHit {
			t.Fatalf("%s: expected disk cache hit", second[i].Job.ID)
		}
		if engine.ResultDigest(second[i].Result) != engine.ResultDigest(first[i].Result) {
			t.Fatalf("%s: disk round trip changed the result", second[i].Job.ID)
		}
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := engine.New(engine.Options{Workers: 2})
	results, err := eng.Run(ctx, testPlan(10))
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, jr := range results {
		if jr.Err == nil {
			t.Fatalf("%s: expected abandoned job", jr.Job.ID)
		}
	}
	if st := eng.Stats(); st.Runs != 0 {
		t.Fatalf("ran %d jobs under a cancelled context", st.Runs)
	}
}

func TestJobErrorsAreCollected(t *testing.T) {
	var p engine.Plan
	p.Add("ok", testConfig(1, soc.PolicyDPM, 5))
	p.Add("bad", soc.Config{}) // no IPs — soc.Run rejects it
	eng := engine.New(engine.Options{Workers: 2})
	results, err := eng.Run(context.Background(), p)
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v, want job 'bad' failure", err)
	}
	if results[0].Err != nil || results[0].Result == nil {
		t.Fatalf("healthy job damaged by sibling failure: %+v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("bad job reported no error")
	}
}

// panicObserver panics as its run starts, outside the kernel's own
// recovery: a stand-in for any fault in keying, running or recording a job.
type panicObserver struct{ soc.NopObserver }

func (panicObserver) RunStart(*soc.RunInfo) { panic("observer exploded") }

// TestJobPanicIsContained: a panicking job fails alone with an error that
// wraps ErrInternal and names it, its flight is finished (a later job with
// the same key runs instead of waiting forever), and its sibling and the
// engine are unharmed.
func TestJobPanicIsContained(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	var p engine.Plan
	p.Jobs = append(p.Jobs, engine.Job{ID: "boom", Config: testConfig(1, soc.PolicyDPM, 5),
		Options: soc.RunOptions{Observers: []soc.Observer{panicObserver{}}}})
	p.Add("ok", testConfig(2, soc.PolicyDPM, 5))
	results, err := eng.Run(context.Background(), p)
	if err == nil || !errors.Is(results[0].Err, engine.ErrInternal) ||
		!strings.Contains(results[0].Err.Error(), "boom") || !strings.Contains(results[0].Err.Error(), "observer exploded") {
		t.Fatalf("panicking job: err %v, result err %v; want ErrInternal naming the job and the panic", err, results[0].Err)
	}
	if results[1].Err != nil || results[1].Result == nil {
		t.Fatalf("sibling of a panicking job: %+v", results[1].Err)
	}
	var again engine.Plan
	again.Add("again", testConfig(1, soc.PolicyDPM, 5))
	results, err = eng.Run(context.Background(), again)
	if err != nil || results[0].Result == nil || results[0].CacheHit {
		t.Fatalf("same key after the panic: err %v, hit %v; want a fresh run", err, results[0].CacheHit)
	}
}

func TestOnResultObservesEveryJob(t *testing.T) {
	plan := testPlan(5)
	seen := make(map[int]bool)
	eng := engine.New(engine.Options{
		Workers: 4,
		OnResult: func(i int, jr engine.JobResult) {
			if seen[i] {
				t.Errorf("job %d observed twice", i)
			}
			seen[i] = true
		},
	})
	if _, err := eng.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if len(seen) != plan.Len() {
		t.Fatalf("observed %d of %d jobs", len(seen), plan.Len())
	}
}

// TestLookupServesLocalHitsOnly pins Lookup's contract: a local-tier hit
// returns the stored result and counts one hit; an absent key, a record
// that does not decode, and a record held only by the remote tier all
// return false and count nothing, leaving Run to count the miss and heal.
func TestLookupServesLocalHitsOnly(t *testing.T) {
	ctx := context.Background()
	var p engine.Plan
	p.Add("a", testConfig(1, soc.PolicyDPM, 10))
	key, _, err := engine.JobKeys(p.Jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b engine.Stats) bool { return a.Hits == b.Hits && a.Misses == b.Misses && a.Runs == b.Runs }

	lru := engine.NewLRU(engine.LRUOptions{})
	eng := engine.New(engine.Options{Workers: 1, Cache: lru})
	if _, ok := eng.Lookup(key); ok {
		t.Fatal("Lookup hit on an empty cache")
	}
	if st := eng.Stats(); !same(st, engine.Stats{}) {
		t.Fatalf("a missed Lookup counted: %+v", st)
	}
	res, err := eng.Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	jr, ok := eng.Lookup(key)
	if !ok || !jr.CacheHit || jr.Key != key || jr.Record != res[0].Record ||
		engine.ResultDigest(jr.Result) != engine.ResultDigest(res[0].Result) {
		t.Fatalf("Lookup after the run: ok=%v %+v", ok, jr)
	}
	if st := eng.Stats(); !same(st, engine.Stats{Hits: 1, Misses: 1, Runs: 1}) {
		t.Fatalf("stats after one miss and one Lookup hit: %+v", st)
	}

	// A record that passes its container checksum but does not decode.
	enc, err := res[0].Record.Encode(engine.CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(forged[12:16], binary.LittleEndian.Uint32(forged[12:16])+1)
	bad, err := engine.DecodeRecord(forged)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := engine.NewLRU(engine.LRUOptions{})
	if err := corrupt.Put(key, bad); err != nil {
		t.Fatal(err)
	}
	eng = engine.New(engine.Options{Workers: 1, Cache: corrupt})
	if _, ok := eng.Lookup(key); ok {
		t.Fatal("Lookup served an undecodable record")
	}
	if st := eng.Stats(); !same(st, engine.Stats{}) {
		t.Fatalf("an undecodable Lookup counted: %+v", st)
	}
	if res, _ := eng.Run(ctx, p); res[0].Err != nil || res[0].CacheHit {
		t.Fatalf("Run after a failed Lookup did not re-simulate: %+v", res[0])
	}
	if _, ok := eng.Lookup(key); !ok {
		t.Fatal("Lookup missed the healed slot")
	}

	// A record only the remote tier holds is left to Run's flight.
	ts, _, deep := blobServerForTest(t)
	if err := deep.Put(key, res[0].Record); err != nil {
		t.Fatal(err)
	}
	eng = engine.New(engine.Options{Workers: 1, Cache: newStore(t, "", ts.URL)})
	if _, ok := eng.Lookup(key); ok {
		t.Fatal("Lookup reached past the local tiers")
	}
	if st := eng.Stats(); !same(st, engine.Stats{}) {
		t.Fatalf("a remote-only Lookup counted: %+v", st)
	}
}

// TestRunAfterLookupProbesOnce: a Lookup miss followed by RunAfterLookup
// moves every counter, the cache tier's included, exactly as one Run of
// the same job does; with the record cached, RunAfterLookup still serves
// it, through the flight leader's probe.
func TestRunAfterLookupProbesOnce(t *testing.T) {
	ctx := context.Background()
	var p engine.Plan
	p.Add("a", testConfig(1, soc.PolicyDPM, 10))
	key, _, err := engine.JobKeys(p.Jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	counted := func(eng *engine.Engine) [4]int64 {
		st := eng.Stats()
		if len(st.Tiers) != 1 {
			t.Fatalf("want one cache tier, got %+v", st.Tiers)
		}
		return [4]int64{st.Hits, st.Misses, st.Runs, st.Tiers[0].Misses}
	}

	viaRun := engine.New(engine.Options{Workers: 1, Cache: engine.NewLRU(engine.LRUOptions{})})
	res, _ := viaRun.Run(ctx, p)
	eng := engine.New(engine.Options{Workers: 1, Cache: engine.NewLRU(engine.LRUOptions{})})
	if _, ok := eng.Lookup(key); ok {
		t.Fatal("Lookup hit on an empty cache")
	}
	jr := eng.RunAfterLookup(ctx, p.Jobs[0])
	if jr.Err != nil || jr.CacheHit || jr.Key != key ||
		engine.ResultDigest(jr.Result) != engine.ResultDigest(res[0].Result) {
		t.Fatalf("RunAfterLookup: %+v", jr)
	}
	if got, want := counted(eng), counted(viaRun); got != want {
		t.Fatalf("Lookup + RunAfterLookup counted hits/misses/runs/tier misses %v, Run %v", got, want)
	}
	if jr := eng.RunAfterLookup(ctx, p.Jobs[0]); jr.Err != nil || !jr.CacheHit {
		t.Fatalf("RunAfterLookup of a cached job: %+v", jr)
	}
}
