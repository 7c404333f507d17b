// Tests of the public godpm façade: the root package must expose enough
// surface to assemble, run, observe and batch-execute simulations without
// reaching into internal packages.
package godpm_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"godpm"
)

func TestRunThroughFacade(t *testing.T) {
	seq := godpm.HighActivity(9, 10).MustGenerate()
	res, err := godpm.Run(godpm.Config{
		IPs:     []godpm.IPSpec{{Name: "cpu", Sequence: seq}},
		Policy:  godpm.PolicyDPM,
		Battery: godpm.DefaultBattery(0.95),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.TasksDone != 10 {
		t.Fatalf("Completed=%v TasksDone=%d", res.Completed, res.TasksDone)
	}
}

// countObserver counts callbacks through the façade's Observer alias.
type countObserver struct {
	godpm.NopObserver
	starts, samples, tasks, ends int
}

func (o *countObserver) RunStart(*godpm.RunInfo)                { o.starts++ }
func (o *countObserver) Sample(godpm.Time, *godpm.Sample)       { o.samples++ }
func (o *countObserver) TaskDone(godpm.Time, *godpm.TaskRecord) { o.tasks++ }
func (o *countObserver) RunEnd(*godpm.Result)                   { o.ends++ }

func TestRunWithThroughFacade(t *testing.T) {
	seq := godpm.HighActivity(9, 10).MustGenerate()
	obs := &countObserver{}
	res, err := godpm.RunWith(context.Background(), godpm.Config{
		IPs:     []godpm.IPSpec{{Name: "cpu", Sequence: seq}},
		Policy:  godpm.PolicyDPM,
		Battery: godpm.DefaultBattery(0.95),
	}, godpm.RunOptions{
		Observers: []godpm.Observer{obs},
		StopWhen:  []godpm.StopCondition{godpm.StopOnTemperature(500)}, // never fires
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != "" {
		t.Fatalf("StopReason = %q, want empty", res.StopReason)
	}
	if obs.starts != 1 || obs.ends != 1 {
		t.Fatalf("starts=%d ends=%d, want 1/1", obs.starts, obs.ends)
	}
	if obs.tasks != 10 {
		t.Fatalf("observed %d tasks, want 10", obs.tasks)
	}
	if obs.samples == 0 {
		t.Fatal("no periodic samples observed")
	}
}

func TestScenarioAccess(t *testing.T) {
	tn := godpm.DefaultTuning()
	if got := len(godpm.Scenarios(tn)); got != 6 {
		t.Fatalf("Scenarios = %d, want 6", got)
	}
	s, err := godpm.ScenarioByID("A1", tn)
	if err != nil || s.ID != "A1" {
		t.Fatalf("ScenarioByID = %v,%v", s.ID, err)
	}
	base := godpm.Baseline(s)
	if base.Policy != godpm.PolicyAlwaysOn {
		t.Fatal("Baseline policy wrong")
	}
	if out := godpm.Topology(s); !strings.Contains(out, "PSM") {
		t.Fatalf("Topology output: %q", out)
	}
}

func TestEngineThroughFacade(t *testing.T) {
	seq := godpm.HighActivity(3, 8).MustGenerate()
	cfg := godpm.Config{IPs: []godpm.IPSpec{{Name: "cpu", Sequence: seq}}}
	var plan godpm.Plan
	plan.Add("one", cfg).Add("two", cfg)
	// One worker: job "one" must finish (and populate the cache) before
	// job "two" starts, making the hit count deterministic.
	eng := godpm.NewEngine(godpm.EngineOptions{Workers: 1})
	results, err := eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Result == nil {
		t.Fatalf("results: %+v", results)
	}
	// Identical configs share a fingerprint, so one of the two jobs is
	// cache-served within the same plan.
	if st := eng.Stats(); st.Hits != 1 || st.Runs != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 run", st)
	}
	key, err := godpm.Fingerprint(cfg)
	if err != nil || key == "" {
		t.Fatalf("Fingerprint: %q, %v", key, err)
	}
	if d := godpm.ResultDigest(results[0].Result); d == "" {
		t.Fatal("empty result digest")
	}
}

// TestBoundedCachesThroughFacade exercises the serving-layer cache
// exports: a bounded LRU engine cache and a store with a bounded disk
// tier, with eviction counters surfacing in EngineStats.
func TestBoundedCachesThroughFacade(t *testing.T) {
	lru := godpm.NewLRUCache(godpm.LRUOptions{MaxEntries: 2, Shards: 1})
	eng := godpm.NewEngine(godpm.EngineOptions{Workers: 1, Cache: lru})
	var plan godpm.Plan
	for _, seed := range []int64{1, 2, 3} {
		seq := godpm.HighActivity(seed, 8).MustGenerate()
		plan.Add(fmt.Sprintf("s%d", seed), godpm.Config{IPs: []godpm.IPSpec{{Name: "cpu", Sequence: seq}}})
	}
	if _, err := eng.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.CacheEntries != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 entries / 1 eviction under a 2-entry cap", st)
	}

	dir := t.TempDir()
	openDisk := func() *godpm.TieredCache {
		s, err := godpm.NewTieredCache(godpm.NewLRUCache(godpm.LRUOptions{}), dir, godpm.DiskCacheOptions{MaxBytes: 1 << 20}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rec, err := godpm.NewCacheRecord("cafe0123", &godpm.Result{EnergyJ: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := openDisk().Put("cafe0123", rec); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the directory serves the entry from its files.
	got, ok := openDisk().Get("cafe0123")
	if !ok {
		t.Fatal("disk round trip missed")
	}
	if r, err := got.Result(); err != nil || r.EnergyJ != 1 {
		t.Fatalf("disk round trip: err=%v r=%+v", err, r)
	}
}

func TestTable1Facade(t *testing.T) {
	tbl := godpm.Table1()
	if !tbl.Total() {
		t.Fatal("Table1 not total")
	}
	parsed, err := godpm.ParseRules(godpm.Table1DSL)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != tbl.Len() {
		t.Fatalf("parsed %d rules, want %d", parsed.Len(), tbl.Len())
	}
	if _, err := godpm.ParseRules("nonsense"); err == nil {
		t.Fatal("bad script accepted")
	}
}

func TestFormatTable2Facade(t *testing.T) {
	out := godpm.FormatTable2([]godpm.Row{{ID: "A1"}})
	if !strings.Contains(out, "A1") || !strings.Contains(out, "Energy saving") {
		t.Fatalf("FormatTable2 output: %q", out)
	}
}

func TestVersionSet(t *testing.T) {
	if godpm.Version == "" {
		t.Fatal("empty version")
	}
}
