package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/workload"
)

// smallTournament is the test fixture: 3 policies × 5 generated scenarios
// × 3 seeds of tiny workloads.
func smallTournament(numSeeds int) Tournament {
	pols := StandardPolicies()
	seeds := make([]workload.Seed, numSeeds)
	for i := range seeds {
		seeds[i] = workload.NewSeed(uint64(100 + i))
	}
	return Tournament{
		Scenarios: ArenaScenarios(6),
		Policies:  []PolicyVariant{pols[1], pols[0], pols[3]}, // alwayson, dpm, greedy
		Seeds:     seeds,
		Baseline:  "alwayson",
		Deadline:  30 * sim.Ms,
	}
}

func TestTournamentValidate(t *testing.T) {
	ok := smallTournament(2)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Tournament){
		func(t *Tournament) { t.Scenarios = nil },
		func(t *Tournament) { t.Policies = nil },
		func(t *Tournament) { t.Seeds = nil },
		func(t *Tournament) { t.Baseline = "nosuch" },
		func(t *Tournament) { t.Policies = append(t.Policies, t.Policies[0]) },
		func(t *Tournament) { t.Scenarios = append(t.Scenarios, t.Scenarios[0]) },
		func(t *Tournament) { t.Policies = []PolicyVariant{{Name: "x"}} },
		func(t *Tournament) { t.Scenarios[0].Name = "" },
	}
	for i, mutate := range cases {
		bad := smallTournament(2)
		bad.Scenarios = append([]NamedConfig(nil), bad.Scenarios...)
		bad.Policies = append([]PolicyVariant(nil), bad.Policies...)
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("case %d validated but should not", i)
		}
	}
}

// TestTournamentValidateCaps: a tournament of MaxTournamentCells jobs,
// and one generating MaxTournamentTasks tasks, validate; one job or one
// task more is refused with an error naming the cap, and RunTournament
// then runs nothing. productWithin never overflows.
func TestTournamentValidateCaps(t *testing.T) {
	scenarios := func(tasks ...int) []NamedConfig {
		out := make([]NamedConfig, len(tasks))
		for i, n := range tasks {
			out[i] = ArenaScenarios(n)[0]
			out[i].Name = fmt.Sprintf("s%d", i)
		}
		return out
	}
	seeds := func(n int) []workload.Seed {
		out := make([]workload.Seed, n)
		for i := range out {
			out[i] = workload.NewSeed(uint64(i))
		}
		return out
	}
	pols := StandardPolicies()
	cases := []struct {
		name string
		tour Tournament
		want string // "" validates
	}{
		{"cells at cap", Tournament{Policies: pols[:4], Scenarios: scenarios(1, 1, 1, 1), Seeds: seeds(MaxTournamentCells / 16)}, ""},
		{"cells over cap", Tournament{Policies: pols[:4], Scenarios: scenarios(1, 1, 1, 1), Seeds: seeds(MaxTournamentCells/16 + 1)},
			fmt.Sprintf("exceeds the cap of %d jobs", MaxTournamentCells)},
		{"tasks at cap", Tournament{Policies: pols[:1], Scenarios: scenarios(MaxTournamentTasks/8, MaxTournamentTasks/8), Seeds: seeds(4)}, ""},
		{"tasks over cap", Tournament{Policies: pols[:1], Scenarios: scenarios(MaxTournamentTasks/8, MaxTournamentTasks/8+1), Seeds: seeds(4)},
			fmt.Sprintf("exceeds the cap of %d generated tasks", MaxTournamentTasks)},
		{"oversized workloads", Tournament{Policies: pols[:1], Scenarios: scenarios(1<<62, 1<<62), Seeds: seeds(1)},
			fmt.Sprintf("exceeds the cap of %d generated tasks", MaxTournamentTasks)},
	}
	for _, tc := range cases {
		err := tc.tour.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		eng := New(Options{Workers: 2})
		if _, err := RunTournament(context.Background(), eng, tc.tour); err == nil {
			t.Errorf("%s: RunTournament ran", tc.name)
		}
		if st := eng.Stats(); st.Misses+st.Hits+st.Errors != 0 {
			t.Errorf("%s: RunTournament ran jobs: %+v", tc.name, st)
		}
	}

	for _, tc := range []struct {
		factors []int
		want    bool
	}{
		{[]int{4, 4, 1024}, true},
		{[]int{4, 4, 1025}, false},
		{[]int{0, math.MaxInt, math.MaxInt}, true},
		{[]int{math.MaxInt, math.MaxInt}, false},
		{[]int{1 << 40, 1 << 40, 0}, true},
	} {
		if got := productWithin(MaxTournamentCells, tc.factors...); got != tc.want {
			t.Errorf("productWithin(%d, %v) = %v, want %v", MaxTournamentCells, tc.factors, got, tc.want)
		}
	}
}

func TestTournamentPlanLayout(t *testing.T) {
	tour := smallTournament(2)
	plan, err := tour.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want := len(tour.Scenarios) * len(tour.Policies) * len(tour.Seeds)
	if plan.Len() != want {
		t.Fatalf("plan has %d jobs, want %d", plan.Len(), want)
	}
	// Scenario-major, seed, policy-minor; IDs carry all three coordinates.
	if got := plan.Jobs[0].ID; got != "steady/alwayson@100" {
		t.Errorf("job 0 ID = %q", got)
	}
	if got := plan.Jobs[1].ID; got != "steady/dpm@100" {
		t.Errorf("job 1 ID = %q", got)
	}
	if got := plan.Jobs[3].ID; got != "steady/alwayson@101" {
		t.Errorf("job 3 ID = %q", got)
	}
	// All policies of one (scenario, seed) replicate share the identical
	// generated workload: the paired design.
	n0, err := plan.Jobs[0].Config.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	n1, err := plan.Jobs[1].Config.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n0.IPs[0].Sequence, n1.IPs[0].Sequence) {
		t.Error("policies of the same replicate run different workloads")
	}
	// Different seeds produce different workloads.
	n3, err := plan.Jobs[3].Config.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(n0.IPs[0].Sequence, n3.IPs[0].Sequence) {
		t.Error("different seeds produced the identical workload")
	}
}

// TestTournamentLeaderboardDeterministic pins the acceptance contract:
// identical seeds reproduce identical leaderboards on fresh engines with
// different worker counts, and a rerun on the same engine is fully
// cache-served.
func TestTournamentLeaderboardDeterministic(t *testing.T) {
	tour := smallTournament(3)
	ctx := context.Background()

	eng1 := New(Options{Workers: 1})
	r1, err := RunTournament(ctx, eng1, tour)
	if err != nil {
		t.Fatal(err)
	}
	eng8 := New(Options{Workers: 8})
	r8, err := RunTournament(ctx, eng8, tour)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Leaderboard, r8.Leaderboard) {
		t.Fatalf("leaderboards differ across worker counts:\n1: %+v\n8: %+v", r1.Leaderboard, r8.Leaderboard)
	}
	if !reflect.DeepEqual(r1.Cells, r8.Cells) {
		t.Fatal("cells differ across worker counts")
	}
	// Every rendering of the two results is byte-identical too.
	for _, render := range []func(*TournamentResult) string{
		func(r *TournamentResult) string {
			var b strings.Builder
			_ = r.WriteLeaderboardCSV(&b)
			return b.String()
		},
		func(r *TournamentResult) string { var b strings.Builder; _ = r.WriteCellsCSV(&b); return b.String() },
		func(r *TournamentResult) string { var b strings.Builder; _ = r.WriteJSON(&b); return b.String() },
		(*TournamentResult).FormatLeaderboard,
	} {
		a, b := render(r1), render(r8)
		if a == "" || a != b {
			t.Fatalf("rendering differs or is empty:\n%s\nvs\n%s", a, b)
		}
	}

	// Rerun on the same engine: every job must be cache-served and the
	// leaderboard identical.
	before := eng8.Stats()
	r8b, err := RunTournament(ctx, eng8, tour)
	if err != nil {
		t.Fatal(err)
	}
	after := eng8.Stats()
	plan, _ := tour.Plan()
	if hits := after.Hits - before.Hits; hits != int64(plan.Len()) {
		t.Errorf("rerun produced %d cache hits, want %d", hits, plan.Len())
	}
	if after.Runs != before.Runs {
		t.Errorf("rerun simulated %d extra jobs, want 0", after.Runs-before.Runs)
	}
	if !reflect.DeepEqual(r8.Leaderboard, r8b.Leaderboard) {
		t.Fatal("cache-served rerun changed the leaderboard")
	}

	// Sanity on the rankings themselves: every policy appears once, ranks
	// are 1..n, and the paired column is absent only for the baseline.
	if len(r1.Leaderboard) != len(tour.Policies) {
		t.Fatalf("leaderboard has %d rows, want %d", len(r1.Leaderboard), len(tour.Policies))
	}
	for i, s := range r1.Leaderboard {
		if s.Rank != i+1 {
			t.Errorf("row %d has rank %d", i, s.Rank)
		}
		wantRuns := len(tour.Scenarios) * len(tour.Seeds)
		if s.EnergyJ.N != wantRuns {
			t.Errorf("%s aggregated %d runs, want %d", s.Policy, s.EnergyJ.N, wantRuns)
		}
		if s.Policy == "alwayson" && s.EnergyVsBasePct.N != 0 {
			t.Error("baseline has a paired delta against itself")
		}
		if s.Policy != "alwayson" && s.EnergyVsBasePct.N != wantRuns {
			t.Errorf("%s paired %d runs, want %d", s.Policy, s.EnergyVsBasePct.N, wantRuns)
		}
	}
	// DPM and greedy must beat always-on on energy: paired mean negative
	// and leaderboard not led by alwayson.
	for _, s := range r1.Leaderboard {
		if s.Policy != "alwayson" && s.EnergyVsBasePct.Mean >= 0 {
			t.Errorf("%s does not save energy vs alwayson: %+v", s.Policy, s.EnergyVsBasePct)
		}
	}
	if r1.Leaderboard[len(r1.Leaderboard)-1].Policy != "alwayson" {
		t.Errorf("alwayson is not last: %+v", r1.Leaderboard)
	}
}

// countingObserver counts RunEnd callbacks; one instance per observed job.
type countingObserver struct {
	soc.NopObserver
	ends *atomic.Int64
}

func (o *countingObserver) RunEnd(*soc.Result) { o.ends.Add(1) }

// TestTournamentStress is the engine stress satellite: a tournament plan
// with mixed cached / uncached / observed jobs on 8 workers (run under
// -race in CI), asserting order-stable results and exact hit/miss
// counters.
func TestTournamentStress(t *testing.T) {
	tour := smallTournament(2)
	plan, err := tour.Plan()
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Workers: 8})
	ctx := context.Background()

	// Pre-warm the cache with the first third of the plan.
	warm := Plan{Jobs: append([]Job(nil), plan.Jobs[:plan.Len()/3]...)}
	if _, err := eng.Run(ctx, warm); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Misses != int64(warm.Len()) || st.Runs != int64(warm.Len()) {
		t.Fatalf("warm-up stats %+v, want %d misses/runs", st, warm.Len())
	}

	// Attach observers to every third job: observed jobs are still
	// cache-served when warm (their observers then see nothing).
	var ends atomic.Int64
	observed := 0
	for i := range plan.Jobs {
		if i%3 == 0 {
			plan.Jobs[i].Options.Observers = []soc.Observer{&countingObserver{ends: &ends}}
			observed++
		}
	}

	results, err := eng.Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Order stability: result i belongs to job i.
	for i := range results {
		if results[i].Job.ID != plan.Jobs[i].ID {
			t.Fatalf("result %d is %q, want %q", i, results[i].Job.ID, plan.Jobs[i].ID)
		}
		if results[i].Err != nil {
			t.Fatalf("job %s failed: %v", results[i].Job.ID, results[i].Err)
		}
		wantHit := i < warm.Len()
		if results[i].CacheHit != wantHit {
			t.Errorf("job %s cache hit = %v, want %v", results[i].Job.ID, results[i].CacheHit, wantHit)
		}
	}
	st = eng.Stats()
	wantHits := int64(warm.Len())
	wantRuns := int64(plan.Len()) // warm-up + the uncached remainder
	if st.Hits != wantHits || st.Runs != wantRuns || st.Misses != wantRuns || st.Errors != 0 {
		t.Errorf("stats %+v, want hits=%d runs=misses=%d errors=0", st, wantHits, wantRuns)
	}
	// Only observed jobs that actually simulated invoked RunEnd.
	var wantEnds int64
	for i := range plan.Jobs {
		if i%3 == 0 && i >= warm.Len() {
			wantEnds++
		}
	}
	if got := ends.Load(); got != wantEnds {
		t.Errorf("observers saw %d RunEnds, want %d", got, wantEnds)
	}

	// A repeat of the fully-warmed plan (observers still attached) is
	// 100%% cache-served and bit-identical.
	before := eng.Stats()
	again, err := eng.Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !again[i].CacheHit {
			t.Fatalf("job %s not cache-served on rerun", again[i].Job.ID)
		}
		if ResultDigest(again[i].Result) != ResultDigest(results[i].Result) {
			t.Fatalf("job %s digest changed on rerun", again[i].Job.ID)
		}
	}
	if d := eng.Stats().Runs - before.Runs; d != 0 {
		t.Errorf("rerun simulated %d jobs", d)
	}
}

// TestGeneratedWorkloadDigestsAcrossWorkers pins bit-identical results for
// generated workloads across worker counts with caching disabled: every
// job re-simulates and must reproduce the same ResultDigest.
func TestGeneratedWorkloadDigestsAcrossWorkers(t *testing.T) {
	tour := smallTournament(2)
	plan, err := tour.Plan()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	digest := func(workers int) []string {
		eng := New(Options{Workers: workers, NoCache: true})
		results, err := eng.Run(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]string, len(results))
		for i, jr := range results {
			ds[i] = ResultDigest(jr.Result)
		}
		return ds
	}
	d1, d8 := digest(1), digest(8)
	if !reflect.DeepEqual(d1, d8) {
		t.Fatal("generated-workload digests differ across worker counts")
	}
}

// TestGenSpecFingerprint pins the cache-key contract for generator specs:
// equal specs share a fingerprint, different seeds or parameters do not,
// and a generated config does not collide with its hand-materialized
// expansion (the spec itself is folded into the key).
func TestGenSpecFingerprint(t *testing.T) {
	mk := func(seed uint64, tasks int) soc.Config {
		return soc.Config{IPs: []soc.IPSpec{{
			Name: "ip0",
			Gen:  workload.HeavyTailSpec(workload.DefaultHeavyTail(workload.NewSeed(seed), tasks)),
		}}}
	}
	a1, err := Fingerprint(mk(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Fingerprint(mk(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("equal generator specs produced different fingerprints")
	}
	b, err := Fingerprint(mk(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if a1 == b {
		t.Fatal("different seeds share a fingerprint")
	}
	c, err := Fingerprint(mk(1, 9))
	if err != nil {
		t.Fatal(err)
	}
	if a1 == c {
		t.Fatal("different generator parameters share a fingerprint")
	}
	// A spec field left zero and the same field set to its documented
	// default describe the identical simulation and must share one key.
	zeroed := mk(1, 8)
	zeroed.IPs[0].Gen.HeavyTail.Shape = 0
	zeroed.IPs[0].Gen.HeavyTail.TailCap = 0
	zeroed.IPs[0].Gen.HeavyTail.ClassWeights = [4]float64{}
	zeroed.IPs[0].Gen.HeavyTail.PriorityWeights = [4]float64{}
	explicit := mk(1, 8)
	explicit.IPs[0].Gen.HeavyTail.Shape = 1.5
	explicit.IPs[0].Gen.HeavyTail.TailCap = 50
	explicit.IPs[0].Gen.HeavyTail.ClassWeights = [4]float64{1, 0, 0, 0} // ALU only
	explicit.IPs[0].Gen.HeavyTail.PriorityWeights = [4]float64{0, 1, 0, 0}
	fz, err := Fingerprint(zeroed)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := Fingerprint(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if fz != fe {
		t.Fatal("zero-valued and explicitly-defaulted generator specs hash differently")
	}
}

// TestEntrants pins the one entrant lookup both tournament front ends
// use, over the spellings each passes: dpmarena's comma lists arrive
// split (with "all" as an empty list), dpmserve's JSON lists as sent.
func TestEntrants(t *testing.T) {
	allPolicies := []string{"dpm", "alwayson", "timeout", "greedy", "oracle"}
	allScenarios := []string{"steady", "bursty", "mmpp", "periodic", "heavytail"}
	for _, c := range []struct {
		name                string
		policies, scenarios []string
		wantPols, wantScens []string
		wantErr             string
	}{
		{"dpmarena all", nil, nil, allPolicies, allScenarios, ""},
		{"dpmarena mixed case", []string{"DPM", "AlwaysOn"}, []string{"MMPP", "HeavyTail"},
			[]string{"dpm", "alwayson"}, []string{"mmpp", "heavytail"}, ""},
		{"dpmserve empty lists", []string{}, []string{}, allPolicies, allScenarios, ""},
		{"dpmserve as sent", []string{" greedy ", "dpm"}, []string{"periodic"},
			[]string{"greedy", "dpm"}, []string{"periodic"}, ""},
		{"unknown policy", []string{"dpm", "nope"}, nil, nil, nil,
			`unknown policy "nope"; available: [dpm alwayson timeout greedy oracle]`},
		{"unknown scenario", nil, []string{"nope"}, nil, nil,
			`unknown scenario "nope"; available: [steady bursty mmpp periodic heavytail]`},
	} {
		pols, scens, err := Entrants(c.policies, c.scenarios, 8)
		if c.wantErr != "" {
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("%s: error %v, want %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var gotPols, gotScens []string
		for _, p := range pols {
			gotPols = append(gotPols, p.Name)
		}
		for _, s := range scens {
			gotScens = append(gotScens, s.Name)
		}
		if !reflect.DeepEqual(gotPols, c.wantPols) || !reflect.DeepEqual(gotScens, c.wantScens) {
			t.Errorf("%s: entrants %v × %v, want %v × %v", c.name, gotPols, gotScens, c.wantPols, c.wantScens)
		}
	}
}
