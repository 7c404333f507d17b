package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"godpm"
)

// TestArenaEndToEnd pins the acceptance contract on the CLI's own plan
// builder: a 4-policy × 5-scenario × 5-seed tournament runs end-to-end,
// a rerun on the same engine is fully cache-served, and identical seeds
// reproduce the identical leaderboard on a fresh engine.
func TestArenaEndToEnd(t *testing.T) {
	tour, err := buildTournament("dpm,alwayson,timeout,greedy", "all", 5, 1, 8,
		30*time.Millisecond, "alwayson")
	if err != nil {
		t.Fatal(err)
	}
	if len(tour.Policies) < 3 || len(tour.Scenarios) < 4 || len(tour.Seeds) < 5 {
		t.Fatalf("fixture too small: %d policies, %d scenarios, %d seeds",
			len(tour.Policies), len(tour.Scenarios), len(tour.Seeds))
	}
	ctx := context.Background()

	eng := godpm.NewEngine(godpm.EngineOptions{})
	res, err := godpm.RunTournament(ctx, eng, tour)
	if err != nil {
		t.Fatal(err)
	}
	jobs := len(tour.Policies) * len(tour.Scenarios) * len(tour.Seeds)
	if st := eng.Stats(); st.Runs != int64(jobs) || st.Errors != 0 {
		t.Fatalf("first run stats %+v, want %d runs", st, jobs)
	}

	// Rerun on the same engine: zero new simulations.
	res2, err := godpm.RunTournament(ctx, eng, tour)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Runs != int64(jobs) || st.Hits != int64(jobs) {
		t.Fatalf("rerun stats %+v, want %d runs and %d hits", st, jobs, jobs)
	}
	if !reflect.DeepEqual(res.Leaderboard, res2.Leaderboard) {
		t.Fatal("cache-served rerun changed the leaderboard")
	}

	// Identical seeds on a fresh engine reproduce the leaderboard and the
	// cells bit for bit.
	res3, err := godpm.RunTournament(ctx, godpm.NewEngine(godpm.EngineOptions{Workers: 4}), tour)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Leaderboard, res3.Leaderboard) || !reflect.DeepEqual(res.Cells, res3.Cells) {
		t.Fatal("identical seeds did not reproduce the leaderboard")
	}

	// And the rendered outputs are identical too (what the user sees).
	var a, b bytes.Buffer
	if err := res.WriteLeaderboardCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := res3.WriteLeaderboardCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("rendered leaderboards differ")
	}
	if res.FormatLeaderboard() != res3.FormatLeaderboard() {
		t.Fatal("formatted leaderboards differ")
	}
}

func TestBuildTournamentFlagErrors(t *testing.T) {
	cases := []struct {
		policies, scenarios string
		seeds               int
		tasks               int
		baseline            string
	}{
		{"nosuch", "all", 2, 8, ""},
		{"dpm", "nosuch", 2, 8, ""},
		{"dpm,alwayson", "all", 0, 8, "alwayson"},
		{"dpm,alwayson", "all", 2, 0, "alwayson"},
		{"dpm,greedy", "all", 2, 8, "alwayson"}, // baseline not selected
	}
	for i, c := range cases {
		if _, err := buildTournament(c.policies, c.scenarios, c.seeds, 1, c.tasks, 0, c.baseline); err == nil {
			t.Errorf("case %d built but should not", i)
		}
	}
	// 'all' policies and an empty baseline are accepted.
	tour, err := buildTournament("all", "mmpp,periodic", 2, 1, 8, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(tour.Policies) != 5 || len(tour.Scenarios) != 2 || tour.Baseline != "" {
		t.Fatalf("tournament = %d policies, %d scenarios, baseline %q",
			len(tour.Policies), len(tour.Scenarios), tour.Baseline)
	}
	// The baseline flag normalizes exactly like -policies entries: mixed
	// case and stray spaces still name the selected policy.
	tour, err = buildTournament("DPM, AlwaysOn", "all", 2, 1, 8, 0, " AlwaysOn ")
	if err != nil {
		t.Fatal(err)
	}
	if tour.Baseline != "alwayson" {
		t.Fatalf("baseline normalized to %q", tour.Baseline)
	}
}

// TestBuildTournamentSpellings: the flags go through the shared entrant
// lookup, so "all" in any case selects the catalogue, entries are trimmed
// and matched case-insensitively, and empty entries are dropped.
func TestBuildTournamentSpellings(t *testing.T) {
	tour, err := buildTournament(" ALL ", " MMPP , periodic,", 1, 1, 8, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(tour.Policies) != len(godpm.StandardPolicies()) {
		t.Fatalf("-policies ALL selected %d policies", len(tour.Policies))
	}
	if len(tour.Scenarios) != 2 || tour.Scenarios[0].Name != "mmpp" || tour.Scenarios[1].Name != "periodic" {
		t.Fatalf("scenarios = %+v", tour.Scenarios)
	}
}
