// Tests of the tournament and generator surface of the public godpm
// façade: seeded stochastic workload generation, the scenario catalog and
// RunTournament must be fully usable without internal imports.
package godpm_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"godpm"
)

func TestGeneratorFacade(t *testing.T) {
	seed := godpm.NewSeed(21)
	if seed.Split("a") == seed.Split("b") {
		t.Fatal("seed splitting collapsed")
	}

	mm := godpm.DefaultMMPP(seed, 12)
	per := godpm.DefaultPeriodic(seed, 12)
	ht := godpm.DefaultHeavyTail(seed, 12)
	bu := godpm.DefaultBurst(3, 12)
	lo := godpm.LowActivity(3, 12)

	cfg := godpm.Config{
		IPs: []godpm.IPSpec{
			{Name: "mm", Gen: godpm.MMPPGen(mm)},
			{Name: "per", Gen: godpm.PeriodicGen(per)},
			{Name: "ht", Gen: godpm.HeavyTailGen(ht)},
			{Name: "bu", Gen: godpm.BurstGen(bu)},
			{Name: "lo", Gen: godpm.ClosedGen(lo)},
		},
		Policy: godpm.PolicyDPM,
	}
	r1, err := godpm.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := godpm.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if godpm.ResultDigest(r1) != godpm.ResultDigest(r2) {
		t.Fatal("generated config is not reproducible through the façade")
	}
	if r1.TasksDone != 5*12 {
		t.Fatalf("TasksDone = %d, want 60", r1.TasksDone)
	}
	// MissedDeadlines is consistent between disabled and tight deadlines.
	if godpm.MissedDeadlines(r1.Ledger, 0) != 0 {
		t.Error("disabled deadline reported misses")
	}
	if godpm.MissedDeadlines(r1.Ledger, godpm.Ns) != r1.Ledger.Len() {
		t.Error("1ns deadline did not miss every task")
	}
}

func TestWorkloadCSVFacade(t *testing.T) {
	seq, err := godpm.DefaultHeavyTail(godpm.NewSeed(4), 20).Generate()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := godpm.ExportWorkloadCSV(&buf, seq); err != nil {
		t.Fatal(err)
	}
	back, err := godpm.ImportWorkloadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, back) {
		t.Fatal("CSV round trip altered the sequence")
	}
	// A replayed trace is a valid generated scenario.
	res, err := godpm.Run(godpm.Config{
		IPs: []godpm.IPSpec{{Name: "trace", Gen: godpm.TraceGen(back)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksDone != 20 {
		t.Fatalf("trace replay ran %d tasks, want 20", res.TasksDone)
	}
}

func TestSummarizeFacade(t *testing.T) {
	s := godpm.Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" || godpm.Summarize(nil).String() != "n/a" {
		t.Fatal("summary rendering broken")
	}
}

func TestTournamentFacade(t *testing.T) {
	pols := godpm.StandardPolicies()
	if len(pols) != 5 {
		t.Fatalf("standard lineup has %d policies", len(pols))
	}
	scens := godpm.ArenaScenarios(6)
	if len(scens) < 4 {
		t.Fatalf("catalog has %d scenarios", len(scens))
	}
	tour := godpm.Tournament{
		Scenarios: scens[:4],
		Policies:  []godpm.TournamentPolicy{pols[1], pols[0], pols[2]}, // alwayson, dpm, timeout
		Seeds:     []godpm.WorkloadSeed{godpm.NewSeed(1), godpm.NewSeed(2)},
		Baseline:  "alwayson",
		Deadline:  30 * godpm.Ms,
	}
	eng := godpm.NewEngine(godpm.EngineOptions{})
	res, err := godpm.RunTournament(context.Background(), eng, tour)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leaderboard) != 3 || len(res.Cells) != 12 {
		t.Fatalf("leaderboard %d rows, %d cells", len(res.Leaderboard), len(res.Cells))
	}
	if res.Baseline != "alwayson" {
		t.Fatalf("baseline = %q", res.Baseline)
	}

	// All three renderings produce non-trivial output naming each policy.
	var lb, cells, js bytes.Buffer
	if err := res.WriteLeaderboardCSV(&lb); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCellsCSV(&cells); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	table := res.FormatLeaderboard()
	for _, out := range []string{lb.String(), cells.String(), js.String(), table} {
		for _, p := range []string{"dpm", "alwayson", "timeout"} {
			if !strings.Contains(out, p) {
				t.Fatalf("output misses policy %q:\n%s", p, out)
			}
		}
	}
	if lines := strings.Count(lb.String(), "\n"); lines != 4 {
		t.Fatalf("leaderboard CSV has %d lines, want header + 3 rows", lines)
	}
	if lines := strings.Count(cells.String(), "\n"); lines != 13 {
		t.Fatalf("cells CSV has %d lines, want header + 12 rows", lines)
	}
}
