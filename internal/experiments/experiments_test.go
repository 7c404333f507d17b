package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/workload"
)

// totalIdle sums a sequence's idle gaps.
func totalIdle(s workload.Sequence) sim.Time {
	var t sim.Time
	for _, it := range s {
		t += it.IdleAfter
	}
	return t
}

// quickTuning keeps unit-test runtime low; the benchmarks use DefaultTuning.
func quickTuning() Tuning {
	t := DefaultTuning()
	t.NumTasks = 40
	return t
}

func TestAllScenarioIDs(t *testing.T) {
	want := []string{"A1", "A2", "A3", "A4", "B", "C"}
	all := All(DefaultTuning())
	if len(all) != len(want) {
		t.Fatalf("got %d scenarios", len(all))
	}
	for i, s := range all {
		if s.ID != want[i] {
			t.Errorf("scenario %d = %q, want %q", i, s.ID, want[i])
		}
		if s.Description == "" {
			t.Errorf("%s has no description", s.ID)
		}
	}
}

func TestByID(t *testing.T) {
	s, err := ByID("B", DefaultTuning())
	if err != nil || s.ID != "B" {
		t.Fatalf("ByID(B) = %v,%v", s.ID, err)
	}
	if _, err := ByID("Z9", DefaultTuning()); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	// A task count the generators refuse is an error, not a panic in a
	// scenario's workload generation.
	huge := DefaultTuning()
	huge.NumTasks = workload.MaxTasks + 1
	if _, err := ByID("B", huge); err == nil {
		t.Fatal("ByID accepted a task count above the cap")
	}
	if _, err := Resolve("B-openloop", huge); err == nil {
		t.Fatal("Resolve accepted a task count above the cap")
	}
}

// TestLookupsMatchCatalogs pins the id → constructor tables to the
// catalogs: every scenario resolves by its ID to a value deeply equal to
// the catalog's, the tables hold nothing else, and unknown IDs keep their
// errors.
func TestLookupsMatchCatalogs(t *testing.T) {
	tn := quickTuning()
	for _, c := range []struct {
		catalog []Scenario
		table   map[string]func(Tuning) Scenario
		lookup  func(string, Tuning) (Scenario, error)
		unknown string
	}{
		{All(tn), paperScenarios, ByID, `experiments: unknown scenario "Z9"`},
		{Extensions(tn), extensionScenarios, ExtensionByID, `experiments: unknown extension "Z9"`},
	} {
		if len(c.table) != len(c.catalog) {
			t.Errorf("lookup table has %d entries, catalog %d", len(c.table), len(c.catalog))
		}
		for _, want := range c.catalog {
			got, err := c.lookup(want.ID, tn)
			if err != nil {
				t.Fatalf("%s: %v", want.ID, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: lookup differs from the catalog entry", want.ID)
			}
		}
		if _, err := c.lookup("Z9", tn); err == nil || err.Error() != c.unknown {
			t.Errorf("unknown id: error %v, want %q", err, c.unknown)
		}
	}
}

// TestResolve pins the one name → scenario rule every command uses:
// every paper and extension ID resolves from any case and with
// surrounding spaces to the catalog's scenario, and an unknown name is
// refused with the ID list before anything is built, however many tasks
// it asks for.
func TestResolve(t *testing.T) {
	tn := quickTuning()
	catalog := append(All(tn), Extensions(tn)...)
	if len(scenarioIDs) != len(catalog) {
		t.Fatalf("resolver knows %d IDs, catalogs hold %d", len(scenarioIDs), len(catalog))
	}
	for _, want := range catalog {
		for _, name := range []string{want.ID, strings.ToLower(want.ID), strings.ToUpper(want.ID), " \t" + want.ID + " \n"} {
			got, err := Resolve(name, tn)
			if err != nil {
				t.Fatalf("Resolve(%q): %v", name, err)
			}
			if got.ID != want.ID || !reflect.DeepEqual(got, want) {
				t.Errorf("Resolve(%q) = %s, want the catalog's %s", name, got.ID, want.ID)
			}
		}
	}

	big := DefaultTuning()
	big.NumTasks = 200000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Resolve("nope", big)
	runtime.ReadMemStats(&after)
	want := `unknown scenario "nope"; available: [A1 A2 A3 A4 B C B-perip B-openloop A1-regulator]`
	if err == nil || err.Error() != want {
		t.Fatalf("unknown name: error %v, want %q", err, want)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("refusing an unknown name allocated %d bytes, want < 1 MiB", d)
	}
}

func TestScenarioStructure(t *testing.T) {
	tn := DefaultTuning()
	for _, s := range []Scenario{A1(tn), A2(tn), A3(tn), A4(tn)} {
		if len(s.Config.IPs) != 1 || s.Config.UseGEM {
			t.Errorf("%s: single-IP scenario misconfigured", s.ID)
		}
	}
	for _, s := range []Scenario{B(tn), C(tn)} {
		if len(s.Config.IPs) != 4 || !s.Config.UseGEM {
			t.Errorf("%s: multi-IP scenario misconfigured", s.ID)
		}
		for i, spec := range s.Config.IPs {
			if spec.StaticPriority != i+1 {
				t.Errorf("%s: IP %d priority %d", s.ID, i, spec.StaticPriority)
			}
		}
	}
	// B gives the high-activity workloads to the high-priority IPs; C
	// inverts that. High activity = less total idle.
	b, c := B(tn), C(tn)
	bIdle1 := totalIdle(b.Config.IPs[0].Sequence)
	bIdle4 := totalIdle(b.Config.IPs[3].Sequence)
	if bIdle1 >= bIdle4 {
		t.Errorf("B: IP1 idle %v not below IP4 idle %v", bIdle1, bIdle4)
	}
	cIdle1 := totalIdle(c.Config.IPs[0].Sequence)
	cIdle4 := totalIdle(c.Config.IPs[3].Sequence)
	if cIdle1 <= cIdle4 {
		t.Errorf("C: IP1 idle %v not above IP4 idle %v", cIdle1, cIdle4)
	}
}

func TestBaselineDerivation(t *testing.T) {
	s := B(DefaultTuning())
	base := Baseline(s)
	if base.Policy != soc.PolicyAlwaysOn || base.UseGEM {
		t.Fatal("baseline must be always-on without GEM")
	}
	// Same workloads, same environment.
	if len(base.IPs) != len(s.Config.IPs) {
		t.Fatal("baseline changed the IP set")
	}
	for i := range base.IPs {
		if len(base.IPs[i].Sequence) != len(s.Config.IPs[i].Sequence) {
			t.Fatal("baseline changed a workload")
		}
	}
	if base.InitialTempC != s.Config.InitialTempC {
		t.Fatal("baseline changed the thermal start")
	}
	// Deriving the baseline must not mutate the scenario.
	if s.Config.Policy != soc.PolicyDPM || !s.Config.UseGEM {
		t.Fatal("Baseline mutated the scenario config")
	}
}

func TestPaperTable2Complete(t *testing.T) {
	for _, s := range All(DefaultTuning()) {
		if _, ok := PaperTable2[s.ID]; !ok {
			t.Errorf("PaperTable2 missing %s", s.ID)
		}
	}
	if len(PaperTable2) != 6 {
		t.Errorf("PaperTable2 has %d rows", len(PaperTable2))
	}
}

func TestRunScenarioA1Shape(t *testing.T) {
	row, err := RunScenario(A1(quickTuning()))
	if err != nil {
		t.Fatal(err)
	}
	if !row.DPM.Completed || !row.Base.Completed {
		t.Fatal("runs did not complete")
	}
	if row.EnergySavingPct <= 0 {
		t.Fatalf("A1 energy saving %v, want positive", row.EnergySavingPct)
	}
	if row.DelayOverheadPct <= 0 || row.DelayOverheadPct > 150 {
		t.Fatalf("A1 delay overhead %v, want moderate positive", row.DelayOverheadPct)
	}
	if row.TempReductionPct <= 0 {
		t.Fatalf("A1 temp reduction %v, want positive", row.TempReductionPct)
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	// The headline claim: low-battery runs (A2) save much more energy than
	// full-battery runs (A1) at drastically higher delay; temperature
	// control stays positive everywhere.
	tn := quickTuning()
	a1, err := RunScenario(A1(tn))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := RunScenario(A2(tn))
	if err != nil {
		t.Fatal(err)
	}
	if a2.EnergySavingPct <= a1.EnergySavingPct {
		t.Errorf("A2 saving %v not above A1 %v", a2.EnergySavingPct, a1.EnergySavingPct)
	}
	if a2.DelayOverheadPct <= 2*a1.DelayOverheadPct {
		t.Errorf("A2 delay %v not well above A1 %v", a2.DelayOverheadPct, a1.DelayOverheadPct)
	}
	if a2.DelayOverheadPct < 200 {
		t.Errorf("A2 delay %v, want the ≈300%% ON4 signature", a2.DelayOverheadPct)
	}
}

func TestScenarioBRunsWithGEM(t *testing.T) {
	// The GEM's hold-back of low-priority IPs needs the battery to be
	// pinned at the Low/Medium boundary, which takes a longer run than the
	// other tests: 80 tasks per IP.
	tn := DefaultTuning()
	tn.NumTasks = 80
	row, err := RunScenario(B(tn))
	if err != nil {
		t.Fatal(err)
	}
	if !row.DPM.Completed {
		t.Fatal("B did not complete")
	}
	if row.DPM.GEMEvaluations == 0 {
		t.Fatal("GEM never evaluated in B")
	}
	if row.EnergySavingPct < 30 {
		t.Fatalf("B saving %v, want the large multi-IP saving", row.EnergySavingPct)
	}
	// Low-priority IPs must actually have been held back at least once.
	parked := 0
	for _, st := range row.DPM.LEMStats {
		parked += st.ParkEvents
	}
	if parked == 0 {
		t.Fatal("no IP was ever parked in B")
	}
}

func TestFormatTable2(t *testing.T) {
	rows := []Row{{ID: "A1", EnergySavingPct: 40.7, TempReductionPct: 11.7, DelayOverheadPct: 38.7}}
	out := FormatTable2(rows)
	for _, want := range []string{"A1", "Energy saving", "paper", "measured", "40.7", "39"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable2 missing %q:\n%s", want, out)
		}
	}
}

func TestTopology(t *testing.T) {
	out := Topology(B(DefaultTuning()))
	for _, want := range []string{"GEM", "battery", "thermal", "BUS", "ip1", "ip4", "PSM", "LEM"} {
		if !strings.Contains(out, want) {
			t.Errorf("Topology missing %q:\n%s", want, out)
		}
	}
	single := Topology(A1(DefaultTuning()))
	if strings.Contains(single, "GEM") {
		t.Error("single-IP topology should not mention a GEM")
	}
}

func TestScenariosAreDeterministic(t *testing.T) {
	tn := quickTuning()
	r1, err := RunScenario(A2(tn))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunScenario(A2(tn))
	if err != nil {
		t.Fatal(err)
	}
	if r1.EnergySavingPct != r2.EnergySavingPct || r1.DelayOverheadPct != r2.DelayOverheadPct {
		t.Fatalf("non-deterministic rows: %+v vs %+v", r1, r2)
	}
}
