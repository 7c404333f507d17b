package sweep

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"godpm/internal/engine"

	"godpm/internal/soc"
	"godpm/internal/workload"
)

func TestSweepValidate(t *testing.T) {
	bad := []Sweep{
		{},
		{Name: "x", Param: "p"},
		{Name: "x", Param: "p", Values: []float64{1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("sweep %d accepted", i)
		}
	}
	if _, err := (Sweep{}).Run(); err == nil {
		t.Error("invalid sweep ran")
	}
}

func TestSweepRunsAndOrdersPoints(t *testing.T) {
	seq := workload.HighActivity(3, 10).MustGenerate()
	s := Sweep{
		Name:   "test",
		Param:  "dummy",
		Values: []float64{1, 2, 3},
		Build: func(v float64) soc.Config {
			cfg := baseConfig(seq)
			cfg.Policy = soc.PolicyDPM
			return cfg
		},
	}
	pts, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		if p.Value != float64(i+1) {
			t.Fatalf("point order wrong: %v", pts)
		}
		if p.EnergyJ <= 0 || !p.Completed {
			t.Fatalf("point %d: %+v", i, p)
		}
	}
}

func TestTimeoutStudyShape(t *testing.T) {
	s := TimeoutStudy(1, 15)
	s.Values = []float64{1, 50} // keep the test fast: short vs long timeout
	pts, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// A 50 ms timeout on ~10 ms idle gaps almost never sleeps: its saving
	// must be below the 1 ms timeout's.
	if pts[1].EnergySavingPct >= pts[0].EnergySavingPct {
		t.Fatalf("long timeout saved more than short: %+v", pts)
	}
	for _, p := range pts {
		if !p.Completed {
			t.Fatal("study run incomplete")
		}
	}
}

func TestActivityStudyShape(t *testing.T) {
	s := ActivityStudy(1, 15)
	s.Values = []float64{1, 50}
	pts, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// More idleness → more DPM saving.
	if pts[1].EnergySavingPct <= pts[0].EnergySavingPct {
		t.Fatalf("idle-heavy workload saved less: %+v", pts)
	}
}

func TestStudiesRegistry(t *testing.T) {
	for _, name := range StudyNames() {
		s, err := Resolve(name, 1, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestResolveStudy pins the name → study rule: every built-in study
// resolves from any case and with surrounding spaces, and an unknown name
// is refused with the name list before anything is built, however many
// tasks it asks for.
func TestResolveStudy(t *testing.T) {
	want := []string{"activity", "alpha", "horizon", "timeout"}
	if got := StudyNames(); !slices.Equal(got, want) {
		t.Fatalf("StudyNames() = %v, want %v", got, want)
	}
	for _, n := range want {
		for _, name := range []string{n, strings.ToUpper(n), " \t" + n + " \n"} {
			st, err := Resolve(name, 1, 10)
			if err != nil {
				t.Fatalf("Resolve(%q): %v", name, err)
			}
			if st.Name != n {
				t.Errorf("Resolve(%q) built study %q, want %q", name, st.Name, n)
			}
		}
	}

	if _, err := Resolve("alpha", 1, workload.MaxTasks+1); err == nil {
		t.Fatal("Resolve accepted a task count above the cap")
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Resolve("nope", 1, 200000)
	runtime.ReadMemStats(&after)
	msg := `unknown study "nope"; available: [activity alpha horizon timeout]`
	if err == nil || err.Error() != msg {
		t.Fatalf("unknown name: error %v, want %q", err, msg)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("refusing an unknown name allocated %d bytes, want < 1 MiB", d)
	}
}

func TestWriteCSV(t *testing.T) {
	pts := []Point{
		{Value: 1, EnergyJ: 0.5, DurationS: 2, AvgTempC: 50, Completed: true, EnergySavingPct: 30, DelayOverheadPct: 10},
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, "timeout_ms", pts, true); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"timeout_ms,energy_j", "energy_saving_pct", "1,0.5,2,50,true,30,10"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
	var sb2 strings.Builder
	if err := WriteCSV(&sb2, "x", pts, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb2.String(), "saving") {
		t.Error("baseline columns present without baselines")
	}
}

// TestHorizonStudyWarmStarts pins the horizon study to the engine's fork
// groups: all points of one policy share a forked session (Forked > 0)
// and the points are identical to a cold solo-run engine's.
func TestHorizonStudyWarmStarts(t *testing.T) {
	s := HorizonStudy(1, 40)
	s.Values = []float64{0.05, 0.1, 0.5} // keep the test quick

	eng := engine.New(engine.Options{})
	warm, err := s.RunWith(context.Background(), eng)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Forked == 0 {
		t.Fatalf("horizon study did not fork: %+v", st)
	}
	// One shared session per policy (DPM points + baseline points).
	if st.Runs != 2 {
		t.Fatalf("Runs = %d, want 2 shared sessions", st.Runs)
	}

	cold, err := s.RunWith(context.Background(), engine.New(engine.Options{NoCache: true}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		if warm[i].EnergyJ != cold[i].EnergyJ || warm[i].AvgTempC != cold[i].AvgTempC ||
			warm[i].DurationS != cold[i].DurationS {
			t.Errorf("point %d: warm %+v != cold %+v", i, warm[i], cold[i])
		}
	}
}
