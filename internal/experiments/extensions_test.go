package experiments

import (
	"testing"

	"godpm/internal/soc"
)

func TestExtensionsListAndLookup(t *testing.T) {
	tn := DefaultTuning()
	exts := Extensions(tn)
	if len(exts) != 3 {
		t.Fatalf("got %d extensions", len(exts))
	}
	for _, s := range exts {
		if s.Description == "" {
			t.Errorf("%s: empty description", s.ID)
		}
		if _, err := ExtensionByID(s.ID, tn); err != nil {
			t.Errorf("ExtensionByID(%s): %v", s.ID, err)
		}
	}
	if _, err := ExtensionByID("nope", tn); err == nil {
		t.Fatal("unknown extension accepted")
	}
	ids := ExtensionIDs()
	if len(ids) != len(exts) {
		t.Fatalf("ExtensionIDs() = %v, catalog has %d", ids, len(exts))
	}
	for i, id := range ids {
		if i > 0 && ids[i-1] >= id {
			t.Fatalf("ExtensionIDs() not sorted: %v", ids)
		}
		if _, err := ExtensionByID(id, tn); err != nil {
			t.Errorf("ExtensionIDs() lists %q, which does not resolve: %v", id, err)
		}
	}
}

func TestBPerIPRuns(t *testing.T) {
	tn := quickTuning()
	row, err := RunScenario(BPerIP(tn))
	if err != nil {
		t.Fatal(err)
	}
	if !row.DPM.Completed {
		t.Fatal("B-perip did not complete")
	}
	if row.EnergySavingPct <= 0 {
		t.Fatalf("saving %v", row.EnergySavingPct)
	}
}

func TestBOpenLoopRuns(t *testing.T) {
	tn := quickTuning()
	s := BOpenLoop(tn)
	for _, spec := range s.Config.IPs {
		if len(spec.Sequence) != 0 || len(spec.Arrivals) == 0 {
			t.Fatal("open-loop conversion incomplete")
		}
	}
	row, err := RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if !row.DPM.Completed {
		t.Fatal("B-openloop did not complete")
	}
	// Open-loop queueing makes the delay overhead at least as large as a
	// trivial floor.
	if row.DelayOverheadPct <= 0 {
		t.Fatalf("delay overhead %v", row.DelayOverheadPct)
	}
}

func TestA1RegulatorDrainsMore(t *testing.T) {
	tn := quickTuning()
	plain, err := RunScenario(A1(tn))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := RunScenario(A1Regulator(tn))
	if err != nil {
		t.Fatal(err)
	}
	if reg.DPM.FinalSoC >= plain.DPM.FinalSoC {
		t.Fatalf("regulator losses missing: %v vs %v", reg.DPM.FinalSoC, plain.DPM.FinalSoC)
	}
}

func TestAblationVariantsRunnable(t *testing.T) {
	// Each design choice the root ablation benchmarks vary, switched away
	// from the paper's setting, still executes: the quantile predictor and
	// ungated sleep on A1, a linear battery and no GEM on B.
	tn := quickTuning()
	tn.NumTasks = 10
	quantile := A1(tn).Config
	quantile.LEM.Predictor = soc.PredictorQuantile
	ungated := A1(tn).Config
	ungated.LEM.DisableBreakEven = true
	linear := B(tn).Config
	linear.Battery = soc.BatteryConfig{Kind: "linear", CapacityJ: linear.Battery.CapacityJ, InitialSoC: linear.Battery.InitialSoC}
	noGEM := B(tn).Config
	noGEM.UseGEM = false
	for name, cfg := range map[string]soc.Config{"predictor": quantile, "breakeven": ungated, "battery": linear, "gem": noGEM} {
		res, err := soc.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.TasksDone == 0 {
			t.Fatalf("%s: nothing ran", name)
		}
	}
}
