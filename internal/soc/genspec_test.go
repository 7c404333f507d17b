package soc

import (
	"context"
	"reflect"
	"testing"

	"godpm/internal/battery"
	"godpm/internal/sim"
	"godpm/internal/stats"
	"godpm/internal/workload"
)

// genConfig is a small two-IP config driven entirely by generator specs:
// one closed-loop heavy-tail IP and one open-loop MMPP IP.
func genConfig(seed workload.Seed, numTasks int) Config {
	return Config{
		IPs: []IPSpec{
			{Name: "ht", Gen: workload.HeavyTailSpec(workload.DefaultHeavyTail(seed.Split("ht"), numTasks))},
			{Name: "mm", Gen: workload.MMPPSpec(workload.DefaultMMPP(seed.Split("mm"), numTasks))},
		},
		Policy: PolicyDPM,
	}
}

func TestGenSpecMaterializesInNormalize(t *testing.T) {
	cfg := genConfig(workload.NewSeed(1), 8)
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if len(norm.IPs[0].Sequence) != 8 || len(norm.IPs[0].Arrivals) != 0 {
		t.Fatalf("closed-loop spec materialized to %d seq / %d arr",
			len(norm.IPs[0].Sequence), len(norm.IPs[0].Arrivals))
	}
	if len(norm.IPs[1].Arrivals) != 8 || len(norm.IPs[1].Sequence) != 0 {
		t.Fatalf("open-loop spec materialized to %d seq / %d arr",
			len(norm.IPs[1].Sequence), len(norm.IPs[1].Arrivals))
	}
	// The receiver is untouched: materialization fills the copy only.
	if len(cfg.IPs[0].Sequence) != 0 || len(cfg.IPs[1].Arrivals) != 0 {
		t.Fatal("Normalized mutated the receiver's IP specs")
	}
	// Idempotence: normalizing the normalized config reproduces the same
	// workload bit for bit.
	again, err := norm.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(norm.IPs, again.IPs) {
		t.Fatal("Normalized is not idempotent for generated workloads")
	}
	// Invalid generator parameters surface as normalization errors.
	bad := cfg
	bad.IPs = append([]IPSpec(nil), bad.IPs...)
	bad.IPs[0].Gen.HeavyTail.Shape = 0.5
	if _, err := bad.Normalized(); err == nil {
		t.Fatal("invalid generator spec normalized without error")
	}
}

// TestNormalizeRoute: Normalize with a supplied Materializer hands it
// every IP's normalized Gen spec once and builds the config Normalized
// builds; the normalized route's Run and RunForked give RunWith's and
// RunForked's results; the zero NormalConfig is refused by both.
func TestNormalizeRoute(t *testing.T) {
	cfg := genConfig(workload.NewSeed(3), 10)
	cfg.Horizon = 50 * sim.Ms
	var specs []workload.Spec
	n, err := cfg.Normalize(func(s workload.Spec) (workload.Sequence, workload.ArrivalSequence, error) {
		specs = append(specs, s)
		return s.Materialize()
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n.Config(), want) {
		t.Fatal("Normalize with Spec.Materialize differs from Normalized")
	}
	if len(specs) != len(cfg.IPs) {
		t.Fatalf("the materializer saw %d specs for %d generated IPs", len(specs), len(cfg.IPs))
	}
	for i, s := range specs {
		if !reflect.DeepEqual(s, want.IPs[i].Gen) {
			t.Errorf("IP %d: the materializer got a spec that is not the normalized one", i)
		}
	}

	ctx := context.Background()
	solo, err := RunWith(ctx, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := n.Run(ctx, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	compareForkMember(t, "NormalConfig.Run", got, solo)
	members := []ForkMember{{Horizon: 20 * sim.Ms}, {}}
	forked, err := RunForked(ctx, cfg, members)
	if err != nil {
		t.Fatal(err)
	}
	routed, err := n.RunForked(ctx, members)
	if err != nil {
		t.Fatal(err)
	}
	for i := range members {
		compareForkMember(t, "NormalConfig.RunForked", routed[i], forked[i])
	}
	compareForkMember(t, "default-horizon member", routed[1], solo)

	if _, err := (NormalConfig{}).Run(ctx, RunOptions{}); err == nil {
		t.Error("the zero NormalConfig ran")
	}
	if _, err := (NormalConfig{}).RunForked(ctx, members); err == nil {
		t.Error("the zero NormalConfig ran forked")
	}
}

// TestGenSpecRunDeterministic pins the seed-reproducibility contract: the
// same Spec (same workload.Seed) produces bit-identical results run after
// run, and exactly the result of pre-materializing the workload by hand.
func TestGenSpecRunDeterministic(t *testing.T) {
	cfg := genConfig(workload.NewSeed(7), 12)
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.EnergyJ != r2.EnergyJ || r1.AvgTempC != r2.AvgTempC || r1.Deltas != r2.Deltas {
		t.Fatalf("same seed diverged: (%v,%v,%v) vs (%v,%v,%v)",
			r1.EnergyJ, r1.AvgTempC, r1.Deltas, r2.EnergyJ, r2.AvgTempC, r2.Deltas)
	}

	// Hand-materialized equivalent.
	manual := cfg
	manual.IPs = append([]IPSpec(nil), manual.IPs...)
	for i := range manual.IPs {
		seq, arr, err := manual.IPs[i].Gen.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		manual.IPs[i].Sequence, manual.IPs[i].Arrivals = seq, arr
		manual.IPs[i].Gen = workload.Spec{}
	}
	r3, err := Run(manual)
	if err != nil {
		t.Fatal(err)
	}
	if r1.EnergyJ != r3.EnergyJ || r1.AvgTempC != r3.AvgTempC || r1.Deltas != r3.Deltas {
		t.Fatalf("generated run differs from hand-materialized run: (%v,%v,%v) vs (%v,%v,%v)",
			r1.EnergyJ, r1.AvgTempC, r1.Deltas, r3.EnergyJ, r3.AvgTempC, r3.Deltas)
	}

	// A different seed is a different simulation.
	other := genConfig(workload.NewSeed(8), 12)
	r4, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	if r1.EnergyJ == r4.EnergyJ && r1.Deltas == r4.Deltas {
		t.Fatal("different seeds produced an identical result")
	}
}

// TestGenTickAllocFree pins that generated workloads keep the kernel hot
// path allocation-free: generation runs entirely inside Normalized, so an
// accountant tick on a Gen-driven config allocates nothing per event,
// exactly like a hand-built config.
func TestGenTickAllocFree(t *testing.T) {
	cfg, err := genConfig(workload.NewSeed(3), 4).Normalized()
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	model, err := cfg.Battery.build()
	if err != nil {
		t.Fatal(err)
	}
	pack := battery.NewPack(k, "battery", model, battery.DefaultThresholds(), cfg.Battery.Mains)
	plant := buildThermalPlant(k, &cfg, []string{"ht", "mm"})
	meters := []*stats.EnergyMeter{stats.NewEnergyMeter(k, "ht"), stats.NewEnergyMeter(k, "mm")}
	busEnergy := 0.0
	meters[0].SetPower(0.4)
	meters[1].SetPower(0.2)
	acct := newAccountant(k, &cfg, pack, plant, meters, &busEnergy, nil)
	acct.start()
	for i := 0; i < 64; i++ {
		if err := k.Run(k.Now() + cfg.SampleInterval); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(1000, func() {
		if err := k.Run(k.Now() + cfg.SampleInterval); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("tick with generated workload config: %v allocs/event, want 0", got)
	}
}
