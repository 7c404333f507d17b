package soc

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"godpm/internal/acpi"
	"godpm/internal/gem"
	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/thermal"
	"godpm/internal/workload"
)

// smallConfig returns a quick single-IP configuration for tests.
func smallConfig(policy PolicyKind, numTasks int) Config {
	return Config{
		IPs: []IPSpec{{
			Name:     "ip0",
			Sequence: workload.HighActivity(42, numTasks).MustGenerate(),
		}},
		Policy:   policy,
		Battery:  DefaultBattery(0.95),
		BusWords: 32,
	}
}

func TestAlwaysOnBaselineRuns(t *testing.T) {
	res, err := Run(smallConfig(PolicyAlwaysOn, 20))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.TasksDone != 20 {
		t.Fatalf("Completed=%v TasksDone=%d", res.Completed, res.TasksDone)
	}
	if res.EnergyJ <= 0 {
		t.Fatalf("EnergyJ = %v", res.EnergyJ)
	}
	if res.AvgTempC <= res.AmbientC {
		t.Fatalf("AvgTempC %v not above ambient %v", res.AvgTempC, res.AmbientC)
	}
	if res.Ledger.Len() != 20 {
		t.Fatalf("ledger has %d records", res.Ledger.Len())
	}
}

func TestDPMRunsAndSavesEnergy(t *testing.T) {
	base, err := Run(smallConfig(PolicyAlwaysOn, 30))
	if err != nil {
		t.Fatal(err)
	}
	dpm, err := Run(smallConfig(PolicyDPM, 30))
	if err != nil {
		t.Fatal(err)
	}
	if !dpm.Completed {
		t.Fatal("DPM run did not complete")
	}
	if dpm.EnergyJ >= base.EnergyJ {
		t.Fatalf("DPM energy %v not below baseline %v", dpm.EnergyJ, base.EnergyJ)
	}
	if dpm.Duration < base.Duration {
		t.Fatalf("DPM duration %v below baseline %v (slower states must not speed it up)",
			dpm.Duration, base.Duration)
	}
	st, ok := dpm.LEMStats["ip0"]
	if !ok {
		t.Fatal("missing LEM stats")
	}
	total := 0
	for _, n := range st.OnDecisions {
		total += n
	}
	if total != 30 {
		t.Fatalf("LEM decided %d tasks, want 30 (%v)", total, st.OnDecisions)
	}
}

func TestAllPoliciesComplete(t *testing.T) {
	for _, p := range []PolicyKind{PolicyAlwaysOn, PolicyDPM, PolicyTimeout, PolicyGreedy, PolicyOracle} {
		res, err := Run(smallConfig(p, 15))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !res.Completed || res.TasksDone != 15 {
			t.Fatalf("%s: Completed=%v TasksDone=%d", p, res.Completed, res.TasksDone)
		}
	}
}

func TestGEMMultiIPRun(t *testing.T) {
	cfg := Config{
		IPs: []IPSpec{
			{Name: "ip1", Sequence: workload.HighActivity(1, 15).MustGenerate(), StaticPriority: 1},
			{Name: "ip2", Sequence: workload.HighActivity(2, 15).MustGenerate(), StaticPriority: 2},
			{Name: "ip3", Sequence: workload.LowActivity(3, 15).MustGenerate(), StaticPriority: 3},
			{Name: "ip4", Sequence: workload.LowActivity(4, 15).MustGenerate(), StaticPriority: 4},
		},
		Policy:   PolicyDPM,
		UseGEM:   true,
		Battery:  DefaultBattery(0.95),
		BusWords: 32,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.TasksDone != 60 {
		t.Fatalf("Completed=%v TasksDone=%d", res.Completed, res.TasksDone)
	}
	if res.GEMEvaluations == 0 {
		t.Fatal("GEM never evaluated")
	}
	if res.BusOccupancy <= 0 {
		t.Fatal("bus never used")
	}
}

func TestGEMDisablesLowPriorityWhenBatteryLow(t *testing.T) {
	// Battery starting Low, temperature Low: only priorities 1 and 2 may
	// run at first. With a KiBaM battery the class recovers during quiet
	// phases, so low-priority IPs eventually run and the sim completes.
	cfg := Config{
		IPs: []IPSpec{
			{Name: "ip1", Sequence: workload.HighActivity(1, 10).MustGenerate(), StaticPriority: 1},
			{Name: "ip4", Sequence: workload.LowActivity(4, 10).MustGenerate(), StaticPriority: 4},
		},
		Policy:   PolicyDPM,
		UseGEM:   true,
		Battery:  DefaultBattery(0.28), // Low
		BusWords: 32,
		Horizon:  30 * sim.Sec,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.LEMStats["ip4"]
	if st.ParkEvents == 0 {
		t.Fatalf("low-priority IP was never parked: %+v", st)
	}
}

func TestHorizonTruncatesRun(t *testing.T) {
	cfg := smallConfig(PolicyAlwaysOn, 5000)
	cfg.Horizon = 50 * sim.Ms
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("run should have hit the horizon")
	}
	if res.Duration > cfg.Horizon {
		t.Fatalf("Duration %v beyond horizon", res.Duration)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	bad := smallConfig(PolicyAlwaysOn, 5)
	bad.UseGEM = true
	if _, err := Run(bad); err == nil {
		t.Error("GEM with non-DPM policy accepted")
	}
	empty := smallConfig(PolicyDPM, 5)
	empty.IPs[0].Sequence = nil
	if _, err := Run(empty); err == nil {
		t.Error("empty sequence accepted")
	}
	unknown := smallConfig("quantum", 5)
	if _, err := Run(unknown); err == nil {
		t.Error("unknown policy accepted")
	}
	badBatt := smallConfig(PolicyDPM, 5)
	badBatt.Battery.Kind = "fusion"
	if _, err := Run(badBatt); err == nil {
		t.Error("unknown battery kind accepted")
	}
}

// TestNormalizedCapsIPs: a config with MaxIPs IPs normalizes; one more is
// refused, and refused before Normalized copies or generates anything, so
// a request for 2¹⁶ IPs costs no more than one for MaxIPs+1.
func TestNormalizedCapsIPs(t *testing.T) {
	withIPs := func(n int) Config {
		cfg := smallConfig(PolicyDPM, 2)
		spec := cfg.IPs[0]
		spec.Name, spec.Sequence = "", nil
		spec.Gen = workload.ClosedSpec(workload.HighActivity(1, 2))
		cfg.IPs = make([]IPSpec, n)
		for i := range cfg.IPs {
			cfg.IPs[i] = spec
		}
		return cfg
	}
	if _, err := withIPs(MaxIPs).Normalized(); err != nil {
		t.Fatalf("%d IPs: %v", MaxIPs, err)
	}
	for _, n := range []int{MaxIPs + 1, 1 << 16} {
		cfg := withIPs(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := cfg.Normalized()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
			t.Fatalf("%d IPs: error %v, want the cap", n, err)
		}
		// Copying the specs alone would take megabytes at 2¹⁶ IPs.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
			t.Errorf("%d IPs: the refusal allocated %d bytes", n, alloc)
		}
	}
}

// TestNormalizedCapsTotalTasks: a config whose IPs' workloads total
// MaxTotalTasks tasks passes the cap; one task more is refused with an
// error naming the cap, before any workload is generated or copied, and
// so is a sum that would overflow an int. Generators, traces and explicit
// workloads all count.
func TestNormalizedCapsTotalTasks(t *testing.T) {
	gen := func(n int) IPSpec {
		return IPSpec{Gen: workload.ClosedSpec(workload.HighActivity(1, n))}
	}
	withTasks := func(specs ...IPSpec) Config {
		cfg := smallConfig(PolicyDPM, 2)
		cfg.IPs = specs
		return cfg
	}
	seq := workload.HighActivity(1, 3).MustGenerate()
	at := withTasks(gen(workload.MaxTasks), gen(workload.MaxTasks), gen(workload.MaxTasks), gen(workload.MaxTasks))
	if got := at.Tasks(); got != MaxTotalTasks {
		t.Fatalf("Tasks() = %d, want %d", got, MaxTotalTasks)
	}
	if got := withTasks(gen(5), IPSpec{Sequence: seq}, gen(-4)).Tasks(); got != 8 {
		t.Fatalf("Tasks() = %d, want 8", got)
	}
	// At the cap nothing is refused for its size: a spec over the
	// per-generator cap still fails, on its own error.
	over := at
	over.IPs = append(append([]IPSpec(nil), at.IPs[:3]...), gen(workload.MaxTasks-3), IPSpec{Sequence: seq})
	if got := over.Tasks(); got != MaxTotalTasks {
		t.Fatalf("Tasks() = %d, want %d", got, MaxTotalTasks)
	}
	// A stub generator stands in for the 2²² tasks, which would take a
	// hundred megabytes: the point is that normalization reaches it.
	stub := func(workload.Spec) (workload.Sequence, workload.ArrivalSequence, error) { return seq, nil, nil }
	if _, err := over.Normalize(stub); err != nil {
		t.Fatalf("%d tasks: %v", MaxTotalTasks, err)
	}

	want := fmt.Sprintf("more than %d tasks", MaxTotalTasks)
	for name, cfg := range map[string]Config{
		"one over":  withTasks(append(append([]IPSpec(nil), at.IPs...), gen(1))...),
		"trace":     withTasks(append(append([]IPSpec(nil), at.IPs...), IPSpec{Gen: workload.TraceSpec(seq)})...),
		"explicit":  withTasks(append(append([]IPSpec(nil), at.IPs...), IPSpec{Sequence: seq})...),
		"overflows": withTasks(gen(math.MaxInt), gen(math.MaxInt)),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := cfg.Normalized()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %v, want %q", name, err, want)
		}
		if got := cfg.Tasks(); got != MaxTotalTasks+1 {
			t.Errorf("%s: Tasks() = %d, want %d", name, got, MaxTotalTasks+1)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
			t.Errorf("%s: the refusal allocated %d bytes", name, alloc)
		}
	}
}

// TestNormalizedCapsSamples: a sample grid of MaxSamples normalizes; one
// sample more is refused with an error naming the cap, before the
// workload is generated, so a 2⁶² ps horizon sampled every microsecond
// costs nothing however large its generator.
func TestNormalizedCapsSamples(t *testing.T) {
	withGrid := func(horizon sim.Time, tasks int) Config {
		cfg := smallConfig(PolicyDPM, 2)
		cfg.IPs[0].Sequence = nil
		cfg.IPs[0].Gen = workload.ClosedSpec(workload.HighActivity(1, tasks))
		cfg.SampleInterval, cfg.Horizon = sim.Us, horizon
		return cfg
	}
	norm, err := withGrid(MaxSamples*sim.Us, 2).Normalized()
	if err != nil {
		t.Fatalf("%d samples: %v", MaxSamples, err)
	}
	if norm.Horizon/norm.SampleInterval != MaxSamples {
		t.Fatalf("normalized grid %d, want %d", int64(norm.Horizon/norm.SampleInterval), MaxSamples)
	}
	want := fmt.Sprintf("exceeds the cap of %d", MaxSamples)
	for _, horizon := range []sim.Time{(MaxSamples + 1) * sim.Us, 1 << 62} {
		cfg := withGrid(horizon, workload.MaxTasks)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := cfg.Normalized()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("horizon %v: error %v, want %q", horizon, err, want)
		}
		// Generating 2²⁰ tasks would take tens of megabytes.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
			t.Errorf("horizon %v: the refusal allocated %d bytes", horizon, alloc)
		}
	}
}

// TestNormalizedRejectsNegativeTimes: a negative sample interval used to
// panic the sampling clock inside the run, and a negative horizon "ran"
// to TasksDone=0, Duration=0. Both are refused at normalization; zero
// still selects the defaults.
func TestNormalizedRejectsNegativeTimes(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"sample -1ms", func(c *Config) { c.SampleInterval = -sim.Ms }, "negative SampleInterval"},
		{"sample -1ps", func(c *Config) { c.SampleInterval = -1 }, "negative SampleInterval"},
		{"sample min", func(c *Config) { c.SampleInterval = math.MinInt64 }, "negative SampleInterval"},
		{"horizon -1s", func(c *Config) { c.Horizon = -sim.Sec }, "negative Horizon"},
		{"horizon min", func(c *Config) { c.Horizon = math.MinInt64 }, "negative Horizon"},
		{"zero defaults", func(c *Config) { c.SampleInterval, c.Horizon = 0, 0 }, ""},
		{"positive", func(c *Config) { c.SampleInterval, c.Horizon = sim.Ms, sim.Sec }, ""},
	}
	for _, tc := range cases {
		cfg := smallConfig(PolicyDPM, 3)
		tc.mutate(&cfg)
		norm, err := cfg.Normalized()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr == "" && (norm.SampleInterval <= 0 || norm.Horizon <= 0):
			t.Errorf("%s: normalized to sample %v, horizon %v", tc.name, norm.SampleInterval, norm.Horizon)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
		}
		if tc.wantErr != "" {
			if _, err := Run(cfg); err == nil {
				t.Errorf("%s: Run accepted the config", tc.name)
			}
		}
	}
}

// TestNormalizedRejectsPanickingParams: each of these inline-config
// values used to panic a battery or thermal constructor (or the timeout
// policy's timer) inside the run, killing the worker goroutine. They are
// refused at normalization instead; the valid neighbours still run.
func TestNormalizedRejectsPanickingParams(t *testing.T) {
	battery := func(kind string) BatteryConfig {
		b := DefaultBattery(0.9)
		b.Kind = kind
		return b
	}
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"timeout -1", func(c *Config) { c.Policy, c.Timeout = PolicyTimeout, -1 }, "negative Timeout"},
		{"kibam C 0", func(c *Config) { c.Battery.KiBaMC = 0 }, "KiBaM"},
		{"kibam C 1", func(c *Config) { c.Battery.KiBaMC = 1 }, "KiBaM"},
		{"kibam K 0", func(c *Config) { c.Battery.KiBaMK = 0 }, "KiBaM"},
		{"kibam K -1", func(c *Config) { c.Battery.KiBaMK = -1 }, "KiBaM"},
		{"soc -0.1", func(c *Config) { c.Battery.InitialSoC = -0.1 }, "InitialSoC"},
		{"soc 1.5", func(c *Config) { c.Battery.InitialSoC = 1.5 }, "InitialSoC"},
		{"soc 1.5 mains", func(c *Config) { c.Battery.InitialSoC, c.Battery.Mains = 1.5, true }, "InitialSoC"},
		{"linear capacity 0", func(c *Config) { c.Battery = battery("linear"); c.Battery.CapacityJ = 0 }, "CapacityJ"},
		{"kibam capacity -1", func(c *Config) { c.Battery.CapacityJ = -1 }, "CapacityJ"},
		{"peukert capacity 0", func(c *Config) { c.Battery = battery("peukert"); c.Battery.CapacityJ = 0 }, "CapacityJ"},
		{"peukert exponent 0.5", func(c *Config) { c.Battery = battery("peukert"); c.Battery.PeukertExponent = 0.5 }, "Peukert"},
		{"peukert ref -1", func(c *Config) { c.Battery = battery("peukert"); c.Battery.PeukertRefPower = -1 }, "Peukert"},
		{"rth 0", func(c *Config) { c.Thermal = thermal.DefaultParams(); c.Thermal.RthKperW = 0 }, "Rth or Cth"},
		{"cth -1", func(c *Config) { c.Thermal = thermal.DefaultParams(); c.Thermal.CthJperK = -1 }, "Rth or Cth"},
		{"network cth 0", func(c *Config) {
			c.PerIPThermal = true
			c.ThermalNetwork = thermal.DefaultNetworkParams()
			c.ThermalNetwork.NodeCthJperK = 0
		}, "network"},
		{"timeout 0 defaults", func(c *Config) { c.Policy, c.Timeout = PolicyTimeout, 0 }, ""},
		{"negative timeout unused", func(c *Config) { c.Timeout = -1 }, ""},
		{"linear", func(c *Config) { c.Battery = battery("linear") }, ""},
		{"peukert defaults", func(c *Config) { c.Battery = battery("peukert") }, ""},
		{"soc 0 and 1", func(c *Config) { c.Battery.InitialSoC = 1 }, ""},
		{"network defaults", func(c *Config) { c.PerIPThermal = true; c.Thermal.RthKperW = -1 }, ""},
	}
	for _, tc := range cases {
		cfg := smallConfig(PolicyDPM, 3)
		tc.mutate(&cfg)
		_, err := cfg.Normalized()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
		}
		// Run must answer with an error or a result, never a panic.
		if _, err := Run(cfg); (err == nil) != (tc.wantErr == "") {
			t.Errorf("%s: Run error %v, want error %v", tc.name, err, tc.wantErr != "")
		}
	}
}

func TestEnergyByIPSumsToTotal(t *testing.T) {
	res, err := Run(smallConfig(PolicyDPM, 10))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, e := range res.EnergyByIP {
		sum += e
	}
	sum += res.BusEnergyJ
	if diff := res.EnergyJ - sum; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("EnergyJ %v != sum of parts %v", res.EnergyJ, sum)
	}
}

func TestBatteryDischargesDuringRun(t *testing.T) {
	cfg := smallConfig(PolicyAlwaysOn, 60)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalSoC >= 0.95 {
		t.Fatalf("FinalSoC %v did not drop", res.FinalSoC)
	}
}

func TestDPMDeterministic(t *testing.T) {
	a, err := Run(smallConfig(PolicyDPM, 25))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(PolicyDPM, 25))
	if err != nil {
		t.Fatal(err)
	}
	if a.EnergyJ != b.EnergyJ || a.Duration != b.Duration || a.TasksDone != b.TasksDone {
		t.Fatalf("non-deterministic: %v/%v vs %v/%v", a.EnergyJ, a.Duration, b.EnergyJ, b.Duration)
	}
}

func TestOracleBeatsOrMatchesTimeoutOnEnergy(t *testing.T) {
	to, err := Run(smallConfig(PolicyTimeout, 40))
	if err != nil {
		t.Fatal(err)
	}
	or, err := Run(smallConfig(PolicyOracle, 40))
	if err != nil {
		t.Fatal(err)
	}
	// The oracle never wastes the timeout period idling at full power.
	if or.EnergyJ > to.EnergyJ*1.02 {
		t.Fatalf("oracle energy %v clearly above timeout's %v", or.EnergyJ, to.EnergyJ)
	}
}

func TestInitialStateRespected(t *testing.T) {
	cfg := smallConfig(PolicyDPM, 5)
	cfg.IPs[0].InitialState = acpi.SL2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run from sleeping initial state did not complete")
	}
}

func TestPerIPThermalRun(t *testing.T) {
	cfg := Config{
		IPs: []IPSpec{
			{Name: "hot", Sequence: workload.HighActivity(1, 15).MustGenerate(), StaticPriority: 1},
			{Name: "cool", Sequence: workload.LowActivity(2, 15).MustGenerate(), StaticPriority: 2},
		},
		Policy:       PolicyDPM,
		PerIPThermal: true,
		Battery:      DefaultBattery(0.95),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.TasksDone != 30 {
		t.Fatalf("Completed=%v TasksDone=%d", res.Completed, res.TasksDone)
	}
	if res.AvgTempC <= res.AmbientC {
		t.Fatalf("AvgTempC %v not above ambient", res.AvgTempC)
	}
}

func TestPerIPThermalWithGEM(t *testing.T) {
	cfg := Config{
		IPs: []IPSpec{
			{Name: "a", Sequence: workload.HighActivity(1, 10).MustGenerate(), StaticPriority: 1},
			{Name: "b", Sequence: workload.HighActivity(2, 10).MustGenerate(), StaticPriority: 2},
		},
		Policy:       PolicyDPM,
		UseGEM:       true,
		PerIPThermal: true,
		Battery:      DefaultBattery(0.95),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.GEMEvaluations == 0 {
		t.Fatalf("Completed=%v evals=%d", res.Completed, res.GEMEvaluations)
	}
}

func TestRegulatorDrainsBatteryFaster(t *testing.T) {
	base := smallConfig(PolicyAlwaysOn, 20)
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withReg := smallConfig(PolicyAlwaysOn, 20)
	withReg.Regulator = power.DefaultRegulator()
	reg, err := Run(withReg)
	if err != nil {
		t.Fatal(err)
	}
	if reg.FinalSoC >= plain.FinalSoC {
		t.Fatalf("regulator losses missing: SoC %v vs %v", reg.FinalSoC, plain.FinalSoC)
	}
	// The SoC-side energy accounting is unchanged (losses are upstream).
	if reg.EnergyJ != plain.EnergyJ {
		t.Fatalf("regulator changed SoC energy: %v vs %v", reg.EnergyJ, plain.EnergyJ)
	}
}

func TestPeukertBatteryKind(t *testing.T) {
	cfg := smallConfig(PolicyAlwaysOn, 15)
	cfg.Battery = BatteryConfig{Kind: "peukert", CapacityJ: 20, InitialSoC: 0.9,
		PeukertExponent: 1.3, PeukertRefPower: 0.5}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.FinalSoC >= 0.9 {
		t.Fatalf("Completed=%v FinalSoC=%v", res.Completed, res.FinalSoC)
	}
}

func TestGEMBusOccupancyLimitWired(t *testing.T) {
	// With an absurdly low occupancy limit, any bus traffic marks the SoC
	// congested and low-priority IPs get parked at least once.
	cfg := Config{
		IPs: []IPSpec{
			{Name: "a", Sequence: workload.HighActivity(1, 20).MustGenerate(), StaticPriority: 1},
			{Name: "b", Sequence: workload.HighActivity(2, 20).MustGenerate(), StaticPriority: 4},
		},
		Policy:   PolicyDPM,
		UseGEM:   true,
		GEM:      gem.Config{HighPriorityCutoff: 2, BusOccupancyLimit: 1e-9},
		Battery:  DefaultBattery(0.95),
		BusWords: 4096, // long transfers keep occupancy measurably positive
		Horizon:  30 * sim.Sec,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LEMStats["b"].ParkEvents == 0 {
		t.Fatalf("low-priority IP never parked under congestion: %+v", res.LEMStats["b"])
	}
	if res.LEMStats["a"].OnDecisions == nil || res.TasksDone == 0 {
		t.Fatal("nothing ran")
	}
}

func TestNewPredictorKindsRun(t *testing.T) {
	for _, kind := range []PredictorKind{PredictorAdaptive, PredictorQuantile} {
		cfg := smallConfig(PolicyDPM, 12)
		cfg.LEM = LEMOptions{Predictor: kind}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !res.Completed {
			t.Fatalf("%s: incomplete", kind)
		}
	}
}

// TestRunConcurrentSharedConfig runs the same Config value from several
// goroutines at once (as internal/engine's worker pool does). Under -race
// this catches any shared mutable state — in particular, Run must not
// mutate the caller's IPs backing array while filling defaults.
func TestRunConcurrentSharedConfig(t *testing.T) {
	cfg := smallConfig(PolicyDPM, 15)
	cfg.IPs[0].Name = "" // force fillDefaults to touch the spec
	const n = 4
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if results[i].EnergyJ != results[0].EnergyJ || results[i].Duration != results[0].Duration {
			t.Fatalf("run %d diverged: E=%v vs %v, D=%v vs %v",
				i, results[i].EnergyJ, results[0].EnergyJ, results[i].Duration, results[0].Duration)
		}
	}
	if cfg.IPs[0].Name != "" {
		t.Fatal("Run mutated the caller's IPs slice")
	}
}
