// Fast-forward equivalence property test: the kernel's idle fast-forward
// (soc runs hand each idle gap to the accountant's sampler through
// sim.GapPeriodic) is a pure scheduling shortcut, so every configuration
// must produce bit-identical results with it on (the default) and off
// (RunOptions.NoFastForward). The kernel-level contract is pinned in
// internal/sim; this test sweeps the property across the full stack —
// generator kinds, policies, every battery chemistry, the per-IP thermal
// network, the regulator, multi-IP GEM configurations with fan switching
// and bus-occupancy polling, early-stop conditions firing inside idle
// gaps, and forked members — over several seeds each.
package godpm_test

import (
	"context"
	"testing"

	"godpm/internal/engine"
	"godpm/internal/experiments"
	"godpm/internal/gem"
	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/task"
	"godpm/internal/workload"
)

// ffCase is one point of the property sweep: a seeded config generator
// plus the (fast-forward-independent) run options it is executed with.
// stops marks cases whose stop condition must fire; fan marks cases whose
// GEM must switch the fan.
type ffCase struct {
	name  string
	cfg   func(seed uint64) soc.Config
	opts  soc.RunOptions
	stops bool
	fan   bool
}

// idleMMPP is an MMPP workload that spends most of its time quiet, so runs
// are dominated by long idle gaps.
func idleMMPP(seed uint64, numTasks int) workload.Spec {
	p := workload.DefaultMMPP(workload.NewSeed(seed), numTasks)
	p.QuietRate = 0.5
	p.MeanQuiet = 1600 * sim.Ms
	return workload.MMPPSpec(p)
}

// hotStart runs a Table 2 multi-IP scenario from a die above the High
// threshold, so the GEM switches its fan on and off as the die cools.
func hotStart(scenario func(experiments.Tuning) experiments.Scenario) func(seed uint64) soc.Config {
	return func(seed uint64) soc.Config {
		tu := experiments.DefaultTuning()
		tu.NumTasks, tu.Seed, tu.Horizon = 30, int64(seed), 20*sim.Sec
		cfg := scenario(tu).Config
		cfg.InitialTempC = 85
		return cfg
	}
}

func ffCases() []ffCase {
	return []ffCase{
		{name: "mmpp-dpm", cfg: func(seed uint64) soc.Config {
			return soc.Config{
				IPs:    []soc.IPSpec{{Name: "ip0", Gen: workload.MMPPSpec(workload.DefaultMMPP(workload.NewSeed(seed), 30))}},
				Policy: soc.PolicyDPM,
			}
		}},
		{name: "idle-mmpp-timeout-linear", cfg: func(seed uint64) soc.Config {
			return soc.Config{
				IPs:     []soc.IPSpec{{Name: "ip0", Gen: idleMMPP(seed, 24)}},
				Policy:  soc.PolicyTimeout,
				Battery: soc.BatteryConfig{Kind: "linear", CapacityJ: 20, InitialSoC: 0.9},
			}
		}},
		{name: "heavytail-closed-dpm", cfg: func(seed uint64) soc.Config {
			return soc.Config{
				IPs:    []soc.IPSpec{{Name: "ip0", Gen: workload.HeavyTailSpec(workload.DefaultHeavyTail(workload.NewSeed(seed), 30))}},
				Policy: soc.PolicyDPM,
			}
		}},
		{name: "periodic-greedy", cfg: func(seed uint64) soc.Config {
			return soc.Config{
				IPs:    []soc.IPSpec{{Name: "ip0", Gen: workload.PeriodicSpec(workload.DefaultPeriodic(workload.NewSeed(seed), 30))}},
				Policy: soc.PolicyGreedy,
			}
		}},
		{name: "burst-alwayson", cfg: func(seed uint64) soc.Config {
			return soc.Config{
				IPs:    []soc.IPSpec{{Name: "ip0", Gen: workload.BurstSpec(workload.DefaultBurst(int64(seed), 30))}},
				Policy: soc.PolicyAlwaysOn,
			}
		}},
		{name: "two-ip-gem", cfg: func(seed uint64) soc.Config {
			s := workload.NewSeed(seed)
			return soc.Config{
				IPs: []soc.IPSpec{
					{Name: "ht", Gen: workload.HeavyTailSpec(workload.DefaultHeavyTail(s.Split("ht"), 20))},
					{Name: "mm", Gen: workload.MMPPSpec(workload.DefaultMMPP(s.Split("mm"), 20))},
				},
				Policy: soc.PolicyDPM,
				UseGEM: true,
			}
		}},
		{name: "two-ip-gem-buslimited", cfg: func(seed uint64) soc.Config {
			// BusOccupancyLimit > 0 re-evaluates the GEM every tick, the
			// densest per-sample work the accountant can carry through a gap.
			s := workload.NewSeed(seed)
			return soc.Config{
				IPs: []soc.IPSpec{
					{Name: "ht", Gen: workload.HeavyTailSpec(workload.DefaultHeavyTail(s.Split("ht"), 20))},
					{Name: "mm", Gen: workload.MMPPSpec(workload.DefaultMMPP(s.Split("mm"), 20))},
				},
				Policy: soc.PolicyDPM,
				UseGEM: true,
				GEM:    gem.Config{BusOccupancyLimit: 0.4},
			}
		}},
		{name: "three-ip-gem-bus-polled", cfg: func(seed uint64) soc.Config {
			// Heavy bus traffic against a limit near the run's occupancy:
			// the polled occupancy decays through idle gaps and crosses
			// the limit inside them, toggling the third IP (the first
			// priority a congested bus disables).
			s := workload.NewSeed(seed)
			return soc.Config{
				IPs: []soc.IPSpec{
					{Name: "ht", Gen: workload.HeavyTailSpec(workload.DefaultHeavyTail(s.Split("ht"), 20))},
					{Name: "mm", Gen: workload.MMPPSpec(workload.DefaultMMPP(s.Split("mm"), 20))},
					{Name: "lo", Gen: idleMMPP(uint64(s.Split("lo")), 20)},
				},
				Policy:   soc.PolicyDPM,
				UseGEM:   true,
				GEM:      gem.Config{BusOccupancyLimit: 0.0022},
				BusWords: 4096,
			}
		}},
		{name: "idle-mmpp-stop-on-soc", cfg: func(seed uint64) soc.Config {
			return soc.Config{
				IPs:     []soc.IPSpec{{Name: "ip0", Gen: idleMMPP(seed, 24)}},
				Policy:  soc.PolicyDPM,
				Battery: soc.DefaultBattery(0.95),
			}
		}, opts: soc.RunOptions{StopWhen: []soc.StopCondition{soc.StopOnSoC(0.93)}}},
		{name: "mains-dpm", cfg: func(seed uint64) soc.Config {
			b := soc.DefaultBattery(0.95)
			b.Mains = true
			return soc.Config{
				IPs:     []soc.IPSpec{{Name: "ip0", Gen: idleMMPP(seed, 24)}},
				Policy:  soc.PolicyDPM,
				Battery: b,
			}
		}},
		{name: "per-ip-thermal-gem", cfg: func(seed uint64) soc.Config {
			s := workload.NewSeed(seed)
			return soc.Config{
				IPs: []soc.IPSpec{
					{Name: "a", Gen: idleMMPP(uint64(s.Split("a")), 16)},
					{Name: "b", Gen: workload.HeavyTailSpec(workload.DefaultHeavyTail(s.Split("b"), 16))},
				},
				Policy:       soc.PolicyDPM,
				UseGEM:       true,
				PerIPThermal: true,
			}
		}},
		{name: "regulator-kibam", cfg: func(seed uint64) soc.Config {
			return soc.Config{
				IPs:       []soc.IPSpec{{Name: "ip0", Gen: idleMMPP(seed, 24)}},
				Policy:    soc.PolicyDPM,
				Regulator: power.DefaultRegulator(),
			}
		}},
		{name: "peukert-timeout", cfg: func(seed uint64) soc.Config {
			return soc.Config{
				IPs:    []soc.IPSpec{{Name: "ip0", Gen: idleMMPP(seed, 24)}},
				Policy: soc.PolicyTimeout,
				Battery: soc.BatteryConfig{Kind: "peukert", CapacityJ: 20, InitialSoC: 0.9,
					PeukertExponent: 1.3, PeukertRefPower: 0.5},
			}
		}},
		{name: "gem-fan-B", cfg: hotStart(experiments.B), fan: true},
		{name: "gem-fan-C", cfg: hotStart(experiments.C), fan: true},
		{name: "stop-on-temperature-in-gap", cfg: func(seed uint64) soc.Config {
			// A cold die warms toward ambient through a long idle stretch
			// after one tiny task: the ceiling is crossed mid-gap.
			return soc.Config{
				IPs: []soc.IPSpec{{Name: "ip0", Sequence: workload.Sequence{
					{Task: task.Task{ID: 1, Instructions: 100}, IdleAfter: sim.Time(seed) * sim.Sec},
					{Task: task.Task{ID: 2, Instructions: 100}},
				}}},
				Policy:       soc.PolicyDPM,
				InitialTempC: 30,
			}
		}, opts: soc.RunOptions{StopWhen: []soc.StopCondition{soc.StopOnTemperature(44.9)}}, stops: true},
		{name: "stop-on-energy-in-gap", cfg: func(seed uint64) soc.Config {
			return soc.Config{
				IPs:    []soc.IPSpec{{Name: "ip0", Gen: idleMMPP(seed, 24)}},
				Policy: soc.PolicyDPM,
			}
		}, opts: soc.RunOptions{StopWhen: []soc.StopCondition{soc.StopOnEnergyBudget(0.08)}}, stops: true},
	}
}

// TestFastForwardEquivalenceProperty runs every case over several seeds in
// both kernel modes and asserts the results are bit-identical: same
// energy, temperature, delta-cycle count (the scheduling checksum), stop
// reason and full result digest.
func TestFastForwardEquivalenceProperty(t *testing.T) {
	seeds := []uint64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, c := range ffCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				cfg := c.cfg(seed)
				ff, err := soc.RunWith(context.Background(), cfg, c.opts)
				if err != nil {
					t.Fatalf("seed %d fastforward: %v", seed, err)
				}
				tickedOpts := c.opts
				tickedOpts.NoFastForward = true
				tk, err := soc.RunWith(context.Background(), cfg, tickedOpts)
				if err != nil {
					t.Fatalf("seed %d ticked: %v", seed, err)
				}
				if ff.EnergyJ != tk.EnergyJ || ff.AvgTempC != tk.AvgTempC ||
					ff.PeakTempC != tk.PeakTempC || ff.Duration != tk.Duration ||
					ff.Deltas != tk.Deltas || ff.TasksDone != tk.TasksDone ||
					ff.FinalSoC != tk.FinalSoC || ff.StopReason != tk.StopReason {
					t.Errorf("seed %d: modes diverge:\n  fastforward EnergyJ=%v AvgTempC=%v Deltas=%d Duration=%d Tasks=%d SoC=%v Stop=%q\n  ticked      EnergyJ=%v AvgTempC=%v Deltas=%d Duration=%d Tasks=%d SoC=%v Stop=%q",
						seed,
						ff.EnergyJ, ff.AvgTempC, ff.Deltas, ff.Duration, ff.TasksDone, ff.FinalSoC, ff.StopReason,
						tk.EnergyJ, tk.AvgTempC, tk.Deltas, tk.Duration, tk.TasksDone, tk.FinalSoC, tk.StopReason)
				}
				if dff, dtk := engine.ResultDigest(ff), engine.ResultDigest(tk); dff != dtk {
					t.Errorf("seed %d: result digests diverge: fastforward %s, ticked %s", seed, dff, dtk)
				}
				if c.stops && ff.StopReason == "" {
					t.Errorf("seed %d: the stop condition never fired", seed)
				}
				if c.fan && ff.FanSwitches == 0 {
					t.Errorf("seed %d: the GEM never switched its fan", seed)
				}
			}
		})
	}
}

// TestFastForwardForkedMembersMatchTicked runs fork groups — two horizons
// and an energy budget crossed mid-gap on one shared trajectory — and
// requires every member to match its solo ticked run bit for bit.
func TestFastForwardForkedMembersMatchTicked(t *testing.T) {
	budget := soc.StopOnEnergyBudget(0.05)
	members := []soc.ForkMember{{Horizon: 2 * sim.Sec}, {}, {StopWhen: []soc.StopCondition{budget}}}
	for _, c := range ffCases() {
		if c.name != "idle-mmpp-timeout-linear" && c.name != "per-ip-thermal-gem" && c.name != "peukert-timeout" {
			continue
		}
		cfg := c.cfg(7)
		forked, err := soc.RunForked(context.Background(), cfg, members)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, m := range members {
			solo := cfg
			if m.Horizon > 0 {
				solo.Horizon = m.Horizon
			}
			want, err := soc.RunWith(context.Background(), solo, soc.RunOptions{StopWhen: m.StopWhen, NoFastForward: true})
			if err != nil {
				t.Fatalf("%s member %d: %v", c.name, i, err)
			}
			if got, w := engine.ResultDigest(forked[i]), engine.ResultDigest(want); got != w {
				t.Errorf("%s member %d: forked digest %s, ticked solo %s", c.name, i, got, w)
			}
		}
		if forked[2].StopReason == "" {
			t.Errorf("%s: the budget member never stopped", c.name)
		}
	}
}
