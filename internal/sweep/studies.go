package sweep

import (
	"fmt"
	"strings"

	"godpm/internal/acpi"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/task"
	"godpm/internal/workload"
)

// workloadFor builds the common single-IP workload the studies share.
func workloadFor(seed int64, numTasks int, meanIdle sim.Time) workload.Sequence {
	p := workload.HighActivity(seed, numTasks)
	p.MeanIdle = meanIdle
	p.PriorityWeights = [task.NumPriorities]float64{1, 2, 2, 1}
	return p.MustGenerate()
}

// baseConfig is the shared single-IP scaffold.
func baseConfig(seq workload.Sequence) soc.Config {
	return soc.Config{
		IPs:     []soc.IPSpec{{Name: "ip0", Sequence: seq}},
		Battery: soc.DefaultBattery(0.95),
		Horizon: 120 * sim.Sec,
	}
}

// TimeoutStudy sweeps the classic fixed-timeout policy's timeout (in
// milliseconds): too short wastes wake-ups, too long wastes idle power —
// the curve the break-even analysis sidesteps.
func TimeoutStudy(seed int64, numTasks int) Sweep {
	seq := workloadFor(seed, numTasks, 10*sim.Ms)
	return Sweep{
		Name:   "timeout",
		Param:  "timeout_ms",
		Values: []float64{0.5, 1, 2, 5, 10, 20, 50},
		Build: func(v float64) soc.Config {
			cfg := baseConfig(seq)
			cfg.Policy = soc.PolicyTimeout
			cfg.Timeout = sim.Time(v * float64(sim.Ms))
			cfg.TimeoutSleepState = acpi.SL2
			return cfg
		},
		BuildBaseline: func(float64) soc.Config {
			cfg := baseConfig(seq)
			cfg.Policy = soc.PolicyAlwaysOn
			return cfg
		},
	}
}

// ActivityStudy sweeps the workload's mean idle gap (milliseconds): DPM
// savings grow with idleness while the always-on baseline burns idle power.
func ActivityStudy(seed int64, numTasks int) Sweep {
	build := func(v float64, policy soc.PolicyKind) soc.Config {
		seq := workloadFor(seed, numTasks, sim.Time(v*float64(sim.Ms)))
		cfg := baseConfig(seq)
		cfg.Policy = policy
		return cfg
	}
	return Sweep{
		Name:   "activity",
		Param:  "mean_idle_ms",
		Values: []float64{1, 2, 5, 10, 20, 50, 100},
		Build: func(v float64) soc.Config {
			return build(v, soc.PolicyDPM)
		},
		BuildBaseline: func(v float64) soc.Config {
			return build(v, soc.PolicyAlwaysOn)
		},
	}
}

// AlphaStudy sweeps the LEM's EWMA smoothing factor.
func AlphaStudy(seed int64, numTasks int) Sweep {
	seq := workloadFor(seed, numTasks, 10*sim.Ms)
	return Sweep{
		Name:   "alpha",
		Param:  "ewma_alpha",
		Values: []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0},
		Build: func(v float64) soc.Config {
			cfg := baseConfig(seq)
			cfg.Policy = soc.PolicyDPM
			cfg.LEM = soc.LEMOptions{Predictor: soc.PredictorEWMA, Alpha: v}
			return cfg
		},
		BuildBaseline: func(float64) soc.Config {
			cfg := baseConfig(seq)
			cfg.Policy = soc.PolicyAlwaysOn
			return cfg
		},
	}
}

// HorizonStudy sweeps the simulation horizon (seconds) under an open-loop
// MMPP arrival stream: energy and temperature as functions of how long the
// SoC runs. Every point shares the full configuration except Horizon, so
// the batch engine collapses the study into one forked session (sweep
// warm-start) — the shared trajectory prefix simulates once and each point
// is snapshotted at its own cut, bit-identical to solo runs.
func HorizonStudy(seed int64, numTasks int) Sweep {
	gen := workload.DefaultMMPP(workload.NewSeed(uint64(seed)), numTasks)
	arr := gen.MustGenerate()
	build := func(v float64, policy soc.PolicyKind) soc.Config {
		cfg := soc.Config{
			IPs:     []soc.IPSpec{{Name: "ip0", Arrivals: arr}},
			Battery: soc.DefaultBattery(0.95),
			Policy:  policy,
			Horizon: sim.Time(v * float64(sim.Sec)),
		}
		return cfg
	}
	return Sweep{
		Name:   "horizon",
		Param:  "horizon_s",
		Values: []float64{0.5, 1, 2, 5, 10, 20, 60},
		Build: func(v float64) soc.Config {
			return build(v, soc.PolicyDPM)
		},
		BuildBaseline: func(v float64) soc.Config {
			return build(v, soc.PolicyAlwaysOn)
		},
	}
}

// studies lists every built-in study's name and constructor, sorted by
// name.
var studies = []struct {
	name  string
	build func(seed int64, numTasks int) Sweep
}{
	{"activity", ActivityStudy},
	{"alpha", AlphaStudy},
	{"horizon", HorizonStudy},
	{"timeout", TimeoutStudy},
}

// StudyNames returns the names Resolve accepts, sorted.
func StudyNames() []string {
	names := make([]string, len(studies))
	for i, st := range studies {
		names[i] = st.name
	}
	return names
}

// Resolve returns the built-in study a user-supplied name denotes. The
// name is trimmed and matched case-insensitively, and only the match is
// built, so an unknown name is refused, with the list of names, before
// any workload is generated however many tasks it asks for.
func Resolve(name string, seed int64, numTasks int) (Sweep, error) {
	if numTasks > workload.MaxTasks {
		return Sweep{}, fmt.Errorf("sweep: %d tasks exceeds the cap of %d", numTasks, workload.MaxTasks)
	}
	name = strings.TrimSpace(name)
	for _, st := range studies {
		if strings.EqualFold(st.name, name) {
			return st.build(seed, numTasks), nil
		}
	}
	return Sweep{}, fmt.Errorf("unknown study %q; available: %v", name, StudyNames())
}
