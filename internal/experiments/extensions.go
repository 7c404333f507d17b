package experiments

import (
	"fmt"
	"maps"
	"slices"

	"godpm/internal/power"
	"godpm/internal/workload"
)

// defaultRegulator builds the converter model the regulator extension uses.
func defaultRegulator() *power.Regulator { return power.DefaultRegulator() }

// Extensions returns scenarios beyond the paper's six, exercising the
// features the paper sketches but does not evaluate:
//
//   - "B-perip": scenario B with one thermal node per IP on a shared
//     spreader (each LEM sees its own sensor, the GEM the hottest node);
//   - "B-openloop": scenario B with open-loop service-request arrivals
//     (queues build when the GEM throttles low-priority IPs);
//   - "A1-regulator": scenario A1 with the DC-DC converter between battery
//     and SoC (the battery sees the converter's losses).
func Extensions(t Tuning) []Scenario {
	return []Scenario{BPerIP(t), BOpenLoop(t), A1Regulator(t)}
}

// BPerIP is scenario B with the per-IP thermal network.
func BPerIP(t Tuning) Scenario {
	s := B(t)
	s.ID = "B-perip"
	s.Description = s.Description + " (per-IP thermal network)"
	s.Config.PerIPThermal = true
	return s
}

// BOpenLoop is scenario B with open-loop arrivals: the same per-IP offered
// load, but service requests keep arriving regardless of the IP's state.
func BOpenLoop(t Tuning) Scenario {
	s := B(t)
	s.ID = "B-openloop"
	s.Description = s.Description + " (open-loop arrivals)"
	for i := range s.Config.IPs {
		spec := &s.Config.IPs[i]
		var prof workload.Profile
		if i < 2 {
			prof = workload.HighActivity(t.Seed+int64(i), t.NumTasks)
		} else {
			prof = workload.LowActivity(t.Seed+int64(i), t.NumTasks)
		}
		prof = mixedPriorities(prof)
		spec.Sequence = nil
		// Offered load sized to the ON4 service rate: with battery Low the
		// whole SoC runs at ON4, and a faster arrival process would grow
		// the queues without bound (the IPs would never idle, so the KiBaM
		// recovery that re-enables low-priority IPs could never happen).
		spec.Arrivals = prof.MustGenerateArrivals(power.DefaultProfile().On[3].FreqHz)
	}
	return s
}

// A1Regulator is scenario A1 with the default DC-DC converter model.
func A1Regulator(t Tuning) Scenario {
	s := A1(t)
	s.ID = "A1-regulator"
	s.Description = s.Description + " (with DC-DC regulator losses)"
	s.Config.Regulator = defaultRegulator()
	return s
}

// extensionScenarios maps each extension ID to its constructor.
var extensionScenarios = map[string]func(Tuning) Scenario{
	"B-perip": BPerIP, "B-openloop": BOpenLoop, "A1-regulator": A1Regulator,
}

// ExtensionIDs returns the extension scenario IDs, sorted, without
// building any scenario.
func ExtensionIDs() []string { return slices.Sorted(maps.Keys(extensionScenarios)) }

// ExtensionByID returns the named extension scenario.
func ExtensionByID(id string, t Tuning) (Scenario, error) {
	if build, ok := extensionScenarios[id]; ok {
		return build(t), nil
	}
	return Scenario{}, fmt.Errorf("experiments: unknown extension %q", id)
}
