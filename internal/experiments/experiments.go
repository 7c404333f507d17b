// Package experiments defines the paper's six SystemC experiments (Table 2
// rows A1–A4, B and C), pairs each DPM run with its always-on baseline on
// the identical workload, and computes the energy-saving, temperature-
// reduction and delay-overhead percentages. It also regenerates the
// structural artefacts: Fig. 1 (the component topology) and Table 1 (the
// selection policy).
package experiments

import (
	"fmt"
	"strings"

	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/stats"
	"godpm/internal/task"
	"godpm/internal/workload"
)

// Scenario is one experiment: a DPM configuration plus its description.
type Scenario struct {
	ID          string
	Description string
	Config      soc.Config
}

// Tuning collects the knobs shared by all scenarios, so ablations can vary
// them coherently.
type Tuning struct {
	// NumTasks per IP.
	NumTasks int
	// Seed bases the per-IP workload seeds.
	Seed int64
	// BusWords per service request.
	BusWords int
	// Horizon bounds every run.
	Horizon sim.Time
}

// DefaultTuning returns the experiments' default workload knobs.
func DefaultTuning() Tuning {
	return Tuning{NumTasks: 120, Seed: 1, BusWords: 32, Horizon: 300 * sim.Sec}
}

// batteryFull / batteryLow / batteryLowShared choose the battery for the
// scenario classes. The single-IP scenarios use a small pack whose class
// barely moves; the multi-IP GEM scenarios use a pack sized so the KiBaM
// recovery effect swings the class across the Low/Medium boundary — that
// swing is what lets low-priority IPs make progress.
func batteryFull() soc.BatteryConfig { return soc.DefaultBattery(0.95) }
func batteryLow() soc.BatteryConfig  { return soc.DefaultBattery(0.25) }
func batteryLowShared() soc.BatteryConfig {
	// Sized so that (a) the full-SoC load dips the sensed charge below the
	// Low/Medium boundary (P/(k·capacity) > boundary−initial), while (b)
	// the whole run's energy leaves the recovery ceiling above it
	// (E_total/capacity < initial−boundary).
	return soc.BatteryConfig{
		Kind: "kibam", CapacityJ: 1600, InitialSoC: 0.303,
		KiBaMC: 0.10, KiBaMK: 0.05,
	}
}

const (
	tempLowC  = 50.0
	tempHighC = 90.0
)

// mixedPriorities weights the single-IP scenarios' task priorities so all
// four classes of Table 1 are exercised.
func mixedPriorities(p workload.Profile) workload.Profile {
	p.PriorityWeights = [task.NumPriorities]float64{1, 2, 2, 1}
	return p
}

// singleIP builds the A-series scenarios: one IP, one LEM/PSM, no GEM.
func singleIP(id, desc string, batt soc.BatteryConfig, initialTempC float64, t Tuning) Scenario {
	seq := mixedPriorities(workload.HighActivity(t.Seed, t.NumTasks)).MustGenerate()
	return Scenario{
		ID:          id,
		Description: desc,
		Config: soc.Config{
			IPs:          []soc.IPSpec{{Name: "ip0", Sequence: seq}},
			Policy:       soc.PolicyDPM,
			Battery:      batt,
			InitialTempC: initialTempC,
			BusWords:     t.BusWords,
			Horizon:      t.Horizon,
		},
	}
}

// A1 — battery Full, temperature Low.
func A1(t Tuning) Scenario {
	return singleIP("A1", "Battery Full, Temperature Low", batteryFull(), tempLowC, t)
}

// A2 — battery Low, temperature Low.
func A2(t Tuning) Scenario {
	return singleIP("A2", "Battery Low, Temperature Low", batteryLow(), tempLowC, t)
}

// A3 — battery Full, temperature High.
func A3(t Tuning) Scenario {
	return singleIP("A3", "Battery Full, Temperature High", batteryFull(), tempHighC, t)
}

// A4 — battery Low, temperature High.
func A4(t Tuning) Scenario {
	return singleIP("A4", "Battery Low, Temperature High", batteryLow(), tempHighC, t)
}

// multiIP builds the B/C scenarios: four IPs with a GEM, battery Low,
// temperature Low. highFirst selects whether the high-priority IPs carry
// the high-activity workloads (B) or the low-activity ones (C).
func multiIP(id, desc string, highFirst bool, t Tuning) Scenario {
	specs := make([]soc.IPSpec, 4)
	for i := 0; i < 4; i++ {
		var prof workload.Profile
		isHigh := (i < 2) == highFirst
		if isHigh {
			prof = workload.HighActivity(t.Seed+int64(i), t.NumTasks)
		} else {
			prof = workload.LowActivity(t.Seed+int64(i), t.NumTasks)
		}
		specs[i] = soc.IPSpec{
			Name:           fmt.Sprintf("ip%d", i+1),
			Sequence:       mixedPriorities(prof).MustGenerate(),
			StaticPriority: i + 1,
		}
	}
	return Scenario{
		ID:          id,
		Description: desc,
		Config: soc.Config{
			IPs:          specs,
			Policy:       soc.PolicyDPM,
			UseGEM:       true,
			Battery:      batteryLowShared(),
			InitialTempC: tempLowC,
			BusWords:     t.BusWords,
			Horizon:      t.Horizon,
		},
	}
}

// B — battery Low, temperature Low; IP1/IP2 (priorities 1–2) high activity,
// IP3/IP4 low activity.
func B(t Tuning) Scenario {
	return multiIP("B", "Battery Low, Temp Low: high-priority IPs busy", true, t)
}

// C — battery Low, temperature Low; IP1/IP2 low activity, IP3/IP4
// (priorities 3–4) high activity.
func C(t Tuning) Scenario {
	return multiIP("C", "Battery Low, Temp Low: low-priority IPs busy", false, t)
}

// All returns the six Table 2 scenarios.
func All(t Tuning) []Scenario {
	return []Scenario{A1(t), A2(t), A3(t), A4(t), B(t), C(t)}
}

// checkTasks refuses a task count the workload generators would refuse,
// before any scenario generates one.
func (t Tuning) checkTasks() error {
	if t.NumTasks > workload.MaxTasks {
		return fmt.Errorf("experiments: %d tasks per IP exceeds the cap of %d", t.NumTasks, workload.MaxTasks)
	}
	return nil
}

// paperScenarios maps each Table 2 ID to its constructor, so resolving
// one scenario builds (and generates the workloads of) that one only.
var paperScenarios = map[string]func(Tuning) Scenario{
	"A1": A1, "A2": A2, "A3": A3, "A4": A4, "B": B, "C": C,
}

// ByID returns the named scenario.
func ByID(id string, t Tuning) (Scenario, error) {
	if err := t.checkTasks(); err != nil {
		return Scenario{}, err
	}
	if build, ok := paperScenarios[id]; ok {
		return build(t), nil
	}
	return Scenario{}, fmt.Errorf("experiments: unknown scenario %q", id)
}

// scenarioIDs lists every name Resolve accepts: the paper's scenarios,
// then the extensions, each in catalog order.
var scenarioIDs = []string{"A1", "A2", "A3", "A4", "B", "C", "B-perip", "B-openloop", "A1-regulator"}

// Resolve returns the paper scenario or extension a user-supplied name
// denotes. The name is trimmed and matched case-insensitively, and only
// the match is built, so an unknown name is refused, with the list of
// IDs, before any workload is generated however many tasks t asks for.
func Resolve(name string, t Tuning) (Scenario, error) {
	if err := t.checkTasks(); err != nil {
		return Scenario{}, err
	}
	name = strings.TrimSpace(name)
	for _, id := range scenarioIDs {
		if !strings.EqualFold(id, name) {
			continue
		}
		if build, ok := paperScenarios[id]; ok {
			return build(t), nil
		}
		return extensionScenarios[id](t), nil
	}
	return Scenario{}, fmt.Errorf("unknown scenario %q; available: %v", name, scenarioIDs)
}

// Baseline derives the always-on reference configuration: same IPs, same
// workloads, same environment, no DPM and no GEM.
func Baseline(s Scenario) soc.Config {
	cfg := s.Config
	cfg.Policy = soc.PolicyAlwaysOn
	cfg.UseGEM = false
	return cfg
}

// Row is one line of Table 2.
type Row struct {
	ID               string
	EnergySavingPct  float64
	TempReductionPct float64
	DelayOverheadPct float64

	DPM  *soc.Result
	Base *soc.Result
}

// RunScenario executes the baseline and the DPM run and computes the row.
// It is a convenience over the batch engine (see RunScenarios in batch.go);
// the two runs share a two-worker pool.
func RunScenario(s Scenario) (Row, error) {
	rows, err := runScenariosDefault([]Scenario{s})
	if err != nil {
		return Row{}, err
	}
	return rows[0], nil
}

// computeRow derives the Table 2 columns from a scenario's paired runs.
func computeRow(id string, base, dpm *soc.Result) (Row, error) {
	row := Row{ID: id, DPM: dpm, Base: base}
	var err error
	if row.EnergySavingPct, err = stats.EnergySavingPct(base.EnergyJ, dpm.EnergyJ); err != nil {
		return Row{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	if row.TempReductionPct, err = stats.TempReductionPct(base.AvgTempC, dpm.AvgTempC, base.AmbientC); err != nil {
		return Row{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	if row.DelayOverheadPct, err = stats.DelayOverheadPct(base.Ledger, dpm.Ledger); err != nil {
		return Row{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return row, nil
}

// PaperRow holds the values the paper reports.
type PaperRow struct {
	EnergySavingPct  float64
	TempReductionPct float64
	DelayOverheadPct float64
}

// PaperTable2 is the paper's Table 2, for side-by-side reporting.
var PaperTable2 = map[string]PaperRow{
	"A1": {39, 31, 30},
	"A2": {55, 21, 339},
	"A3": {39, 18, 37},
	"A4": {55, 18, 339},
	"B":  {65, 19, 242},
	"C":  {64, 18, 253},
}

// FormatTable2 renders measured rows next to the paper's numbers.
func FormatTable2(rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %22s %22s %22s\n", "", "Energy saving (%)", "Temp reduction (%)", "Avg delay overhead (%)")
	fmt.Fprintf(&sb, "%-4s %10s %11s %10s %11s %10s %11s\n", "", "paper", "measured", "paper", "measured", "paper", "measured")
	for _, r := range rows {
		p := PaperTable2[r.ID]
		fmt.Fprintf(&sb, "%-4s %10.0f %11.1f %10.0f %11.1f %10.0f %11.1f\n",
			r.ID, p.EnergySavingPct, r.EnergySavingPct,
			p.TempReductionPct, r.TempReductionPct,
			p.DelayOverheadPct, r.DelayOverheadPct)
	}
	return sb.String()
}

// Topology renders the Fig. 1 component graph of a scenario's SoC: which
// managers, PSMs and IPs are instantiated and how they connect.
func Topology(s Scenario) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SoC %q (Fig. 1 architecture)\n", s.ID)
	if s.Config.UseGEM {
		sb.WriteString("  GEM <- battery status, temperature sensor, fan control\n")
	}
	sb.WriteString("  battery pack -> status classes {Empty,Low,Medium,High,Full}\n")
	sb.WriteString("  thermal sensor -> classes {Low,Medium,High}\n")
	if s.Config.BusWords > 0 {
		sb.WriteString("  shared BUS (service requests)\n")
	}
	for _, ipSpec := range s.Config.IPs {
		fmt.Fprintf(&sb, "  IP %-6s prio=%d tasks=%d <-> PSM <-> LEM", ipSpec.Name,
			ipSpec.StaticPriority, len(ipSpec.Sequence))
		if s.Config.UseGEM {
			sb.WriteString(" <-> GEM")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
