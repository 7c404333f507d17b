// Package report renders experiment results as Markdown: the Table 2
// paper-vs-measured comparison, per-scenario detail sections and the shape
// checks the README documents — so the whole comparison document can be
// regenerated mechanically (dpmsim -format md).
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"godpm/internal/experiments"
)

// Options controls rendering.
type Options struct {
	// Title heads the document.
	Title string
	// Details adds a per-scenario section with energies, durations,
	// temperatures and LEM/GEM statistics.
	Details bool
}

// Write renders the report for the measured rows.
func Write(w io.Writer, rows []experiments.Row, opt Options) error {
	title := opt.Title
	if title == "" {
		title = "DPM reproduction report"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n\n", title)

	b.WriteString("## Table 2 — paper vs measured\n\n")
	b.WriteString("| Sim | Energy saving % (paper) | (measured) | Temp reduction % (paper) | (measured) | Delay overhead % (paper) | (measured) |\n")
	b.WriteString("|-----|------:|------:|------:|------:|------:|------:|\n")
	for _, r := range rows {
		p, hasPaper := experiments.PaperTable2[r.ID]
		paperCol := func(v float64) string {
			if !hasPaper {
				return "—"
			}
			return fmt.Sprintf("%.0f", v)
		}
		fmt.Fprintf(&b, "| %s | %s | **%.1f** | %s | **%.1f** | %s | **%.1f** |\n",
			r.ID,
			paperCol(p.EnergySavingPct), r.EnergySavingPct,
			paperCol(p.TempReductionPct), r.TempReductionPct,
			paperCol(p.DelayOverheadPct), r.DelayOverheadPct)
	}
	b.WriteString("\n")

	if checks := ShapeChecks(rows); len(checks) > 0 {
		b.WriteString("## Shape checks\n\n")
		for _, c := range checks {
			mark := "✓"
			if !c.Pass {
				mark = "✗"
			}
			fmt.Fprintf(&b, "- %s %s\n", mark, c.Description)
		}
		b.WriteString("\n")
	}

	if opt.Details {
		b.WriteString("## Per-scenario details\n\n")
		for _, r := range rows {
			writeDetails(&b, r)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeDetails(b *strings.Builder, r experiments.Row) {
	d, base := r.DPM, r.Base
	fmt.Fprintf(b, "### %s\n\n", r.ID)
	fmt.Fprintf(b, "- DPM: %.4f J over %v (%d tasks, completed=%v)\n",
		d.EnergyJ, d.Duration, d.TasksDone, d.Completed)
	fmt.Fprintf(b, "- baseline: %.4f J over %v\n", base.EnergyJ, base.Duration)
	fmt.Fprintf(b, "- temperature: DPM avg %.1f °C peak %.1f °C; baseline avg %.1f °C peak %.1f °C\n",
		d.AvgTempC, d.PeakTempC, base.AvgTempC, base.PeakTempC)
	fmt.Fprintf(b, "- battery: final SoC %.3f (%v)\n", d.FinalSoC, d.FinalBatteryStatus)
	names := make([]string, 0, len(d.LEMStats))
	for n := range d.LEMStats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := d.LEMStats[n]
		fmt.Fprintf(b, "- %s: on=%v sleeps=%v parks=%d parked=%v\n",
			n, formatCounts(st.OnDecisions), formatCounts(st.SleepEntries), st.ParkEvents, st.ParkedTime)
	}
	if d.GEMEvaluations > 0 {
		fmt.Fprintf(b, "- GEM: %d evaluations, %d fan switches\n", d.GEMEvaluations, d.FanSwitches)
	}
	b.WriteString("\n")
}

func formatCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		name := k
		if name == "" {
			name = "stay-on"
		}
		parts = append(parts, fmt.Sprintf("%s×%d", name, m[k]))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// Check is one verified property of the measured rows.
type Check struct {
	Description string
	Pass        bool
}

// ShapeChecks evaluates the orderings the paper's conclusions rest on
// against the measured rows (only checks whose scenarios are present are
// emitted).
func ShapeChecks(rows []experiments.Row) []Check {
	by := map[string]experiments.Row{}
	for _, r := range rows {
		by[r.ID] = r
	}
	var out []Check
	add := func(ids []string, desc string, pred func() bool) {
		for _, id := range ids {
			if _, ok := by[id]; !ok {
				return
			}
		}
		out = append(out, Check{Description: desc, Pass: pred()})
	}
	add([]string{"A1", "A2"}, "A2 saves more energy than A1 (battery Low forces frugal states)", func() bool {
		return by["A2"].EnergySavingPct > by["A1"].EnergySavingPct
	})
	add([]string{"A1", "A2"}, "A2 pays far more delay than A1 (ON4's 4× slower clock)", func() bool {
		return by["A2"].DelayOverheadPct > 2*by["A1"].DelayOverheadPct
	})
	add([]string{"A2"}, "A2 shows the ≈300% ON4 delay signature", func() bool {
		return by["A2"].DelayOverheadPct > 200
	})
	add([]string{"A1", "A3"}, "A3 (hot start) costs only a few extra delay points over A1", func() bool {
		diff := by["A3"].DelayOverheadPct - by["A1"].DelayOverheadPct
		return diff > -15 && diff < 30
	})
	add([]string{"A2", "A4"}, "A4 tracks A2 (temperature control is nearly free at ON4)", func() bool {
		diff := by["A4"].DelayOverheadPct - by["A2"].DelayOverheadPct
		return diff > -30 && diff < 30
	})
	add([]string{"A1", "B"}, "B (GEM, 4 IPs) reaches a larger saving than A1", func() bool {
		return by["B"].EnergySavingPct > by["A1"].EnergySavingPct
	})
	add([]string{"A2", "B"}, "B's delay stays below A2's (GEM throttles selectively)", func() bool {
		return by["B"].DelayOverheadPct < by["A2"].DelayOverheadPct
	})
	for _, id := range []string{"A1", "A2", "A3", "A4", "B", "C"} {
		id := id
		add([]string{id}, fmt.Sprintf("%s reduces the average temperature", id), func() bool {
			return by[id].TempReductionPct > 0
		})
	}
	return out
}

// AllPass reports whether every check passed.
func AllPass(checks []Check) bool {
	for _, c := range checks {
		if !c.Pass {
			return false
		}
	}
	return true
}
