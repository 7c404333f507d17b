// Command dpmsim reproduces the paper's evaluation: it runs the Table 2
// scenarios (A1–A4, B, C) against their always-on baselines as one plan on
// the batch engine and prints the measured energy saving, temperature
// reduction and delay overhead next to the paper's numbers. With
// -format md it writes the Markdown report instead (comparison table,
// shape checks, per-scenario details) — the mechanical regeneration of
// the README's measured Table 2 content — and exits 3 when a shape check
// fails. It can also print the instantiated Fig. 1 topology of each
// scenario.
//
// Usage:
//
//	dpmsim [-run all|A1|A2|A3|A4|B|C|<extension>] [-ext] [-tasks N] [-seed N]
//	       [-format text|md] [-topology]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"godpm"
	"godpm/internal/report"
)

func main() {
	var (
		run      = flag.String("run", "all", "scenario to run: all, A1..A4, B, C or an extension")
		tasks    = flag.Int("tasks", 0, "tasks per IP (0 = default tuning)")
		seed     = flag.Int64("seed", 0, "workload seed (0 = default tuning)")
		topology = flag.Bool("topology", false, "print the Fig. 1 component graph instead of simulating")
		ext      = flag.Bool("ext", false, "also run the extension scenarios (per-IP thermal, open-loop, regulator)")
		format   = flag.String("format", "text", "output format: text (Table 2) or md (Markdown report)")
	)
	flag.Parse()

	if *format != "text" && *format != "md" {
		fmt.Fprintf(os.Stderr, "unknown format %q (want text or md)\n", *format)
		os.Exit(2)
	}

	tuning := godpm.DefaultTuning()
	if *tasks > 0 {
		tuning.NumTasks = *tasks
	}
	if *seed != 0 {
		tuning.Seed = *seed
	}

	var scenarios []godpm.Scenario
	if strings.EqualFold(*run, "all") {
		scenarios = godpm.Scenarios(tuning)
		if *ext {
			scenarios = append(scenarios, godpm.Extensions(tuning)...)
		}
	} else {
		s, err := godpm.ResolveScenario(*run, tuning)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		scenarios = []godpm.Scenario{s}
	}

	if *topology {
		for _, s := range scenarios {
			fmt.Println(godpm.Topology(s))
		}
		return
	}

	for _, s := range scenarios {
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", s.ID, s.Description)
	}
	eng := godpm.NewEngine(godpm.EngineOptions{NoCache: true})
	rows, err := godpm.RunScenarios(context.Background(), eng, scenarios)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *format == "md" {
		opt := report.Options{Title: "godpm — Table 2 reproduction (Conti, DATE 2005)", Details: true}
		if err := report.Write(os.Stdout, rows, opt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !report.AllPass(report.ShapeChecks(rows)) {
			fmt.Fprintln(os.Stderr, "WARNING: some shape checks failed")
			os.Exit(3)
		}
		return
	}

	fmt.Println("Table 2 — Performances of the DPM in the different simulations")
	fmt.Print(godpm.FormatTable2(rows))
	fmt.Println("\n(shape comparison: absolute numbers depend on the synthetic")
	fmt.Println(" power/battery/thermal characterisation; see README.md)")
	for _, row := range rows {
		fmt.Printf("sim speed %-3s: DPM %.1f Kcycle/s, baseline %.1f Kcycle/s\n",
			row.ID, row.DPM.KCyclesPerSec(), row.Base.KCyclesPerSec())
	}
}
