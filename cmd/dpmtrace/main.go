// Command dpmtrace runs one scenario with waveform observers attached and
// writes a VCD file (PSM states, battery class, temperature class — open it
// in GTKWave) and a CSV file (sampled temperature, state of charge and
// per-IP power) — the signals the paper's SystemC study inspected.
//
// Usage:
//
//	dpmtrace [-scenario A1] [-tasks 30] [-vcd out.vcd] [-csv out.csv] [-baseline]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"godpm"
)

func main() {
	var (
		scenario = flag.String("scenario", "A1", "scenario to trace: A1..A4, B, C or an extension")
		tasks    = flag.Int("tasks", 30, "tasks per IP")
		vcdPath  = flag.String("vcd", "dpm.vcd", "VCD output path")
		csvPath  = flag.String("csv", "dpm.csv", "CSV output path")
		baseline = flag.Bool("baseline", false, "trace the always-on baseline instead of the DPM run")
	)
	flag.Parse()

	tuning := godpm.DefaultTuning()
	if *tasks > 0 {
		tuning.NumTasks = *tasks
	}
	s, err := godpm.ResolveScenario(*scenario, tuning)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := s.Config
	if *baseline {
		cfg = godpm.Baseline(s)
	}

	vcdFile, err := os.Create(*vcdPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer vcdFile.Close()
	csvFile, err := os.Create(*csvPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer csvFile.Close()

	res, err := godpm.RunWith(context.Background(), cfg, godpm.RunOptions{
		Observers: []godpm.Observer{
			godpm.NewVCDObserver(vcdFile),
			godpm.NewCSVObserver(csvFile),
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d tasks in %v, %.4f J, avg %.1f°C (completed=%v)\n",
		s.ID, res.TasksDone, res.Duration, res.EnergyJ, res.AvgTempC, res.Completed)
	fmt.Printf("wrote %s and %s\n", *vcdPath, *csvPath)
}
