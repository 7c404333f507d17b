// Command dpmbatch runs a grid of simulations — Table 2 scenarios,
// extension scenarios, seed replicates and the built-in parameter studies —
// through the concurrent batch engine (internal/engine) and writes one
// record per job as CSV or JSON.
//
// With -format series, -study writes the study's figure-style CSV series
// (one row per parameter value) instead of one record per job.
//
// Every job is content-addressed: with -cache DIR, results persist across
// invocations and a re-run of the same grid is served from the cache
// without simulating (the summary on stderr reports hits/misses/runs).
//
// Usage:
//
//	dpmbatch [-scenarios all|ext|A1,B,...] [-study activity|alpha|horizon|timeout]
//	         [-replicates N] [-tasks N] [-seed N]
//	         [-workers N] [-cache DIR] [-remote-url URL]
//	         [-format csv|json|series] [-v]
//
// Examples:
//
//	dpmbatch -scenarios all -workers 8
//	dpmbatch -scenarios B,C -replicates 5 -format json
//	dpmbatch -study timeout -cache /tmp/dpmcache
//	dpmbatch -study alpha -tasks 15 -format series
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"godpm"
	"godpm/internal/sweep"
)

func main() {
	var (
		scenarios  = flag.String("scenarios", "", "comma list of scenario IDs; 'all' = A1..C, 'ext' = extensions")
		study      = flag.String("study", "", "parameter study to add: activity, alpha, horizon, timeout")
		replicates = flag.Int("replicates", 1, "seed replicates per scenario (seeds seed..seed+N-1)")
		tasks      = flag.Int("tasks", 0, "tasks per IP (0 = default tuning)")
		seed       = flag.Int64("seed", 0, "base workload seed (0 = default tuning)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = NumCPU)")
		cacheDir   = flag.String("cache", "", "result cache directory ('' = in-memory only)")
		remoteURL  = flag.String("remote-url", "", "dpmremote shared result store base URL ('' = local tiers only)")
		format     = flag.String("format", "csv", "output format: csv, json, or series (the -study's CSV series)")
		verbose    = flag.Bool("v", false, "log every job completion to stderr")
	)
	flag.Parse()

	switch *format {
	case "csv", "json":
	case "series":
		if *study == "" || *scenarios != "" || *replicates > 1 {
			fmt.Fprintln(os.Stderr, "-format series writes one -study's series: pass -study, without -scenarios or -replicates")
			os.Exit(2)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q (want csv, json or series)\n", *format)
		os.Exit(2)
	}

	tuning := godpm.DefaultTuning()
	if *tasks > 0 {
		tuning.NumTasks = *tasks
	}
	if *seed != 0 {
		tuning.Seed = *seed
	}

	var sw *godpm.Sweep
	if *study != "" {
		s, err := godpm.ResolveStudy(*study, tuning.Seed, tuning.NumTasks)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sw = &s
	}
	plan, err := buildPlan(*scenarios, sw, *replicates, tuning)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if plan.Len() == 0 {
		fmt.Fprintln(os.Stderr, "empty grid: pass -scenarios and/or -study (see -h)")
		os.Exit(2)
	}

	// A shared dpmremote store layers behind the local tiers: grids some
	// other process (or a previous invocation on another machine) already
	// ran are fetched instead of simulated, and fresh results replicate
	// to the fleet via write-behind PUTs.
	var remote *godpm.RemoteCacheOptions
	if *remoteURL != "" {
		remote = &godpm.RemoteCacheOptions{BaseURL: *remoteURL}
	}
	cache, err := godpm.NewTieredCache(godpm.NewLRUCache(godpm.LRUOptions{}), *cacheDir, godpm.DiskCacheOptions{}, remote)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := godpm.EngineOptions{Workers: *workers, Cache: cache}
	if *verbose {
		// OnStart/OnResult calls are serialised by the engine, so plain
		// counters are safe; together they stream the live grid progress.
		started, done := 0, 0
		opts.OnStart = func(i int, job godpm.Job) {
			started++
			fmt.Fprintf(os.Stderr, "[%d/%d] %-24s start\n", started, plan.Len(), job.ID)
		}
		opts.OnResult = func(i int, jr godpm.JobResult) {
			status := "ran"
			if jr.CacheHit {
				status = "cached"
			}
			if jr.Err != nil {
				status = "error: " + jr.Err.Error()
			}
			done++
			fmt.Fprintf(os.Stderr, "[%d/%d] %-24s %s\n", done, plan.Len(), jr.Job.ID, status)
		}
	}
	eng := godpm.NewEngine(opts)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var runErr error
	if *format == "series" {
		var pts []godpm.SweepPoint
		if pts, runErr = sw.RunWith(ctx, eng); runErr == nil {
			if err := sweep.WriteCSV(os.Stdout, sw.Param, pts, sw.BuildBaseline != nil); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	} else {
		var results []godpm.JobResult
		results, runErr = eng.Run(ctx, plan)
		if err := writeResults(os.Stdout, *format, results, eng.Stats()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// Flush the write-behind queue so this grid's fresh results reach the
	// shared store before the process exits.
	cache.Close()
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "%d jobs on %d workers: %d simulated, %d cache hits (%d deduped), %d errors, %d canceled\n",
		plan.Len(), eng.Workers(), st.Runs, st.Hits, st.Deduped, st.Errors, st.Canceled)
	if len(st.Tiers) > 0 {
		parts := make([]string, len(st.Tiers))
		for i, tier := range st.Tiers {
			parts[i] = fmt.Sprintf("%s %d/%d", tier.Tier, tier.Hits, tier.Hits+tier.Misses)
		}
		fmt.Fprintf(os.Stderr, "cache tiers [hits/lookups]: %s\n", strings.Join(parts, ", "))
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}
}

// buildPlan assembles the grid: scenarios × seed replicates, plus an
// optional parameter study.
func buildPlan(scenarioSpec string, study *godpm.Sweep, replicates int, tuning godpm.Tuning) (godpm.Plan, error) {
	var plan godpm.Plan
	if replicates < 1 {
		replicates = 1
	}

	if scenarioSpec != "" {
		scenarios, err := expandScenarios(scenarioSpec, tuning)
		if err != nil {
			return plan, err
		}
		seeds := make([]int64, replicates)
		for r := range seeds {
			seeds[r] = tuning.Seed + int64(r)
		}
		plan = godpm.ReplicatedScenarioPlan(scenarios, seeds, func(s godpm.Scenario, seed int64) godpm.Scenario {
			if seed == tuning.Seed {
				return s
			}
			t := tuning
			t.Seed = seed
			r, _ := godpm.ResolveScenario(s.ID, t) // s.ID is canonical, so it resolves
			return r
		})
	}

	if study != nil {
		plan.Jobs = append(plan.Jobs, study.Plan().Jobs...)
	}
	return plan, nil
}

// expandScenarios resolves the -scenarios spec: a comma list of scenario
// names, "all" (the paper's six) and "ext" (the extensions).
func expandScenarios(spec string, t godpm.Tuning) ([]godpm.Scenario, error) {
	var scenarios []godpm.Scenario
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		switch {
		case part == "":
		case strings.EqualFold(part, "all"):
			scenarios = append(scenarios, godpm.Scenarios(t)...)
		case strings.EqualFold(part, "ext"):
			scenarios = append(scenarios, godpm.Extensions(t)...)
		default:
			s, err := godpm.ResolveScenario(part, t)
			if err != nil {
				return nil, err
			}
			scenarios = append(scenarios, s)
		}
	}
	return scenarios, nil
}

// record is the flat per-job output row.
type record struct {
	ID          string  `json:"id"`
	Key         string  `json:"key"`
	CacheHit    bool    `json:"cache_hit"`
	Error       string  `json:"error,omitempty"`
	EnergyJ     float64 `json:"energy_j"`
	DurationS   float64 `json:"duration_s"`
	AvgTempC    float64 `json:"avg_temp_c"`
	PeakTempC   float64 `json:"peak_temp_c"`
	TasksDone   int     `json:"tasks_done"`
	Completed   bool    `json:"completed"`
	FinalSoC    float64 `json:"final_soc"`
	KCyclesPerS float64 `json:"kcycles_per_s"`
}

func toRecord(jr godpm.JobResult) record {
	rec := record{ID: jr.Job.ID, Key: jr.Key, CacheHit: jr.CacheHit}
	if jr.Err != nil {
		rec.Error = jr.Err.Error()
		return rec
	}
	r := jr.Result
	rec.EnergyJ = r.EnergyJ
	rec.DurationS = r.Duration.Seconds()
	rec.AvgTempC = r.AvgTempC
	rec.PeakTempC = r.PeakTempC
	rec.TasksDone = r.TasksDone
	rec.Completed = r.Completed
	rec.FinalSoC = r.FinalSoC
	rec.KCyclesPerS = r.KCyclesPerSec()
	return rec
}

func writeResults(w *os.File, format string, results []godpm.JobResult, st godpm.EngineStats) error {
	switch format {
	case "json":
		recs := make([]record, len(results))
		for i, jr := range results {
			recs[i] = toRecord(jr)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Jobs  []record          `json:"jobs"`
			Stats godpm.EngineStats `json:"stats"`
		}{recs, st})
	case "csv":
		if _, err := fmt.Fprintln(w, "id,key,cache_hit,error,energy_j,duration_s,avg_temp_c,peak_temp_c,tasks_done,completed,final_soc,kcycles_per_s"); err != nil {
			return err
		}
		for _, jr := range results {
			rec := toRecord(jr)
			if _, err := fmt.Fprintf(w, "%s,%s,%v,%s,%.6g,%.6g,%.4g,%.4g,%d,%v,%.4g,%.4g\n",
				rec.ID, shortKey(rec.Key), rec.CacheHit, csvQuote(rec.Error),
				rec.EnergyJ, rec.DurationS, rec.AvgTempC, rec.PeakTempC,
				rec.TasksDone, rec.Completed, rec.FinalSoC, rec.KCyclesPerS); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown format %q (want csv or json)", format)
	}
}

func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}

func csvQuote(s string) string {
	if s == "" {
		return ""
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
