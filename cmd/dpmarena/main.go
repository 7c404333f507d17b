// Command dpmarena runs policy tournaments: it crosses energy-management
// policies × generated workload scenarios × replicate seeds through the
// concurrent batch engine, aggregates each cell (mean, stddev, 95% CI,
// paired deltas against the baseline policy) and prints a ranked
// leaderboard (energy, deadline misses, average temperature).
//
// Scenarios come from the built-in generator catalog (steady, bursty,
// mmpp, periodic, heavytail), each driven by a splittable workload seed,
// so every run is reproducible bit for bit: the same -seed always yields
// the same leaderboard, and with -cache DIR a rerun is served entirely
// from the result cache.
//
// Usage:
//
//	dpmarena [-policies all|dpm,timeout,...] [-scenarios all|mmpp,...]
//	         [-seeds N] [-seed BASE] [-tasks N] [-deadline DUR]
//	         [-baseline POLICY] [-workers N] [-cache DIR]
//	         [-format table|csv|json] [-cells] [-v]
//
// Examples:
//
//	dpmarena
//	dpmarena -policies dpm,timeout,greedy -scenarios mmpp,heavytail -seeds 10
//	dpmarena -format csv -cells -cache /tmp/dpmcache
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"godpm"
)

func main() {
	var (
		policies  = flag.String("policies", "dpm,alwayson,timeout,greedy", "comma list of policies, or 'all'")
		scenarios = flag.String("scenarios", "all", "comma list of scenarios, or 'all'")
		seeds     = flag.Int("seeds", 5, "replicate seeds per (scenario, policy)")
		seedBase  = flag.Uint64("seed", 1, "base seed; replicate k uses seed+k")
		tasks     = flag.Int("tasks", 60, "tasks per generated workload")
		deadline  = flag.Duration("deadline", 30*time.Millisecond, "per-task service deadline for the miss column (0 disables)")
		baseline  = flag.String("baseline", "alwayson", "policy paired deltas are computed against")
		workers   = flag.Int("workers", 0, "worker pool size (0 = NumCPU)")
		cacheDir  = flag.String("cache", "", "result cache directory ('' = in-memory only)")
		format    = flag.String("format", "table", "output format: table, csv or json")
		cells     = flag.Bool("cells", false, "also print per-(scenario, policy) cells (table/csv formats)")
		verbose   = flag.Bool("v", false, "log every job completion to stderr")
	)
	flag.Parse()

	tour, err := buildTournament(*policies, *scenarios, *seeds, *seedBase, *tasks, *deadline, *baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cache, err := godpm.NewTieredCache(godpm.NewLRUCache(godpm.LRUOptions{}), *cacheDir, godpm.DiskCacheOptions{}, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := godpm.EngineOptions{Workers: *workers, Cache: cache}
	if *verbose {
		plan, err := tour.Plan()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		done := 0
		opts.OnResult = func(i int, jr godpm.JobResult) {
			status := "ran"
			if jr.CacheHit {
				status = "cached"
			}
			if jr.Err != nil {
				status = "error: " + jr.Err.Error()
			}
			done++
			fmt.Fprintf(os.Stderr, "[%d/%d] %-28s %s\n", done, plan.Len(), jr.Job.ID, status)
		}
	}
	eng := godpm.NewEngine(opts)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	res, runErr := godpm.RunTournament(ctx, eng, tour)
	if res == nil {
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, *format, *cells, res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st := eng.Stats()
	fmt.Fprintf(os.Stderr, "%d policies × %d scenarios × %d seeds on %d workers: %d simulated, %d cache hits, %d errors\n",
		len(tour.Policies), len(tour.Scenarios), len(tour.Seeds), eng.Workers(), st.Runs, st.Hits, st.Errors)
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}
}

// buildTournament resolves the flag spec into a Tournament.
func buildTournament(policySpec, scenarioSpec string, seeds int, seedBase uint64,
	tasks int, deadline time.Duration, baseline string) (godpm.Tournament, error) {
	var t godpm.Tournament
	if seeds < 1 {
		return t, fmt.Errorf("need at least one seed")
	}
	if tasks < 1 {
		return t, fmt.Errorf("need at least one task")
	}

	var err error
	if t.Policies, t.Scenarios, err = godpm.TournamentEntrants(entrantNames(policySpec), entrantNames(scenarioSpec), tasks); err != nil {
		return t, err
	}

	for k := 0; k < seeds; k++ {
		t.Seeds = append(t.Seeds, godpm.NewSeed(seedBase+uint64(k)))
	}
	t.Deadline = godpm.Time(deadline.Nanoseconds()) * godpm.Ns
	t.Baseline = ""
	if baseline = strings.TrimSpace(strings.ToLower(baseline)); baseline != "" {
		for _, p := range t.Policies {
			if p.Name == baseline {
				t.Baseline = baseline
			}
		}
		if t.Baseline == "" {
			return t, fmt.Errorf("baseline %q is not among the selected policies", baseline)
		}
	}
	return t, t.Validate()
}

// entrantNames splits a comma list, dropping empty entries; "all" selects the
// whole catalogue, which the entrant lookup spells as an empty list.
func entrantNames(spec string) []string {
	if strings.EqualFold(strings.TrimSpace(spec), "all") {
		return nil
	}
	var out []string
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func writeResult(w *os.File, format string, cells bool, res *godpm.TournamentResult) error {
	switch format {
	case "table":
		if _, err := fmt.Fprint(w, res.FormatLeaderboard()); err != nil {
			return err
		}
		if cells {
			fmt.Fprintln(w)
			return res.WriteCellsCSV(w)
		}
		return nil
	case "csv":
		if err := res.WriteLeaderboardCSV(w); err != nil {
			return err
		}
		if cells {
			fmt.Fprintln(w)
			return res.WriteCellsCSV(w)
		}
		return nil
	case "json":
		return res.WriteJSON(w)
	default:
		return fmt.Errorf("unknown format %q (want table, csv or json)", format)
	}
}
