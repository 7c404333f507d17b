// Command dpmload drives a running dpmserve fleet with simulate traffic
// and reports what it saw: requests served, 429s retried, the share
// served without simulation, client latency and each replica's /statsz
// counters.
//
// By default it sends a synthetic stream with many duplicates, request i
// asking for scenario A1 with seed 1+i%distinct, round-robin across the
// targets:
//
//	dpmload -targets http://127.0.0.1:8080 -requests 200 -distinct 8 -concurrency 16
//
// With -replay it re-issues a request journal written by dpmserve
// -journal: the same scenario/tasks/seed mix, in arrival order and with
// the journal's arrival spacing divided by -speedup.
//
//	dpmload -targets http://127.0.0.1:8080 -replay requests.journal -speedup 10
//
// It exits 1 when any request failed or any response was poisoned (a
// digest that contradicts an earlier one for the same key), and 2 on a
// bad flag.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"godpm/internal/loadgen"
)

func main() {
	var (
		targetsFlag = flag.String("targets", "http://127.0.0.1:8080", "comma-separated dpmserve base URLs; request i goes to target i mod n")
		requests    = flag.Int("requests", 200, "synthetic stream: total simulate requests")
		distinct    = flag.Int("distinct", 8, "synthetic stream: distinct configurations")
		concurrency = flag.Int("concurrency", 16, "concurrent clients")
		tasks       = flag.Int("tasks", 20, "synthetic stream: tasks per request's scenario")
		replayPath  = flag.String("replay", "", "replay this request journal instead of the synthetic stream")
		speedup     = flag.Float64("speedup", 1, "replay: divide the journal's arrival spacing by this factor")
	)
	flag.Parse()
	if *speedup <= 0 {
		fmt.Fprintf(os.Stderr, "dpmload: -speedup must be > 0 (got %g)\n", *speedup)
		os.Exit(2)
	}
	var targets []string
	for _, t := range strings.Split(*targetsFlag, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targets = append(targets, strings.TrimRight(t, "/"))
		}
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "dpmload: no targets")
		os.Exit(2)
	}

	var plan loadgen.Plan
	if *replayPath == "" {
		plan = loadgen.Mix(*requests, *distinct, *tasks)
	} else {
		var err error
		if plan, err = loadgen.Replay(*replayPath, *speedup); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	rep, err := loadgen.Run(targets, *concurrency, plan)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(rep.String())
	fail := false
	if rep.Failed > 0 {
		fmt.Fprintf(os.Stderr, "dpmload: %d requests failed\n", rep.Failed)
		fail = true
	}
	if rep.Poisoned > 0 {
		fmt.Fprintf(os.Stderr, "dpmload: %d poisoned responses (digest mismatch for an already-seen key)\n", rep.Poisoned)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
}
