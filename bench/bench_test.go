package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildServers builds dpmserve and dpmremote from the enclosing module
// into a temporary directory.
func buildServers(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/dpmserve", "./cmd/dpmremote")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building servers: %v\n%s", err, out)
	}
	return dir
}

// survivors lists live processes whose command line mentions dir.
func survivors(t *testing.T, dir string) []string {
	t.Helper()
	procs, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	var alive []string
	for _, p := range procs {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // exited while scanning
		}
		if cmd := strings.ReplaceAll(string(b), "\x00", " "); strings.Contains(cmd, dir) {
			alive = append(alive, cmd)
		}
	}
	return alive
}

// TestSmoke runs every workload, untraced and traced, for half a second with
// one set-up through the same code path as a real run, and checks the report:
// every metric of the mode present with its unit and finite, no failed
// operation (oracle mismatches count as failures), no server left running.
func TestSmoke(t *testing.T) {
	bin := buildServers(t)
	for _, name := range []string{"paper_grid_cold", "arena_sweep_cold", "serve_hot", "serve_churn"} {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 1, dur: 500 * time.Millisecond, trace: traced, bin: bin, out: t.TempDir(), log: io.Discard, setups: 1}
			rep, problems, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a finite value in %s", name, traced, d.Name, m, d.Unit)
				}
			}
			if rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", name, traced, rep.Failed, rep.Attempted, problems)
			}
			if alive := survivors(t, bin); len(alive) > 0 {
				t.Fatalf("%s trace=%v: servers still running: %v", name, traced, alive)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(o.out, name+"-1.spans.json")); err != nil {
					t.Errorf("%s: spans file: %v", name, err)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with the
// metrics the program prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
		Workload []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workload {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the program", w.Name)
		}
	}
	if len(spec.Workload) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workload), len(workloads))
	}
}
