package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"godpm/internal/engine"
	"godpm/internal/experiments"
)

// The oracle holds, for seed 1, one digest per workload over its sorted
// (descriptor → result digest) pairs of a fixed prefix of the run, plus the
// 18 Table 2 cells of the seed-1 grid. Entries are keyed by descriptor
// (scenario, tasks, seeds, policy), not by engine fingerprint, so a change
// of the fingerprint encoding does not invalidate them; only a change of
// simulated results does.
//
//go:embed testdata/expected.json
var oracleFS embed.FS

type oracleFile struct {
	Seed      int64                     `json:"seed"`
	Table2    map[string][3]float64     `json:"table2"`
	Workloads map[string]oracleWorkload `json:"workloads"`
}

type oracleWorkload struct {
	Entries int    `json:"entries"`
	Digest  string `json:"digest"`
}

func loadOracle() (*oracleFile, error) {
	data, err := oracleFS.ReadFile("testdata/expected.json")
	if err != nil {
		return nil, err
	}
	var o oracleFile
	if err := json.Unmarshal(data, &o); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &o, nil
}

// digestEntries hashes descriptor → digest pairs in descriptor order.
func digestEntries(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		io.WriteString(h, k)
		io.WriteString(h, "=")
		io.WriteString(h, m[k])
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkOracle compares a workload's prefix against the oracle when the
// prefix is defined for this run (seed 1, or a seed-independent prefix).
// A mismatch counts as one failed operation.
func checkOracle(out *outcome, workload string, applies bool, prefix map[string]string) {
	out.prefix = prefix
	if !applies {
		return
	}
	o, err := loadOracle()
	if err != nil {
		out.fail(err)
		return
	}
	want, ok := o.Workloads[workload]
	if !ok {
		out.fail(fmt.Errorf("oracle: no entry for %s", workload))
		return
	}
	if got := digestEntries(prefix); len(prefix) != want.Entries || got != want.Digest {
		out.fail(fmt.Errorf("oracle: %s: %d entries digest %.12s, want %d entries digest %.12s",
			workload, len(prefix), got, want.Entries, want.Digest))
	}
}

// table2Cells runs the seed-1 Table 2 grid (default tuning) on a fresh
// engine and returns its 18 cells: energy saving, temperature reduction
// and delay overhead per scenario.
func table2Cells(ctx context.Context) (map[string][3]float64, error) {
	eng := engine.New(engine.Options{Workers: workers})
	rows, err := experiments.RunScenarios(ctx, eng, experiments.All(experiments.DefaultTuning()))
	if err != nil {
		return nil, err
	}
	cells := make(map[string][3]float64, len(rows))
	for _, r := range rows {
		cells[r.ID] = [3]float64{r.EnergySavingPct, r.TempReductionPct, r.DelayOverheadPct}
	}
	return cells, nil
}

// checkTable2 compares the seed-1 Table 2 cells with the oracle exactly
// and reports the mean absolute error against the paper's Table 2 in
// percentage points.
func checkTable2(ctx context.Context, out *outcome) {
	cells, err := table2Cells(ctx)
	if err != nil {
		out.fail(fmt.Errorf("table 2: %w", err))
		return
	}
	var sum float64
	n := 0
	for id, paper := range experiments.PaperTable2 {
		c := cells[id]
		for k, p := range [3]float64{paper.EnergySavingPct, paper.TempReductionPct, paper.DelayOverheadPct} {
			sum += math.Abs(c[k] - p)
			n++
		}
	}
	out.metrics["table2_err_pp"] = sum / float64(n)
	o, err := loadOracle()
	if err != nil {
		out.fail(err)
		return
	}
	for id, want := range o.Table2 {
		if got, ok := cells[id]; !ok || got != want {
			out.fail(fmt.Errorf("table 2: %s cells %v, oracle %v", id, got, want))
		}
	}
	if len(cells) != len(o.Table2) {
		out.fail(fmt.Errorf("table 2: %d rows, oracle %d", len(cells), len(o.Table2)))
	}
}

// digestBook records descriptor → digest pairs and reports a descriptor
// that served two different digests.
type digestBook struct {
	mu sync.Mutex
	m  map[string]string
}

func newDigestBook() *digestBook { return &digestBook{m: make(map[string]string)} }

// add records one served digest; it returns an error when the descriptor
// already served a different one.
func (b *digestBook) add(desc, digest string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.m[desc]; ok && prev != digest {
		return fmt.Errorf("%s served digest %.12s, earlier %.12s", desc, digest, prev)
	}
	b.m[desc] = digest
	return nil
}

func (b *digestBook) get(desc string) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.m[desc]
	return d, ok
}

// subset returns the recorded pairs of the given descriptors.
func (b *digestBook) subset(descs []string) map[string]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]string, len(descs))
	for _, d := range descs {
		if v, ok := b.m[d]; ok {
			out[d] = v
		}
	}
	return out
}

// updateOracle reruns every workload on seed 1 and writes the oracle file
// from what the program served.
func updateOracle(ctx context.Context, path, bin string, log io.Writer) error {
	cells, err := table2Cells(ctx)
	if err != nil {
		return err
	}
	o := oracleFile{Seed: 1, Table2: cells, Workloads: make(map[string]oracleWorkload)}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		out, err := workloads[name](ctx, options{workload: name, seed: 1, dur: 3 * time.Second, bin: bin, log: log, setups: 1})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		o.Workloads[name] = oracleWorkload{Entries: len(out.prefix), Digest: digestEntries(out.prefix)}
		fmt.Fprintf(log, "oracle: %s: %d entries\n", name, len(out.prefix))
	}
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
