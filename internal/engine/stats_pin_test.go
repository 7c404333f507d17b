package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"godpm/internal/engine"
)

var updateStatsPin = flag.Bool("update-stats-pin", false, "rewrite testdata/stats_pin.json from this run")

// statsPinGolden is the stats surface every shipped store composition
// reports for one fixed script. /statsz, dpmtop and the benchmark's
// server trace read these fields.
const statsPinGolden = "testdata/stats_pin.json"

// pinStack is one store composition under the stats pin: the engine it
// serves, a plan warm-up, and the close that flushes its write-behind.
type pinStack struct {
	eng   *engine.Engine
	warm  func(ctx context.Context, keys []string) int
	close func()
}

// buildPinStack builds the composition kind ("memory", "disk",
// "memory+remote" or "disk+remote") over dir, talking to the store at
// remote when kind has a remote tier. With buildPinServer it is the only
// part of TestStatsSurfacePinned that a store refactor may rewrite.
func buildPinStack(t *testing.T, kind, dir, remote string) pinStack {
	t.Helper()
	mem := engine.LRUOptions{}
	if kind == "memory" {
		mem = engine.LRUOptions{MaxEntries: 4, Shards: 1}
	}
	var dirArg string
	if strings.HasPrefix(kind, "disk") {
		dirArg = dir
	}
	var ropts *engine.RemoteOptions
	if strings.HasSuffix(kind, "+remote") {
		ropts = &engine.RemoteOptions{BaseURL: remote}
	}
	store, err := engine.NewStore(engine.NewLRU(mem), dirArg, engine.DiskOptions{}, ropts)
	if err != nil {
		t.Fatal(err)
	}
	return pinStack{
		eng:   engine.New(engine.Options{Workers: 1, Cache: store}),
		warm:  store.Warm,
		close: func() { _ = store.Close() },
	}
}

// buildPinServer serves dpmremote's store (sync disk files behind a
// default memory tier) over dir and returns its URL and its stats.
func buildPinServer(t *testing.T, dir string) (string, func() engine.BlobServerStats) {
	t.Helper()
	store, err := engine.NewStore(engine.NewLRU(engine.LRUOptions{}), dir, engine.DiskOptions{Sync: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := engine.NewBlobServer(store, engine.BlobServerOptions{})
	ts := httptest.NewServer(blob)
	t.Cleanup(ts.Close)
	return ts.URL, blob.Stats
}

// TestStatsSurfacePinned runs one script of plans and warm-ups through
// each shipped store composition and compares the stats every surface
// reads — Engine.Stats' evictions, cache_entries, cache_bytes and tiers,
// and the blob server's BlobServerStats — with a golden captured before
// the store was refactored. The script and the golden are fixed; only
// the builders above may change with the store's API.
func TestStatsSurfacePinned(t *testing.T) {
	ctx := context.Background()
	plan := testPlan(12)
	plan.Add("dup", plan.Jobs[0].Config)
	var keys []string
	for _, j := range plan.Jobs[:len(plan.Jobs)-1] {
		k, err := engine.Fingerprint(j.Config)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	run := func(s pinStack) {
		t.Helper()
		if _, err := s.eng.Run(ctx, plan); err != nil {
			t.Fatal(err)
		}
	}
	type entry struct {
		Step  string          `json:"step"`
		Stats json.RawMessage `json:"stats"`
	}
	var got []entry
	engineStats := func(step string, st engine.Stats) {
		t.Helper()
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var all map[string]json.RawMessage
		if err := json.Unmarshal(raw, &all); err != nil {
			t.Fatal(err)
		}
		pick := map[string]json.RawMessage{}
		for _, k := range []string{"evictions", "cache_entries", "cache_bytes", "tiers"} {
			if v, ok := all[k]; ok {
				pick[k] = v
			}
		}
		out, err := json.Marshal(pick)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, entry{step, out})
	}
	for _, kind := range []string{"memory", "disk", "memory+remote", "disk+remote"} {
		var url string
		var server func() engine.BlobServerStats
		if strings.HasSuffix(kind, "+remote") {
			url, server = buildPinServer(t, t.TempDir())
		}
		dir := t.TempDir()
		a := buildPinStack(t, kind, dir, url)
		run(a)
		run(a)
		a.close()
		engineStats(kind+"/first", a.eng.Stats())
		b := buildPinStack(t, kind, dir, url)
		warmed, err := json.Marshal(b.warm(ctx, keys))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, entry{kind + "/warmed", warmed})
		run(b)
		b.close()
		engineStats(kind+"/second", b.eng.Stats())
		if server != nil {
			raw, err := json.Marshal(server())
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, entry{kind + "/server", raw})
		}
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	path := filepath.FromSlash(statsPinGolden)
	if *updateStatsPin {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("stats surface moved from %s:\n got: %s\nwant: %s", statsPinGolden, out, want)
	}
}
