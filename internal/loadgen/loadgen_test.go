package loadgen

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"godpm/internal/engine"
	"godpm/internal/journal"
)

// fakeServer answers /v1/simulate with key "k<seed>" and digest
// "d<seed>", and /statsz with fixed counters. The first throttle
// requests are refused with 429; seed failSeed answers 500; every
// response after the first for seed poisonSeed carries another digest.
type fakeServer struct {
	throttle   int
	failSeed   int64
	poisonSeed int64

	mu     sync.Mutex
	posts  int
	served map[int64]int
	bodies []Request
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/statsz":
		json.NewEncoder(w).Encode(map[string]any{
			"version": 2, "service": "dpmserve",
			"runs": 3, "hits": 5, "deduped": 1, "cache_entries": 3, "cache_bytes": 900,
			"tiers": []engine.TierStats{{Tier: engine.TierMemory, Hits: 4, Misses: 4}, {Tier: engine.TierRemote, Hits: 2, Misses: 2}},
		})
		return
	case "/v1/simulate":
	default:
		http.NotFound(w, r)
		return
	}
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f.mu.Lock()
	f.posts++
	throttled := f.posts <= f.throttle
	if !throttled {
		f.bodies = append(f.bodies, req)
	}
	n := f.served[req.Seed]
	if !throttled && req.Seed != f.failSeed {
		f.served[req.Seed]++
	}
	f.mu.Unlock()
	switch {
	case throttled:
		w.Header().Set("Retry-After", "1")
		http.Error(w, "saturated", http.StatusTooManyRequests)
		return
	case req.Seed == f.failSeed:
		http.Error(w, "boom", http.StatusInternalServerError)
		return
	}
	digest := fmt.Sprintf("d%d", req.Seed)
	if req.Seed == f.poisonSeed && n > 0 {
		digest = "corrupt"
	}
	fmt.Fprintf(w, `{"id":"x","cache_hit":%t,"key":"k%d","digest":%q}`+"\n", n > 0, req.Seed, digest)
}

func newFake(t *testing.T, f *fakeServer) string {
	t.Helper()
	f.served = make(map[int64]int)
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestMixRetriesThrottledRequests(t *testing.T) {
	f := &fakeServer{throttle: 3}
	url := newFake(t, f)
	rep, err := Run([]string{url}, 2, Mix(12, 4, 10))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 12 || rep.OK != 12 || rep.Failed != 0 || rep.Poisoned != 0 {
		t.Fatalf("report %+v: want 12 ok, none failed or poisoned", rep)
	}
	if rep.TooMany != 3 {
		t.Fatalf("%d 429s retried, want 3", rep.TooMany)
	}
	if rep.Hits != 8 || rep.DedupRatio != 8.0/12 {
		t.Fatalf("hits %d ratio %.3f, want 8 and %.3f", rep.Hits, rep.DedupRatio, 8.0/12)
	}
	if rep.Latency.Count != 12 {
		t.Fatalf("latency count %d, want one per successful request", rep.Latency.Count)
	}
	seeds := map[int64]int{}
	for _, b := range f.bodies {
		if b.Scenario != "A1" || b.Tasks != 10 {
			t.Fatalf("request %+v, want scenario A1 with 10 tasks", b)
		}
		seeds[b.Seed]++
	}
	if len(seeds) != 4 || seeds[1] != 3 || seeds[4] != 3 {
		t.Fatalf("seed mix %v, want seeds 1..4 three times each", seeds)
	}
}

func TestFailedAndPoisonedResponsesAreCounted(t *testing.T) {
	url := newFake(t, &fakeServer{failSeed: 2, poisonSeed: 3})
	rep, err := Run([]string{url}, 1, Mix(9, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 3 || rep.OK != 6 {
		t.Fatalf("failed %d ok %d, want the three seed-2 requests failed and 6 ok", rep.Failed, rep.OK)
	}
	if rep.Poisoned != 2 {
		t.Fatalf("poisoned %d, want the two seed-3 repeats whose digest changed", rep.Poisoned)
	}
}

func TestRunCollectsEveryReplica(t *testing.T) {
	a, b := newFake(t, &fakeServer{}), newFake(t, &fakeServer{})
	rep, err := Run([]string{a, b}, 3, Mix(10, 5, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Replicas) != 2 || rep.Stats.Runs != 3 || rep.Stats.CacheEntries != 3 {
		t.Fatalf("replicas %+v, want two snapshots of the fake's counters", rep.Replicas)
	}
	if rep.FleetRuns != 6 || rep.RemoteHits != 4 {
		t.Fatalf("fleet runs %d remote hits %d, want 6 and 4", rep.FleetRuns, rep.RemoteHits)
	}
	for _, line := range []string{
		"loadgen: 10 requests → 10 ok, 0 retried (429), 0 failed\n",
		"served without simulation: 0/10 (ratio 0.000)\n",
		"replica 0: runs=3 hits=5 deduped=1 evictions=0 cache_entries=3 cache_bytes=900 tiers[hits/lookups]: memory 4/8, remote 2/4\n",
		"replica 1: runs=3 hits=5",
		"fleet: 6 simulations across 2 replicas, 4 remote hits\n",
	} {
		if !strings.Contains(rep.String(), line) {
			t.Errorf("report lacks %q:\n%s", line, rep)
		}
	}
	if strings.Contains(rep.String(), "replay:") {
		t.Errorf("a synthetic run printed a replay line:\n%s", rep)
	}
}

func TestRunRefusesNoTargetsAndDeadStatsz(t *testing.T) {
	if _, err := Run(nil, 1, Mix(1, 1, 1)); err == nil {
		t.Fatal("a run without targets was accepted")
	}
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	rep, err := Run([]string{url}, 1, Mix(2, 1, 1))
	if err == nil || !strings.Contains(err.Error(), "statsz") {
		t.Fatalf("dead target: err %v, want a statsz error", err)
	}
	if rep.Failed != 2 {
		t.Fatalf("dead target: %d failed, want 2", rep.Failed)
	}
}

// TestReplayRejectsNonPositiveSpeedup: a zero or negative speedup would
// turn the schedule into NaN or negative due times, so it is refused
// before the journal is read, and the error names the flag.
func TestReplayRejectsNonPositiveSpeedup(t *testing.T) {
	for _, bad := range []float64{0, -1, -0.5} {
		_, err := Replay("nope.ndjson", bad)
		if err == nil {
			t.Fatalf("speedup %g accepted", bad)
		}
		if !strings.Contains(err.Error(), "speedup") {
			t.Fatalf("speedup %g error %q does not name the flag", bad, err)
		}
	}
}

// writeJournal writes recs to a fresh journal file and returns its path.
func writeJournal(t *testing.T, recs ...journal.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "req.journal")
	w, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReplayKeepsOrderSpacingAndFingerprints(t *testing.T) {
	path := writeJournal(t,
		journal.Record{T: 5.0, Endpoint: journal.EndpointSimulate, Scenario: "A1", Tasks: 3, Seed: 2, Fingerprint: "k2", Outcome: journal.OutcomeRun},
		journal.Record{T: 4.0, Endpoint: journal.EndpointSimulate, Scenario: "A1", Tasks: 3, Seed: 1, Fingerprint: "k1", Outcome: journal.OutcomeRun},
		journal.Record{T: 4.5, Endpoint: journal.EndpointSimulate, ConfigDigest: "k9", Fingerprint: "k9", Outcome: journal.OutcomeRun},
		journal.Record{T: 6.0, Endpoint: journal.EndpointTournament, Outcome: journal.OutcomeRun},
	)
	plan, err := Replay(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Requests) != 2 || plan.Requests[0].Seed != 1 || plan.Requests[1].Seed != 2 {
		t.Fatalf("requests %+v, want seeds 1 then 2 in arrival order", plan.Requests)
	}
	if plan.Requests[0].At != 0 || plan.Requests[1].At != 100*time.Millisecond {
		t.Fatalf("offsets %v and %v, want 0 and the 1 s gap divided by 10", plan.Requests[0].At, plan.Requests[1].At)
	}

	rep, err := Run([]string{newFake(t, &fakeServer{})}, 2, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 2 || rep.SkippedRecords != 2 || rep.JournalDistinct != 3 || rep.ServedDistinct != 2 {
		t.Fatalf("replay report %+v", rep)
	}
	// The inline-config record's fingerprint cannot be re-issued, so the
	// replay cannot serve it.
	if rep.ReplayFingerprintsHit || len(rep.MissingFingerprints) != 1 || rep.MissingFingerprints[0] != "k9" {
		t.Fatalf("fingerprints hit %v missing %v, want k9 missing", rep.ReplayFingerprintsHit, rep.MissingFingerprints)
	}
	if line := "replay: 2 records re-issued (2 skipped), fingerprints served 2/3\n"; !strings.Contains(rep.String(), line) {
		t.Fatalf("report lacks %q:\n%s", line, rep)
	}
}

func TestReplayRefusesAJournalWithNothingToReplay(t *testing.T) {
	path := writeJournal(t, journal.Record{T: 1, Endpoint: journal.EndpointTournament, Outcome: journal.OutcomeRun})
	if _, err := Replay(path, 1); err == nil || !strings.Contains(err.Error(), "no replayable records") {
		t.Fatalf("err %v, want no replayable records", err)
	}
	if _, err := Replay(filepath.Join(t.TempDir(), "missing"), 1); err == nil {
		t.Fatal("a missing journal was accepted")
	}
}
