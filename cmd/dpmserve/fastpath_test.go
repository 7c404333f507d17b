package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// simulateOnce POSTs one simulate request straight at the handler and
// returns the recorder.
func simulateOnce(t testing.TB, s *server, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.handleSimulate(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("simulate: %d %s", w.Code, w.Body.String())
	}
	return w
}

// TestSimulateHitServesPreEncodedBytes pins the hit fast path's output
// contract: the hit response is byte-identical to the miss response
// except for the cache_hit flag — the same pre-encoded fragment serves
// both — decodes to the same result fields, and carries an explicit
// Content-Length.
func TestSimulateHitServesPreEncodedBytes(t *testing.T) {
	s, err := newServer(serverOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	body, _ := json.Marshal(simulateRequest{Scenario: "A1", Tasks: 20, Seed: 7})

	miss := simulateOnce(t, s, body)
	hit := simulateOnce(t, s, body)

	var mr, hr simulateResponse
	if err := json.Unmarshal(miss.Body.Bytes(), &mr); err != nil {
		t.Fatalf("miss response: %v", err)
	}
	if err := json.Unmarshal(hit.Body.Bytes(), &hr); err != nil {
		t.Fatalf("hit response: %v", err)
	}
	if mr.CacheHit || !hr.CacheHit {
		t.Fatalf("cache_hit flags: miss=%v hit=%v", mr.CacheHit, hr.CacheHit)
	}
	if hr.Key != mr.Key || hr.EnergyJ != mr.EnergyJ || hr.Digest != mr.Digest ||
		hr.TasksDone != mr.TasksDone || hr.PeakTempC != mr.PeakTempC {
		t.Fatalf("hit response diverged from miss:\n%s\nvs\n%s", miss.Body, hit.Body)
	}

	// Same bytes modulo the per-request prefix (id + flag): both
	// responses came from one pre-encoded fragment.
	tailOf := func(body string) string {
		i := strings.Index(body, `"key":`)
		if i < 0 {
			t.Fatalf("response without key field: %s", body)
		}
		return body[i:]
	}
	if tailOf(miss.Body.String()) != tailOf(hit.Body.String()) {
		t.Fatalf("hit tail is not the pre-encoded miss tail:\n%s\nvs\n%s", miss.Body, hit.Body)
	}

	if cl := hit.Header().Get("Content-Length"); cl != strconv.Itoa(hit.Body.Len()) {
		t.Fatalf("Content-Length %q, body %d bytes", cl, hit.Body.Len())
	}
	if ct := hit.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	if !bytes.HasSuffix(hit.Body.Bytes(), []byte("}\n")) {
		t.Fatalf("response not newline-terminated: %q", hit.Body.String())
	}
}

// TestAppendJSONString pins the fast path's ID escaper against the
// reference encoder for metacharacters and control bytes.
func TestAppendJSONString(t *testing.T) {
	for _, id := range []string{"A1#3", `a"b\c`, "tab\tnl\n", "plain", ""} {
		want, _ := json.Marshal(id)
		var got string
		if err := json.Unmarshal(appendJSONString(nil, id), &got); err != nil || got != id {
			t.Fatalf("appendJSONString(%q) = %q (decode err %v), reference %s", id, got, err, want)
		}
	}
}

// TestSimulateHitPathAllocations pins the hit path's cost as an
// allocation budget. A cache-hit serve measured ~640 allocs/op when every
// hit re-marshalled the result, ~370 on the pre-encoded fragment path and
// 53 once keying used the canonical encoder. The resolution memo lets a
// repeat named request skip workload generation and fingerprinting, which
// leaves 33 allocs/op (34 under the race detector): the request, its JSON
// decode, the id and the response. The budget is the race-mode figure plus
// 10%, so re-deriving the key on a hit (~20 allocs) or a per-hit result
// marshal (~270) fails it.
func TestSimulateHitPathAllocations(t *testing.T) {
	s, err := newServer(serverOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	body, _ := json.Marshal(simulateRequest{Scenario: "A1", Tasks: 20, Seed: 7})
	simulateOnce(t, s, body) // warm: the one miss
	simulateOnce(t, s, body) // builds + caches the fragment

	allocs := testing.AllocsPerRun(200, func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.handleSimulate(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("hit failed: %d", w.Code)
		}
	})
	if allocs > 37 {
		t.Fatalf("hit path costs %.0f allocs/op, want ≤ 37 (no resolution, keying or result re-marshal)", allocs)
	}
}

// TestReplayRejectsNonPositiveSpeedup pins the loadgen flag fix: a zero
// or negative -speedup used to be silently coerced and replay at the
// wrong rate; it must be refused with a clear error instead.
func TestReplayRejectsNonPositiveSpeedup(t *testing.T) {
	for _, bad := range []float64{0, -1, -0.5} {
		_, err := runReplay(replayOptions{Path: "nope.ndjson", Targets: []string{"http://127.0.0.1:1"}, Speedup: bad})
		if err == nil {
			t.Fatalf("speedup %g accepted", bad)
		}
		if !strings.Contains(err.Error(), "speedup") {
			t.Fatalf("speedup %g error %q does not name the flag", bad, err)
		}
	}
}

// TestTournamentAbortedStreamCounted pins the done-trailer fix's
// counters: a client that disconnects mid-tournament cancels the run and
// shows up in /statsz as an aborted stream, not a silent drop.
func TestTournamentAbortedStreamCounted(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{MaxInflight: 4, Workers: 2})

	// A tournament big enough to still be running when we hang up.
	body := `{"tasks":200,"seeds":[1,2,3,4,5,6],"policies":["dpm","alwayson","oracle"]}`
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/tournament", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Headers are flushed before the run starts, so once Do returns the
	// tournament is in flight. Hanging up now exercises the abort path.
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for s.tourAborts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("aborted stream never counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := getStatsz(t, ts.URL); st.TournamentAborts < 1 {
		t.Fatalf("statsz tournament_aborted_streams = %d, want ≥ 1", st.TournamentAborts)
	}

	// A completed stream is not miscounted as aborted.
	before := s.tourAborts.Load()
	resp2, data := postJSON(t, ts.URL+"/v1/tournament",
		`{"tasks":10,"seeds":[1],"policies":["dpm","alwayson"],"scenarios":["steady"]}`)
	if resp2.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"done":true`)) {
		t.Fatalf("clean tournament failed: %d %s", resp2.StatusCode, data)
	}
	if got := s.tourAborts.Load(); got != before {
		t.Fatalf("clean stream counted as aborted: %d → %d", before, got)
	}
}

// BenchmarkHitServe measures a cache-hit /v1/simulate serve end to end at
// the handler: request decode, engine probe, pre-encoded fragment copy.
// The allocs/op number is gated in CI against the committed baseline
// (see the README's Performance section).
func BenchmarkHitServe(b *testing.B) {
	s, err := newServer(serverOptions{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.close()
	body, _ := json.Marshal(simulateRequest{Scenario: "A1", Tasks: 20, Seed: 7})
	simulateOnce(b, s, body) // warm: one miss populates the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.handleSimulate(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("hit request failed: %d", w.Code)
		}
	}
}
