package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"godpm"
)

// simulateReq is simulateOnce for a request value; it returns the body.
func simulateReq(t testing.TB, s *server, req simulateRequest) string {
	t.Helper()
	body, _ := json.Marshal(req)
	return simulateOnce(t, s, body).Body.String()
}

// newJournaledServer builds a server that journals to a temp file; read
// the journal after calling s.close().
func newJournaledServer(t *testing.T, o serverOptions) (*server, string) {
	t.Helper()
	o.JournalPath = filepath.Join(t.TempDir(), "req.journal")
	s, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s, o.JournalPath
}

func readJournal(t *testing.T, path string) []godpm.JournalRecord {
	t.Helper()
	recs, skipped, err := godpm.ReadJournal(path)
	if err != nil || skipped != 0 {
		t.Fatalf("journal: %d skipped, err %v", skipped, err)
	}
	return recs
}

// splitID splits a response body into its id's scenario part and the
// bytes after the id's sequence number.
func splitID(t *testing.T, body string) (id, rest string) {
	t.Helper()
	const open = `{"id":"`
	hash := strings.IndexByte(body, '#')
	if !strings.HasPrefix(body, open) || hash < 0 {
		t.Fatalf("response without an <id>#<seq> id: %s", body)
	}
	end := hash + 1
	for end < len(body) && body[end] >= '0' && body[end] <= '9' {
		end++
	}
	return body[len(open):hash], body[end:]
}

// TestMemoMatchesFullPath is the memo's differential test: for every
// paper and extension scenario, spelled canonically and in lower case,
// over tasks {0, 20, 120} and seeds {0, 1, 7}, a hit served from the memo
// answers the same bytes (bar the id's sequence number), key and digest as
// a hit served by resolving and fingerprinting, journals the same
// scenario, fingerprint, outcome and status, and moves the engine's hit
// and miss counters the same way.
func TestMemoMatchesFullPath(t *testing.T) {
	s, path := newJournaledServer(t, serverOptions{Workers: 2})

	tn := godpm.DefaultTuning()
	tn.NumTasks = 1
	var ids []string
	for _, sc := range godpm.Scenarios(tn) {
		ids = append(ids, sc.ID)
	}
	ids = append(ids, godpm.ExtensionIDs()...)
	var reqs []simulateRequest
	for _, id := range ids {
		for _, name := range []string{id, strings.ToLower(id)} {
			for _, tasks := range []int{0, 20, 120} {
				for _, seed := range []int64{0, 1, 7} {
					reqs = append(reqs, simulateRequest{Scenario: name, Tasks: tasks, Seed: seed})
				}
			}
		}
	}

	type served struct {
		body       string
		hits, miss int64
	}
	serve := func(req simulateRequest) served {
		t.Helper()
		before := s.eng.Stats()
		body := simulateReq(t, s, req)
		after := s.eng.Stats()
		return served{body: body, hits: after.Hits - before.Hits, miss: after.Misses - before.Misses}
	}

	// The full path: an empty memo sends every request through
	// resolveConfig and Engine.Run. The first request warms the cache, the
	// second is the full-path hit.
	full := make([]served, len(reqs))
	for i, req := range reqs {
		s.memo = newResolveMemo(resolveMemoCap)
		serve(req)
		s.memo = newResolveMemo(resolveMemoCap)
		full[i] = serve(req)
	}
	// The memo path: the memo keeps every resolution from here on, so a
	// memo keyed on too little serves some request another's result.
	memoed := make([]served, len(reqs))
	for i, req := range reqs {
		first := serve(req)
		if _, ok := s.memo.get(namedRequestOf(req)); !ok {
			t.Fatalf("%+v: a served named request left no memo entry", req)
		}
		memoed[i] = serve(req)
		for _, got := range []served{first, memoed[i]} {
			fid, frest := splitID(t, full[i].body)
			mid, mrest := splitID(t, got.body)
			if fid != mid || frest != mrest {
				t.Fatalf("%+v: memo path answered\n%s\nfull path answered\n%s", req, got.body, full[i].body)
			}
		}
		var fr, mr simulateResponse
		if err := json.Unmarshal([]byte(full[i].body), &fr); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(memoed[i].body), &mr); err != nil {
			t.Fatal(err)
		}
		if !fr.CacheHit || mr.Key != fr.Key || mr.Digest != fr.Digest {
			t.Fatalf("%+v: full-path hit %v key %s digest %s, memo hit key %s digest %s",
				req, fr.CacheHit, fr.Key, fr.Digest, mr.Key, mr.Digest)
		}
		if memoed[i].hits != full[i].hits || memoed[i].miss != full[i].miss || full[i].hits != 1 || full[i].miss != 0 {
			t.Fatalf("%+v: counters moved hits/misses +%d/+%d on the memo path, +%d/+%d on the full path",
				req, memoed[i].hits, memoed[i].miss, full[i].hits, full[i].miss)
		}
	}
	distinct := make(map[namedRequest]bool)
	for _, req := range reqs {
		distinct[namedRequestOf(req)] = true
	}
	if got := s.memo.len(); got != len(distinct) {
		t.Fatalf("memo holds %d entries after %d distinct named requests", got, len(distinct))
	}

	// A request whose client has already gone is refused the same way on
	// both paths, though its record is cached: 408, counted as canceled.
	canceled := func(req simulateRequest) (int, int64, int64) {
		t.Helper()
		body, _ := json.Marshal(req)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		hr := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		before := s.eng.Stats()
		s.handleSimulate(w, hr)
		after := s.eng.Stats()
		return w.Code, after.Canceled - before.Canceled, after.Hits - before.Hits
	}
	memo := s.memo
	s.memo = newResolveMemo(resolveMemoCap)
	fCode, fCanceled, fHits := canceled(reqs[0])
	s.memo = memo
	mCode, mCanceled, mHits := canceled(reqs[0])
	if fCode != http.StatusRequestTimeout || fCanceled != 1 || fHits != 0 ||
		mCode != fCode || mCanceled != fCanceled || mHits != fHits {
		t.Fatalf("canceled request: full path %d (+%d canceled, +%d hits), memo path %d (+%d canceled, +%d hits)",
			fCode, fCanceled, fHits, mCode, mCanceled, mHits)
	}

	s.close()
	recs := readJournal(t, path)
	if len(recs) != 4*len(reqs)+2 {
		t.Fatalf("journal has %d records for %d requests", len(recs), 4*len(reqs)+2)
	}
	if f, m := recs[4*len(reqs)], recs[4*len(reqs)+1]; f.Scenario != m.Scenario || f.Fingerprint != m.Fingerprint ||
		f.Outcome != m.Outcome || f.Status != m.Status || m.Outcome != godpm.JournalOutcomeCanceled {
		t.Fatalf("canceled request journaled %+v on the full path, %+v on the memo path", f, m)
	}
	for i, req := range reqs {
		f, m := recs[2*i+1], recs[2*len(reqs)+2*i+1]
		if f.Scenario != m.Scenario || f.Fingerprint != m.Fingerprint || f.Outcome != m.Outcome || f.Status != m.Status {
			t.Fatalf("%+v: journaled %+v on the full path, %+v on the memo path", req, f, m)
		}
		if m.Outcome != godpm.JournalOutcomeHit || m.Tasks != req.Tasks || m.Seed != req.Seed {
			t.Fatalf("%+v: memo hit journaled as %+v", req, m)
		}
	}
}

// TestMemoStaysBounded: distinct requests beyond the memo's cap leave it
// at the cap, and a request seen again after the flood gets back in.
func TestMemoStaysBounded(t *testing.T) {
	s, err := newServer(serverOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	const limit = 4
	s.memo = newResolveMemo(limit)
	hot := simulateRequest{Scenario: "A1", Tasks: 2, Seed: 1}
	for seed := int64(1); seed <= 3*limit; seed++ {
		simulateReq(t, s, simulateRequest{Scenario: "A1", Tasks: 2, Seed: seed})
		if n := s.memo.len(); n > limit {
			t.Fatalf("memo holds %d entries, cap %d", n, limit)
		}
	}
	simulateReq(t, s, hot)
	if _, ok := s.memo.get(namedRequestOf(hot)); !ok {
		t.Fatal("a request seen again after the flood did not re-enter the memo")
	}

	// A server's memo is built with the production cap.
	fresh, err := newServer(serverOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.close()
	if fresh.memo.limit != resolveMemoCap {
		t.Fatalf("server memo capped at %d, want %d", fresh.memo.limit, resolveMemoCap)
	}
}

// TestMemoFallsBackWhenRecordEvicted: a memoized request whose record
// left the one-entry LRU is re-simulated through the full path and
// answers the same digest, journaled as a run; repeated while the record
// is cached, it is journaled as a hit.
func TestMemoFallsBackWhenRecordEvicted(t *testing.T) {
	s, path := newJournaledServer(t, serverOptions{Workers: 1, CacheEntries: 1})
	x := simulateRequest{Scenario: "A1", Tasks: 3, Seed: 5}
	y := simulateRequest{Scenario: "A1", Tasks: 3, Seed: 6}
	digest := func(req simulateRequest) string {
		t.Helper()
		var r simulateResponse
		if err := json.Unmarshal([]byte(simulateReq(t, s, req)), &r); err != nil {
			t.Fatal(err)
		}
		return r.Digest
	}
	// counted snapshots the engine counters and the cache tiers' misses.
	counted := func() [4]int64 {
		st := s.eng.Stats()
		if len(st.Tiers) == 0 {
			t.Fatal("the cache reports no tiers")
		}
		c := [4]int64{st.Hits, st.Misses, st.Runs}
		for _, tier := range st.Tiers {
			c[3] += tier.Misses
		}
		return c
	}
	delta := func(before [4]int64) [4]int64 {
		after := counted()
		for i := range after {
			after[i] -= before[i]
		}
		return after
	}
	want := digest(x)
	before := counted()
	digest(y) // a first sighting through Run; evicts x's record
	fullRun := delta(before)
	if _, ok := s.memo.get(namedRequestOf(x)); !ok {
		t.Fatal("x is not memoized")
	}
	before = counted()
	if got := digest(x); got != want {
		t.Fatalf("re-simulated digest %s, first %s", got, want)
	}
	// The fallback starts past the memo path's probe, so the tiers count
	// the same misses as a run through Run.
	if d := delta(before); d != fullRun || d[2] != 1 {
		t.Fatalf("an evicted memoized request moved hits/misses/runs/tier misses by %v, a run through Run by %v", d, fullRun)
	}
	if got := digest(x); got != want {
		t.Fatalf("hit digest %s, first %s", got, want)
	}

	s.close()
	var outcomes []string
	for _, r := range readJournal(t, path) {
		outcomes = append(outcomes, r.Outcome)
	}
	if want := []string{"run", "run", "run", "hit"}; fmt.Sprint(outcomes) != fmt.Sprint(want) {
		t.Fatalf("journaled outcomes %v, want %v", outcomes, want)
	}
}

// TestUnknownScenarioBuildsNothing: an unknown name is refused before
// any scenario is built, however many tasks it asks for. Matching it
// against every extension used to build all of them at the requested
// size first (about 119 MiB at 200000 tasks).
func TestUnknownScenarioBuildsNothing(t *testing.T) {
	s, err := newServer(serverOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(`{"scenario":"nope","tasks":200000}`))
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.handleSimulate(w, req)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown scenario answered %d %s", w.Code, w.Body)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("refusing an unknown scenario allocated %d bytes, want < 1 MiB", d)
	}
}
