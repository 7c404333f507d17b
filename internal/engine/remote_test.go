package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"godpm/internal/engine"
	"godpm/internal/sim"
	"godpm/internal/soc"
)

// blobServerForTest wires a BlobServer over a fresh in-memory store and
// serves it over loopback HTTP, returning the test server and the store.
func blobServerForTest(t *testing.T) (*httptest.Server, *engine.BlobServer, *engine.LRU) {
	t.Helper()
	store := engine.NewLRU(engine.LRUOptions{})
	blob := engine.NewBlobServer(store, engine.BlobServerOptions{})
	ts := httptest.NewServer(blob)
	t.Cleanup(ts.Close)
	return ts, blob, store
}

func newRemote(t *testing.T, opts engine.RemoteOptions) *engine.Remote {
	t.Helper()
	r, err := engine.NewRemote(opts)
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	return r
}

// computeResult runs one simulation and returns its fingerprint and result.
func computeResult(t *testing.T, seed int64) (string, *soc.Result) {
	t.Helper()
	cfg := testConfig(seed, soc.PolicyDPM, 12)
	key, err := engine.Fingerprint(cfg)
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	r, err := soc.Run(cfg)
	if err != nil {
		t.Fatalf("soc.Run: %v", err)
	}
	return key, r
}

func TestRemoteBlobServerRoundtrip(t *testing.T) {
	ts, blob, _ := blobServerForTest(t)
	remote := newRemote(t, engine.RemoteOptions{BaseURL: ts.URL})

	key, want := computeResult(t, 1)
	if err := remote.Put(key, mustRecord(t, key, want)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := remote.Get(key)
	if !ok {
		t.Fatalf("Get(%s) missed after Put", key)
	}
	if got.Digest() != engine.ResultDigest(want) {
		t.Fatalf("roundtripped result differs: %s != %s",
			got.Digest(), engine.ResultDigest(want))
	}

	absent := strings.Repeat("0f", 32)
	if _, ok := remote.Get(absent); ok {
		t.Fatalf("Get(%s) hit for a key never stored", absent)
	}
	present, err := remote.Stat(context.Background(), []string{key, absent})
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if !present[key] || present[absent] {
		t.Fatalf("Stat = %v, want only %s present", present, key)
	}

	st := blob.Stats()
	if st.GetHits != 1 || st.Puts != 1 || st.StatBatch != 1 || st.StatKeys != 2 {
		t.Fatalf("server stats = %+v, want 1 get hit, 1 put, 1 stat batch of 2 keys", st)
	}
	if ts := remote.Stats(); ts.Tier != engine.TierRemote || ts.Hits != 1 || ts.Puts != 1 {
		t.Fatalf("Stats = %+v, want the %q tier with 1 hit and 1 put", ts, engine.TierRemote)
	}
}

func TestRemoteRejectsInvalidKeys(t *testing.T) {
	ts, _, _ := blobServerForTest(t)
	remote := newRemote(t, engine.RemoteOptions{BaseURL: ts.URL})
	for _, key := range []string{"", "short", strings.Repeat("A", 64), "../../etc/passwd"} {
		if _, ok := remote.Get(key); ok {
			t.Fatalf("Get(%q) hit for an invalid key", key)
		}
		if err := remote.Put(key, mustRecord(t, key, &soc.Result{})); err == nil {
			t.Fatalf("Put(%q) accepted an invalid key", key)
		}
	}
	// The server enforces the same bound independently of the client.
	resp, err := http.Get(ts.URL + "/v1/blob/not-a-fingerprint")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("server accepted invalid fingerprint: status %d", resp.StatusCode)
	}
}

// TestFleetDedupAcrossEngines is the subsystem's core promise in one
// process: two engines sharing nothing but a dpmremote store, and the
// second runs zero simulations.
func TestFleetDedupAcrossEngines(t *testing.T) {
	ts, blob, _ := blobServerForTest(t)
	plan := testPlan(12)

	storeA := newStore(t, "", ts.URL)
	engA := engine.New(engine.Options{Workers: 4, Cache: storeA})
	resA, err := engA.Run(context.Background(), plan)
	if err != nil {
		t.Fatalf("engine A: %v", err)
	}
	// Close flushes the write-behind queue, so every result reaches the
	// shared store before the "second replica" starts.
	if err := storeA.Close(); err != nil {
		t.Fatalf("close A: %v", err)
	}
	distinct := int64(engA.Stats().Runs)
	if got := blob.Stats().Store.Entries; got != distinct {
		t.Fatalf("store holds %d entries after flush, want %d", got, distinct)
	}

	engB := engine.New(engine.Options{Workers: 4, Cache: newStore(t, "", ts.URL)})
	resB, err := engB.Run(context.Background(), plan)
	if err != nil {
		t.Fatalf("engine B: %v", err)
	}

	stB := engB.Stats()
	if stB.Runs != 0 {
		t.Fatalf("engine B ran %d simulations, want 0 (all served by the fleet store)", stB.Runs)
	}
	if stB.Hits != int64(len(plan.Jobs)) {
		t.Fatalf("engine B hits = %d, want %d", stB.Hits, len(plan.Jobs))
	}
	var remoteHits int64
	for _, tier := range stB.Tiers {
		if tier.Tier == engine.TierRemote {
			remoteHits += tier.Hits
		}
	}
	if remoteHits == 0 {
		t.Fatalf("engine B shows no remote-tier hits: %+v", stB.Tiers)
	}
	for i := range resA {
		if engine.ResultDigest(resA[i].Result) != engine.ResultDigest(resB[i].Result) {
			t.Fatalf("job %d: remote-served result differs from computed one", i)
		}
	}
}

// runWithRemote runs the standard plan through a store whose remote tier
// points at base, and asserts the run itself is unharmed. It returns the
// engine and the store's memory tier.
func runWithRemote(t *testing.T, base string, opts engine.RemoteOptions) (*engine.Engine, *engine.LRU) {
	t.Helper()
	opts.BaseURL = base
	local := engine.NewLRU(engine.LRUOptions{})
	store, err := engine.NewStore(local, "", engine.DiskOptions{}, &opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	eng := engine.New(engine.Options{Workers: 4, Cache: store})
	plan := testPlan(12)
	results, err := eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatalf("Run with remote %s: %v", base, err)
	}
	for i := range results {
		if results[i].Err != nil || results[i].Result == nil {
			t.Fatalf("job %d failed: %v", i, results[i].Err)
		}
	}
	st := eng.Stats()
	if st.Errors != 0 {
		t.Fatalf("engine booked %d errors, want 0 (remote must fail open)", st.Errors)
	}
	return eng, local
}

// remoteTier returns the remote tier's counters from the engine's stats.
func remoteTier(t *testing.T, eng *engine.Engine) engine.TierStats {
	t.Helper()
	for _, ts := range eng.Stats().Tiers {
		if ts.Tier == engine.TierRemote {
			return ts
		}
	}
	t.Fatal("no remote tier in the engine's stats")
	return engine.TierStats{}
}

func TestRemoteDownFailsOpen(t *testing.T) {
	// A listener that is closed immediately: connections are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ln.Close()

	eng, _ := runWithRemote(t, base, engine.RemoteOptions{
		Timeout: 200 * time.Millisecond, Retries: -1, // -1 → no retries
	})
	if st := eng.Stats(); st.Runs == 0 {
		t.Fatalf("no simulations ran; the dead remote should degrade to local compute")
	}
}

func TestRemoteServerErrorFailsOpen(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	eng, _ := runWithRemote(t, ts.URL, engine.RemoteOptions{
		Timeout: 200 * time.Millisecond, Retries: -1, RetryBackoff: time.Millisecond,
	})
	if rt := remoteTier(t, eng); rt.Errors == 0 {
		t.Fatalf("remote tier reports no errors against an always-500 server: %+v", rt)
	}
}

func TestRemoteTimeoutFailsOpen(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(250 * time.Millisecond)
	}))
	defer ts.Close()

	runWithRemote(t, ts.URL, engine.RemoteOptions{
		Timeout: 50 * time.Millisecond, Retries: -1,
	})
}

// TestCorruptRemoteDoesNotPoison serves garbage for every blob and
// claims every key is present, the worst case for promotion: the local
// tiers must end the run holding only genuinely computed results.
func TestCorruptRemoteDoesNotPoison(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost: // stat: claim everything exists
			var req struct {
				Keys []string `json:"keys"`
			}
			json.NewDecoder(r.Body).Decode(&req)
			json.NewEncoder(w).Encode(map[string]any{"present": req.Keys})
		case r.Method == http.MethodGet:
			w.Write([]byte("}{ this is not a result record"))
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer ts.Close()

	eng, local := runWithRemote(t, ts.URL, engine.RemoteOptions{
		Timeout: time.Second, Retries: -1,
	})
	st := eng.Stats()
	if st.Runs == 0 {
		t.Fatalf("no simulations ran; corrupt remote entries must degrade to compute")
	}
	// Every locally cached entry must digest-match a fresh simulation of
	// its job — promotion never wrote remote garbage into the local tier.
	for _, job := range testPlan(12).Jobs {
		key, err := engine.Fingerprint(job.Config)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := local.Get(key)
		if !ok {
			continue
		}
		want, err := soc.Run(job.Config)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest() != engine.ResultDigest(want) {
			t.Fatalf("local cache poisoned for %s", job.ID)
		}
	}
	if rt := remoteTier(t, eng); rt.Errors == 0 {
		t.Fatalf("corrupt bodies were not counted as remote errors: %+v", rt)
	}
}

func TestRemoteBreakerTrips(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	remote := newRemote(t, engine.RemoteOptions{
		BaseURL:          ts.URL,
		Timeout:          time.Second,
		Retries:          -1,
		FailureThreshold: 3,
		Cooldown:         time.Hour, // stays open for the whole test
	})
	key := strings.Repeat("ab", 32)
	for i := 0; i < 10; i++ {
		if _, ok := remote.Get(key); ok {
			t.Fatalf("Get hit against an always-500 server")
		}
	}
	if got := requests.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want exactly 3 (threshold) before the breaker opened", got)
	}
	st := remote.Stats()
	if st.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", st.BreakerTrips)
	}
	if st.BreakerSkips != 7 {
		t.Fatalf("BreakerSkips = %d, want 7 (10 gets - 3 real attempts)", st.BreakerSkips)
	}
}

func TestRemoteRetriesTransientFailures(t *testing.T) {
	key, want := computeResult(t, 3)
	blob := mustContainer(t, key, want)
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) <= 2 {
			http.Error(w, "try again", http.StatusServiceUnavailable)
			return
		}
		w.Write(blob)
	}))
	defer ts.Close()

	remote := newRemote(t, engine.RemoteOptions{
		BaseURL: ts.URL, Timeout: time.Second, Retries: 2, RetryBackoff: time.Millisecond,
	})
	got, ok := remote.Get(key)
	if !ok {
		t.Fatalf("Get missed; two 503s should have been retried away")
	}
	if got.Digest() != engine.ResultDigest(want) {
		t.Fatalf("retried Get returned a different result")
	}
	if requests.Load() != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 failures + 1 success)", requests.Load())
	}
}

func TestRemoteStatChunks(t *testing.T) {
	var batches, keys atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Keys []string `json:"keys"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		batches.Add(1)
		keys.Add(int64(len(req.Keys)))
		present := make([]string, 0, len(req.Keys)/2)
		for i, k := range req.Keys {
			if i%2 == 0 {
				present = append(present, k)
			}
		}
		json.NewEncoder(w).Encode(map[string]any{"present": present})
	}))
	defer ts.Close()

	remote := newRemote(t, engine.RemoteOptions{BaseURL: ts.URL})
	all := make([]string, 1500)
	for i := range all {
		all[i] = fmt.Sprintf("%064x", i)
	}
	present, err := remote.Stat(context.Background(), all)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if batches.Load() != 2 || keys.Load() != 1500 {
		t.Fatalf("server saw %d batches of %d keys total, want 2 batches / 1500 keys",
			batches.Load(), keys.Load())
	}
	if len(present) != 750 {
		t.Fatalf("Stat returned %d present keys, want 750", len(present))
	}
}

// TestEngineWarmPrefetchesPlan proves Engine.Run's warm-up turns a cold
// local start against a warm fleet store into one batched stat plus one
// GET per distinct fingerprint — and zero simulations.
func TestEngineWarmPrefetchesPlan(t *testing.T) {
	ts, blob, _ := blobServerForTest(t)
	plan := testPlan(12)

	// Seed the store; Close flushes the write-behind queue.
	seedStore := newStore(t, "", ts.URL)
	seeder := engine.New(engine.Options{Workers: 4, Cache: seedStore})
	if _, err := seeder.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	seedStore.Close()
	distinct := seeder.Stats().Runs

	eng, _ := runWithRemote(t, ts.URL, engine.RemoteOptions{Timeout: 2 * time.Second})
	st := eng.Stats()
	if st.Runs != 0 {
		t.Fatalf("warmed engine ran %d simulations, want 0", st.Runs)
	}
	bs := blob.Stats()
	if bs.StatBatch == 0 {
		t.Fatalf("warm-up issued no batched stat")
	}
	if bs.GetHits != distinct {
		t.Fatalf("store served %d GETs, want %d (one per distinct fingerprint)", bs.GetHits, distinct)
	}
}

// TestSingleflightCollapsesRemoteProbe runs a stampede of identical
// jobs: the pre-flight probe stays local, so the remote sees one GET
// from the flight leader, not one per job.
func TestSingleflightCollapsesRemoteProbe(t *testing.T) {
	var gets atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			gets.Add(1)
			http.NotFound(w, r)
		case http.MethodPost:
			json.NewEncoder(w).Encode(map[string]any{"present": []string{}})
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer ts.Close()

	eng := engine.New(engine.Options{Workers: 8, Cache: newStore(t, "", ts.URL)})

	var plan engine.Plan
	cfg := testConfig(1, soc.PolicyDPM, 12)
	for i := 0; i < 16; i++ {
		plan.Add(fmt.Sprintf("dup%d", i), cfg)
	}
	if _, err := eng.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Runs != 1 {
		t.Fatalf("stampede ran %d simulations, want 1", st.Runs)
	}
	// One flight leader probes the remote; every other job either waits
	// on the flight or hits the already-promoted local tier. Allow one
	// extra probe for a flight retired between a waiter's local miss and
	// its join.
	if got := gets.Load(); got > 2 {
		t.Fatalf("remote saw %d GETs for one distinct fingerprint, want ≤ 2", got)
	}
}

// TestRemoteWireFormatNegotiation pins that there is nothing left to
// negotiate: a client PUT ships a record container, and a GET — with the
// record Accept header or with none at all — answers with the stored
// container.
func TestRemoteWireFormatNegotiation(t *testing.T) {
	ts, _, _ := blobServerForTest(t)
	key, want := computeResult(t, 8)

	remote := newRemote(t, engine.RemoteOptions{BaseURL: ts.URL})
	if err := remote.Put(key, mustRecord(t, key, want)); err != nil {
		t.Fatalf("record Put: %v", err)
	}

	for _, accept := range []string{engine.RecordContentType, ""} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/blob/"+key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != engine.RecordContentType {
			t.Fatalf("GET (Accept %q) got Content-Type %q", accept, ct)
		}
		rec, err := engine.DecodeRecord(body)
		if err != nil {
			t.Fatalf("served container does not decode: %v", err)
		}
		if rec.Key() != key || rec.Digest() != engine.ResultDigest(want) {
			t.Fatal("served container carries the wrong identity")
		}
	}
}

// TestBlobPutStoresTheContainerOnly: a verified PUT is stored as its
// container alone. The inflated body and decoded result its verification
// built are not kept beside it, so the server's heap grows by at most
// the MemSize its store accounts per upload, and a GET serves the
// uploaded bytes unchanged.
func TestBlobPutStoresTheContainerOnly(t *testing.T) {
	cfg := testConfig(1, soc.PolicyDPM, 400)
	cfg.Horizon = 600 * sim.Sec
	r, err := soc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Ledger.Records()); n < 400 {
		t.Fatalf("ledger has %d rows, want 400", n)
	}
	const puts = 50
	keys := make([]string, puts)
	bodies := make([][]byte, puts)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i+1)
		bodies[i] = mustContainer(t, keys[i], r)
	}
	memSize := mustRecord(t, keys[0], r).MemSize()
	blob := engine.NewBlobServer(engine.NewLRU(engine.LRUOptions{MaxBytes: 1 << 30}), engine.BlobServerOptions{})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, key := range keys {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPut, "/v1/blob/"+key, bytes.NewReader(bodies[i]))
		blob.ServeHTTP(w, req)
		if w.Code != http.StatusNoContent {
			t.Fatalf("PUT %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / puts; grown > memSize {
		t.Errorf("heap grew %d B per PUT, more than the %d B MemSize the store accounts", grown, memSize)
	}

	for i, key := range keys {
		w := httptest.NewRecorder()
		blob.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/blob/"+key, nil))
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), bodies[i]) {
			t.Fatalf("GET %d: status %d, %d bytes; want the %d uploaded bytes", i, w.Code, w.Body.Len(), len(bodies[i]))
		}
	}
}
