package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"godpm"
	"godpm/internal/engine"
	"godpm/internal/loadgen"
	"godpm/internal/soc"
)

func newTestServer(t *testing.T, o serverOptions) (*server, *httptest.Server) {
	t.Helper()
	if o.Workers == 0 {
		o.Workers = 8
	}
	s, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getStatsz(t *testing.T, base string) statszResponse {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestConcurrentDuplicatePOSTsShareOneSimulation is the serving half of
// the stampede acceptance: concurrent duplicate /v1/simulate requests are
// all answered, from exactly one simulation.
func TestConcurrentDuplicatePOSTsShareOneSimulation(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{MaxInflight: 64})
	const clients = 16
	body := `{"scenario":"A1","tasks":15,"seed":3}`

	var wg sync.WaitGroup
	codes := make([]int, clients)
	keys := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/simulate", body)
			codes[i] = resp.StatusCode
			var sr simulateResponse
			if json.Unmarshal(data, &sr) == nil {
				keys[i] = sr.Key
			}
		}(i)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("client %d: status %d", i, code)
		}
		if keys[i] == "" || keys[i] != keys[0] {
			t.Fatalf("client %d: key %q differs from %q", i, keys[i], keys[0])
		}
	}
	st := getStatsz(t, ts.URL)
	if st.Runs != 1 {
		t.Fatalf("%d duplicate requests simulated %d times, want 1", clients, st.Runs)
	}
	if st.Hits != clients-1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want %d hits / 1 miss", st.EngineStats, clients-1)
	}
}

// slowBody is a request sized to simulate for a few hundred ms — long
// enough to observe the server in its in-flight state.
func slowBody(seed int) string {
	return fmt.Sprintf(`{"scenario":"A1","tasks":20000,"seed":%d}`, seed)
}

// waitInflight polls statsz until the server reports n in-flight
// requests; reports whether it got there before the deadline.
func waitInflight(base string, n int, deadline time.Duration) bool {
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		resp, err := http.Get(base + "/statsz")
		if err == nil {
			var st statszResponse
			ok := json.NewDecoder(resp.Body).Decode(&st) == nil
			resp.Body.Close()
			if ok && st.Inflight >= n {
				return true
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// TestSaturationReturns429 pins the backpressure contract: with the
// in-flight bound reached, a further request is refused with 429 and a
// Retry-After header rather than queued.
func TestSaturationReturns429(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{Workers: 2, MaxInflight: 1})

	for attempt := 0; attempt < 5; attempt++ {
		done := make(chan int, 1)
		go func(seed int) {
			resp, _ := postJSON(t, ts.URL+"/v1/simulate", slowBody(100+seed))
			done <- resp.StatusCode
		}(attempt)
		if !waitInflight(ts.URL, 1, 2*time.Second) {
			t.Fatal("slow request never became in-flight")
		}
		resp, _ := postJSON(t, ts.URL+"/v1/simulate", `{"scenario":"A1","tasks":10}`)
		slowCode := <-done
		if slowCode != http.StatusOK {
			t.Fatalf("slow request failed: %d", slowCode)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			// Saturation is transient: once drained, the server accepts
			// work again.
			resp2, _ := postJSON(t, ts.URL+"/v1/simulate", `{"scenario":"A1","tasks":10}`)
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("server stuck saturated: %d", resp2.StatusCode)
			}
			return
		}
		// The slow request finished before we fired — retry the race.
	}
	t.Fatal("never observed a 429 while saturated")
}

// TestWorkGateCancelUnblocksQueue pins the gate's cancellation path: a
// wide waiter abandoning the head of the queue must immediately unblock
// a satisfiable narrower waiter behind it, without waiting for the next
// release.
func TestWorkGateCancelUnblocksQueue(t *testing.T) {
	g := newWorkGate(2)
	if !g.acquire(context.Background(), 1) {
		t.Fatal("initial acquire failed")
	}
	queued := func(n int) bool {
		stop := time.Now().Add(2 * time.Second)
		for time.Now().Before(stop) {
			g.mu.Lock()
			l := len(g.queue)
			g.mu.Unlock()
			if l == n {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return false
	}
	// Wide waiter (needs 2 > avail 1) parks at the head...
	wideCtx, cancelWide := context.WithCancel(context.Background())
	wideDone := make(chan bool, 1)
	go func() { wideDone <- g.acquire(wideCtx, 2) }()
	if !queued(1) {
		t.Fatal("wide waiter never queued")
	}
	// ...then a narrow waiter (needs 1 == avail) queues FIFO behind it.
	narrowDone := make(chan bool, 1)
	go func() { narrowDone <- g.acquire(context.Background(), 1) }()
	if !queued(2) {
		t.Fatal("narrow waiter never queued (or jumped the FIFO queue)")
	}
	select {
	case <-narrowDone:
		t.Fatal("narrow waiter granted while queued behind the head")
	default:
	}

	cancelWide()
	if got := <-wideDone; got {
		t.Fatal("canceled waiter claims success")
	}
	select {
	case got := <-narrowDone:
		if !got {
			t.Fatal("narrow waiter failed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("narrow waiter still blocked after the head abandoned the queue")
	}
	g.release(1)
	g.release(1)
	if b := g.busy(2); b != 0 {
		t.Fatalf("gate leaks %d units", b)
	}
}

// TestWorkerSlotsBoundSimulationConcurrency pins the execution bound:
// with one worker, many admitted concurrent requests never run more
// than one engine invocation at a time (busy_workers ≤ workers), while
// admission (inflight) rises above it.
func TestWorkerSlotsBoundSimulationConcurrency(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{Workers: 1, MaxInflight: 8})
	const clients = 4
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/simulate", slowBody(200+i))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	sawQueued := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatsz(t, ts.URL)
		if st.BusyWorkers > 1 {
			t.Fatalf("busy_workers = %d with 1 worker", st.BusyWorkers)
		}
		if st.Inflight > st.BusyWorkers {
			sawQueued = true
		}
		if st.Inflight == 0 && st.Runs >= clients {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	if !sawQueued {
		t.Log("note: never observed admitted requests queued for a work slot (timing)")
	}
	st := getStatsz(t, ts.URL)
	if st.Runs != clients {
		t.Fatalf("runs = %d, want %d distinct simulations", st.Runs, clients)
	}
}

// TestGracefulDrain pins the shutdown contract: Shutdown while a request
// is in flight completes that request with 200 and returns cleanly.
func TestGracefulDrain(t *testing.T) {
	s, err := newServer(serverOptions{Workers: 2, MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.handler()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	type outcome struct {
		code int
		hit  bool
	}
	done := make(chan outcome, 1)
	go func() {
		resp, data := postJSON(t, base+"/v1/simulate", slowBody(7))
		var sr simulateResponse
		_ = json.Unmarshal(data, &sr)
		done <- outcome{resp.StatusCode, sr.CacheHit}
	}()
	if !waitInflight(base, 1, 2*time.Second) {
		t.Fatal("request never became in-flight")
	}

	s.draining.Store(true)
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	out := <-done
	if out.code != http.StatusOK {
		t.Fatalf("in-flight request got %d during drain, want 200", out.code)
	}
	if out.hit {
		t.Fatal("in-flight request claims cache hit on a cold key")
	}
	// Once draining, the health endpoint reports unavailability (and the
	// listener is closed, so new connections fail outright).
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestHealthzReportsDraining pins the load-balancer signal without a full
// server: the handler answers 503 once draining starts.
func TestHealthzReportsDraining(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{MaxInflight: 2})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy healthz: %v %v", err, resp)
	}
	resp.Body.Close()
	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
}

// TestTournamentStreamsNDJSON parses the leaderboard stream: one JSON row
// per standing, ranked 1..n, then a done trailer carrying the counters.
func TestTournamentStreamsNDJSON(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{MaxInflight: 4})
	resp, data := postJSON(t, ts.URL+"/v1/tournament",
		`{"tasks":10,"seeds":[1],"policies":["dpm","alwayson"],"scenarios":["steady"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var rows []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var row map[string]any
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 3 {
		t.Fatalf("%d NDJSON lines, want 2 standings + trailer", len(rows))
	}
	for i, row := range rows[:2] {
		if rank, _ := row["rank"].(float64); int(rank) != i+1 {
			t.Fatalf("row %d has rank %v", i, row["rank"])
		}
		if _, ok := row["policy"].(string); !ok {
			t.Fatalf("row %d missing policy: %v", i, row)
		}
	}
	trailer := rows[2]
	if done, _ := trailer["done"].(bool); !done {
		t.Fatalf("trailer not done: %v", trailer)
	}
	if _, ok := trailer["stats"].(map[string]any); !ok {
		t.Fatalf("trailer missing stats: %v", trailer)
	}
}

// TestBadRequests exercises the validation edges.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{MaxInflight: 2})
	for name, tc := range map[string]struct {
		path, body string
		want       int
	}{
		"no scenario":      {"/v1/simulate", `{}`, http.StatusBadRequest},
		"unknown scenario": {"/v1/simulate", `{"scenario":"Z9"}`, http.StatusBadRequest},
		"both forms":       {"/v1/simulate", `{"scenario":"A1","config":{}}`, http.StatusBadRequest},
		"bad json":         {"/v1/simulate", `{`, http.StatusBadRequest},
		"unknown field":    {"/v1/simulate", `{"scenaro":"A1"}`, http.StatusBadRequest},
		"unknown policy":   {"/v1/tournament", `{"policies":["nope"]}`, http.StatusBadRequest},
		"unknown arena":    {"/v1/tournament", `{"scenarios":["nope"]}`, http.StatusBadRequest},
		"duplicate policy": {"/v1/tournament", `{"policies":["dpm","dpm"]}`, http.StatusUnprocessableEntity},
		"too many seeds": {"/v1/tournament", `{"tasks":1,"seeds":[` + strings.Repeat("1,", engine.MaxTournamentCells) + `1]}`,
			http.StatusUnprocessableEntity},
		"too many tasks": {"/v1/tournament", `{"tasks":1048576,"seeds":[1,2,3,4,5],"scenarios":["steady"]}`,
			http.StatusUnprocessableEntity},
	} {
		resp, _ := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/simulate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET simulate = %d, want 405", resp.StatusCode)
	}
}

// TestInvalidInlineConfigAnswers422 replays requests that used to panic
// an engine worker — and with it the whole process — or "ran" to an
// empty result: they must be refused with 422 and leave the server
// healthy.
func TestInvalidInlineConfigAnswers422(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{MaxInflight: 2})
	const kibam = `"Battery":{"Kind":"kibam","CapacityJ":20,"InitialSoC":0.9,"KiBaMC":0.35,"KiBaMK":0.08`
	for _, tc := range []struct{ name, cfg, want string }{
		{"negative sample interval", `"SampleInterval":-1000000`, "negative SampleInterval"},
		{"negative horizon", `"Horizon":-1000000000000`, "negative Horizon"},
		{"negative timeout", `"Policy":"timeout","Timeout":-1`, "negative Timeout"},
		{"KiBaM C outside (0,1)", kibam + `,"KiBaMC":1.5}`, "KiBaM"},
		{"KiBaM K not positive", kibam + `,"KiBaMK":0}`, "KiBaM"},
		{"initial SoC outside [0,1]", kibam + `,"InitialSoC":2}`, "InitialSoC"},
		{"linear capacity not positive", `"Battery":{"Kind":"linear","CapacityJ":-5,"InitialSoC":0.5}`, "CapacityJ"},
		{"thermal Rth not positive", `"Thermal":{"AmbientC":45,"RthKperW":0,"CthJperK":0.0001,"FanFactor":0.4,"MediumAboveC":68,"HighAboveC":80,"HysteresisC":2}`, "Rth or Cth"},
		{"thermal Cth not positive", `"Thermal":{"AmbientC":45,"RthKperW":25,"CthJperK":-1,"FanFactor":0.4,"MediumAboveC":68,"HighAboveC":80,"HysteresisC":2}`, "Rth or Cth"},
	} {
		body := `{"config":{"IPs":[{"Gen":{"Kind":"closed","Closed":{"Seed":3,"NumTasks":5,"MeanInstructions":100000}}}],` + tc.cfg + `}}`
		resp, msg := postJSON(t, ts.URL+"/v1/simulate", body)
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s: status %d (%s), want 422 mentioning %q", tc.name, resp.StatusCode, bytes.TrimSpace(msg), tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after invalid configs = %d, want 200", resp.StatusCode)
	}
}

// TestOversizedWorkloadAnswers422: a closed-loop generator asked for 2⁶²
// tasks used to panic in its make on an engine worker and take the whole
// process down. It is refused with 422 before anything is allocated, and
// the server goes on answering a valid request with 200.
func TestOversizedWorkloadAnswers422(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{MaxInflight: 2})
	gen := func(n string) string {
		return `{"config":{"IPs":[{"Gen":{"Kind":"closed","Closed":{"Seed":3,"NumTasks":` + n + `,"MeanInstructions":100000}}}]}}`
	}
	resp, msg := postJSON(t, ts.URL+"/v1/simulate", gen("4611686018427387904"))
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "exceeds the cap") {
		t.Fatalf("2^62 tasks: status %d (%s), want 422 naming the cap", resp.StatusCode, bytes.TrimSpace(msg))
	}
	resp, msg = postJSON(t, ts.URL+"/v1/simulate", gen("5"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid request after the refusal: status %d (%s), want 200", resp.StatusCode, bytes.TrimSpace(msg))
	}
}

// TestTooManyIPsAnswers422: an inline config with more than soc.MaxIPs
// IPs is refused at normalization and answered 422 naming the cap; one
// with MaxIPs IPs still runs.
func TestTooManyIPsAnswers422(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{MaxInflight: 2})
	ips := func(n int) string {
		ip := `{"Gen":{"Kind":"closed","Closed":{"Seed":3,"NumTasks":2,"MeanInstructions":100000}}}`
		return `{"config":{"IPs":[` + strings.Repeat(ip+",", n-1) + ip + `]}}`
	}
	resp, msg := postJSON(t, ts.URL+"/v1/simulate", ips(soc.MaxIPs+1))
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "exceeds the cap") {
		t.Fatalf("%d IPs: status %d (%s), want 422 naming the cap", soc.MaxIPs+1, resp.StatusCode, bytes.TrimSpace(msg))
	}
	resp, msg = postJSON(t, ts.URL+"/v1/simulate", ips(soc.MaxIPs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%d IPs: status %d (%s), want 200", soc.MaxIPs, resp.StatusCode, bytes.TrimSpace(msg))
	}
}

// TestTooManySamplesAnswers422: an inline config whose sample grid
// (horizon ÷ sample interval) exceeds soc.MaxSamples is refused at
// normalization and answered 422 naming the cap; a grid at the cap is
// accepted.
func TestTooManySamplesAnswers422(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{MaxInflight: 2})
	grid := func(horizon int64) string {
		return `{"config":{"IPs":[{"Gen":{"Kind":"closed","Closed":{"Seed":3,"NumTasks":2,"MeanInstructions":100000}}}],` +
			`"SampleInterval":1000000,"Horizon":` + strconv.FormatInt(horizon, 10) + `}}`
	}
	for _, horizon := range []int64{(soc.MaxSamples + 1) * 1000000, 1 << 62} {
		resp, msg := postJSON(t, ts.URL+"/v1/simulate", grid(horizon))
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "exceeds the cap") {
			t.Fatalf("horizon %d ps: status %d (%s), want 422 naming the cap", horizon, resp.StatusCode, bytes.TrimSpace(msg))
		}
	}
	resp, msg := postJSON(t, ts.URL+"/v1/simulate", grid(soc.MaxSamples*1000000))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a grid at the cap: status %d (%s), want 200", resp.StatusCode, bytes.TrimSpace(msg))
	}
}

// TestLoadgenDedupRatioAndBoundedCache drives the built-in load
// generator at an in-process server: a mixed duplicate/distinct stream
// must be served from exactly `distinct` simulations, and the cache
// occupancy must respect its configured bound.
func TestLoadgenDedupRatioAndBoundedCache(t *testing.T) {
	const (
		requests    = 60
		distinct    = 4
		cacheBound  = 64
		concurrency = 8
	)
	_, ts := newTestServer(t, serverOptions{MaxInflight: 32, CacheEntries: cacheBound})
	rep, err := loadgen.Run([]string{ts.URL}, concurrency, loadgen.Mix(requests, distinct, 10))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.OK != requests {
		t.Fatalf("report %+v: %d of %d ok", rep, rep.OK, requests)
	}
	if rep.Stats.Runs != distinct {
		t.Fatalf("server simulated %d times for %d distinct configs", rep.Stats.Runs, distinct)
	}
	wantRatio := float64(requests-distinct) / float64(requests)
	if rep.DedupRatio < wantRatio {
		t.Fatalf("dedup ratio %.3f < %.3f", rep.DedupRatio, wantRatio)
	}
	if rep.Stats.CacheEntries > cacheBound {
		t.Fatalf("cache grew past its bound: %d > %d", rep.Stats.CacheEntries, cacheBound)
	}
}

// TestFleetSharedRemoteStore is the horizontal-scaling proof in-process:
// two replicas sharing nothing but a dpmremote-protocol store run each
// distinct configuration once fleet-wide, and the second replica's
// lookups are served by the store.
func TestFleetSharedRemoteStore(t *testing.T) {
	const distinct = 5 // coprime with 2 replicas: every replica sees every seed

	store := godpm.NewLRUCache(godpm.LRUOptions{})
	blob := godpm.NewBlobServer(store, godpm.BlobServerOptions{})
	bs := httptest.NewServer(blob)
	defer bs.Close()

	_, ts1 := newTestServer(t, serverOptions{MaxInflight: 32, RemoteURL: bs.URL})
	_, ts2 := newTestServer(t, serverOptions{MaxInflight: 32, RemoteURL: bs.URL})

	// Phase 1: warm the fleet store through replica 1 only.
	rep, err := loadgen.Run([]string{ts1.URL}, 4, loadgen.Mix(20, distinct, 8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Stats.Runs != distinct {
		t.Fatalf("warm phase: %+v", rep)
	}
	// Write-behind PUTs are asynchronous; wait for them to land.
	deadline := time.Now().Add(5 * time.Second)
	for blob.Stats().Store.Entries < distinct {
		if time.Now().After(deadline) {
			t.Fatalf("store holds %d entries, want %d", blob.Stats().Store.Entries, distinct)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2: the same stream across both replicas. Replica 2 is cold
	// locally but must not simulate anything — the store serves it.
	rep, err = loadgen.Run([]string{ts1.URL, ts2.URL}, 4, loadgen.Mix(30, distinct, 8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("fleet phase: %d failed requests", rep.Failed)
	}
	if rep.FleetRuns != distinct {
		t.Fatalf("fleet ran %d simulations for %d distinct configs across 2 replicas", rep.FleetRuns, distinct)
	}
	if rep.RemoteHits == 0 {
		t.Fatalf("no remote-tier hits; the shared store served nothing:\n%s", rep.String())
	}
	if len(rep.Replicas) != 2 || rep.Replicas[1].Runs != 0 {
		t.Fatalf("replica 2 simulated instead of fetching: %+v", rep.Replicas)
	}
}

// TestFleetRemoteDownFailsOpen points a replica at a dead store: every
// request must still succeed from local compute and local tiers.
func TestFleetRemoteDownFailsOpen(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	_, ts := newTestServer(t, serverOptions{
		MaxInflight: 32, RemoteURL: dead, RemoteTimeout: 200 * time.Millisecond,
	})
	rep, err := loadgen.Run([]string{ts.URL}, 4, loadgen.Mix(24, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("dead remote caused %d request failures, want 0:\n%s", rep.Failed, rep.String())
	}
	if rep.Stats.Runs != 4 {
		t.Fatalf("server simulated %d times for 4 distinct configs", rep.Stats.Runs)
	}
}

// TestStatszReportsTiers checks the per-tier counters surface end to
// end: a remote-wired replica's /statsz names all three counters'
// tiers, and the plain one reports memory only.
func TestStatszReportsTiers(t *testing.T) {
	store := godpm.NewLRUCache(godpm.LRUOptions{})
	bs := httptest.NewServer(godpm.NewBlobServer(store, godpm.BlobServerOptions{}))
	defer bs.Close()

	_, ts := newTestServer(t, serverOptions{MaxInflight: 8, RemoteURL: bs.URL})
	if resp, _ := postJSON(t, ts.URL+"/v1/simulate", slowBody(1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d", resp.StatusCode)
	}
	tiers := make(map[string]bool)
	for _, tier := range getStatsz(t, ts.URL).Tiers {
		tiers[tier.Tier] = true
	}
	if !tiers[godpm.TierMemory] || !tiers[godpm.TierRemote] {
		t.Fatalf("remote-wired /statsz tiers = %v, want memory and remote", tiers)
	}

	_, plain := newTestServer(t, serverOptions{MaxInflight: 8})
	if resp, _ := postJSON(t, plain.URL+"/v1/simulate", slowBody(1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d", resp.StatusCode)
	}
	st := getStatsz(t, plain.URL)
	if len(st.Tiers) != 1 || st.Tiers[0].Tier != godpm.TierMemory {
		t.Fatalf("plain /statsz tiers = %+v, want exactly one memory tier", st.Tiers)
	}
}

// TestStatszV2Envelope checks the observability schema: version, service
// identity, start time, rolling rates, and per-endpoint latency sketches
// whose counts match the traffic served.
func TestStatszV2Envelope(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{MaxInflight: 8, RateInterval: 10 * time.Millisecond})
	for i := 0; i < 3; i++ {
		if resp, _ := postJSON(t, ts.URL+"/v1/simulate", `{"scenario":"A1","tasks":3,"seed":7}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate: status %d", resp.StatusCode)
		}
	}
	time.Sleep(40 * time.Millisecond) // let the rate sampler observe the counters

	st := getStatsz(t, ts.URL)
	if st.Version != statszVersion || st.Service != "dpmserve" {
		t.Fatalf("envelope = v%d %q, want v%d dpmserve", st.Version, st.Service, statszVersion)
	}
	if st.StartUnixMs <= 0 || st.UptimeS <= 0 {
		t.Fatalf("start_unix_ms=%d uptime_s=%f, want both positive", st.StartUnixMs, st.UptimeS)
	}
	lat, ok := st.Latency[godpm.JournalEndpointSimulate]
	if !ok || lat.Count != 3 {
		t.Fatalf("latency[simulate] = %+v (present=%v), want count 3", lat, ok)
	}
	if lat.MaxMs < lat.P50Ms || lat.Hist.Count != 3 {
		t.Fatalf("latency summary inconsistent with sketch: %+v", lat)
	}
	if _, ok := st.RatesPerS["requests"]; !ok {
		t.Fatalf("rates_per_s missing requests counter: %v", st.RatesPerS)
	}
}

// TestJournalRecordsRequests checks every handled request lands in the
// journal with its outcome, fingerprint and latency, and that hits and
// runs are distinguished.
func TestJournalRecordsRequests(t *testing.T) {
	path := filepath.Join(t.TempDir(), "req.journal")
	s, ts := newTestServer(t, serverOptions{MaxInflight: 8, JournalPath: path})

	for i := 0; i < 2; i++ { // second request is a cache hit
		if resp, _ := postJSON(t, ts.URL+"/v1/simulate", `{"scenario":"A1","tasks":3,"seed":9}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate: status %d", resp.StatusCode)
		}
	}
	// Malformed traffic (an unresolvable scenario) is refused before the
	// journal: it carries nothing replayable.
	if resp, _ := postJSON(t, ts.URL+"/v1/simulate", `{"scenario":"no-such","tasks":3}`); resp.StatusCode == http.StatusOK {
		t.Fatal("unknown scenario should fail")
	}
	s.close()

	recs, skipped, err := godpm.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("%d skipped lines in a cleanly closed journal", skipped)
	}
	var outcomes []string
	for _, r := range recs {
		outcomes = append(outcomes, r.Outcome)
	}
	if len(recs) != 2 {
		t.Fatalf("journal has %d records (%v), want 2 (bad requests are not journaled)", len(recs), outcomes)
	}
	if recs[0].Outcome != godpm.JournalOutcomeRun || recs[1].Outcome != godpm.JournalOutcomeHit {
		t.Fatalf("outcomes = %v, want [run hit]", outcomes)
	}
	if recs[0].Fingerprint == "" || recs[0].Fingerprint != recs[1].Fingerprint {
		t.Fatalf("duplicate requests journaled different fingerprints: %q vs %q",
			recs[0].Fingerprint, recs[1].Fingerprint)
	}
	for i, r := range recs[:2] {
		if !r.Replayable() || r.Scenario != "A1" || r.Seed != 9 || r.LatencyMs < 0 || r.T < 0 {
			t.Fatalf("record %d not replayable or malformed: %+v", i, r)
		}
	}
	if recs[1].T < recs[0].T {
		t.Fatalf("journal offsets not monotone: %f then %f", recs[0].T, recs[1].T)
	}
}

// TestRecordThenReplayDeterminism is the acceptance loop: record a
// loadgen run's journal, replay it against a fresh replica, and require
// the replay to reproduce the journal's distinct fingerprint set and
// dedup behaviour.
func TestRecordThenReplayDeterminism(t *testing.T) {
	path := filepath.Join(t.TempDir(), "req.journal")
	s, ts := newTestServer(t, serverOptions{MaxInflight: 32, JournalPath: path})
	orig, err := loadgen.Run([]string{ts.URL}, 4, loadgen.Mix(24, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if orig.Failed > 0 || orig.OK != 24 {
		t.Fatalf("recording run: %+v", orig)
	}
	if orig.Latency.Count != int64(orig.OK) || orig.Latency.MaxMs <= 0 {
		t.Fatalf("loadgen latency summary not populated: %+v", orig.Latency)
	}
	s.close()

	_, fresh := newTestServer(t, serverOptions{MaxInflight: 32})
	rep, err := replay(path, 1000, []string{fresh.URL}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 24 || rep.Failed > 0 {
		t.Fatalf("replay: %+v", rep)
	}
	if rep.JournalDistinct != 4 || rep.ServedDistinct != 4 || !rep.ReplayFingerprintsHit {
		t.Fatalf("replay did not reproduce the working set: journal=%d served=%d hit=%v missing=%v",
			rep.JournalDistinct, rep.ServedDistinct, rep.ReplayFingerprintsHit, rep.MissingFingerprints)
	}
	// Same mix against a fresh cache ⇒ the same dedup shape: one run per
	// distinct configuration, everything else served without simulating.
	if rep.Stats.Runs != 4 {
		t.Fatalf("replay ran %d simulations, want 4 (one per distinct config)", rep.Stats.Runs)
	}
	if rep.DedupRatio < orig.DedupRatio {
		t.Fatalf("replay dedup ratio %f < recording's %f", rep.DedupRatio, orig.DedupRatio)
	}
}

// TestReplayPreservesArrivalSpacing pins the replay scheduler: records
// journaled at offsets spanning 0.6s take at least that long to re-issue
// at speedup 1, and proportionally less when sped up.
func TestReplayPreservesArrivalSpacing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spaced.journal")
	w, err := godpm.OpenJournal(path, godpm.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, offset := range []float64{0, 0.3, 0.6} {
		err := w.Append(godpm.JournalRecord{
			T: offset, Endpoint: godpm.JournalEndpointSimulate,
			Scenario: "A1", Tasks: 3, Seed: int64(i + 1),
			Outcome: godpm.JournalOutcomeRun,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, serverOptions{MaxInflight: 8})
	t0 := time.Now()
	rep, err := replay(path, 1, []string{ts.URL}, 3)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 3 || rep.Failed > 0 {
		t.Fatalf("replay: %+v", rep)
	}
	// The last record must not fire before its 0.6s offset; the upper
	// bound is generous (scheduling + the requests themselves).
	if elapsed < 550*time.Millisecond {
		t.Fatalf("replay finished in %v — arrival spacing not preserved (last offset 0.6s)", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("replay took %v, far beyond the journal's 0.6s span", elapsed)
	}

	_, fresh := newTestServer(t, serverOptions{MaxInflight: 8})
	t0 = time.Now()
	if _, err := replay(path, 6, []string{fresh.URL}, 3); err != nil {
		t.Fatal(err)
	}
	if sped := time.Since(t0); sped >= 550*time.Millisecond {
		t.Fatalf("speedup 6 replay took %v, want well under the 0.6s real-time span", sped)
	}
}

// replay re-issues the journal at path against targets.
func replay(path string, speedup float64, targets []string, concurrency int) (loadgen.Report, error) {
	plan, err := loadgen.Replay(path, speedup)
	if err != nil {
		return loadgen.Report{}, err
	}
	return loadgen.Run(targets, concurrency, plan)
}

// TestStatszTournamentProgress pins the tournament progress gauges: the
// progress callback moves cells_done and the leader while a run is in
// flight, the end hook reclaims the run's cells, and a real tournament
// leaves the gauges at zero once its stream completes.
func TestStatszTournamentProgress(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{MaxInflight: 4})

	progress, end := s.tourStart(36)
	progress(9, 36, "dpm")
	st := getStatsz(t, ts.URL)
	if st.TournamentActive != 1 || st.TournamentCellsDone != 9 ||
		st.TournamentCellsTotal != 36 || st.TournamentLeader != "dpm" {
		t.Fatalf("mid-run gauges: active=%d done=%d total=%d leader=%q",
			st.TournamentActive, st.TournamentCellsDone, st.TournamentCellsTotal, st.TournamentLeader)
	}
	// A second concurrent run's cells add; its end subtracts only its own.
	progress2, end2 := s.tourStart(4)
	progress2(4, 4, "timeout")
	end2()
	st = getStatsz(t, ts.URL)
	if st.TournamentActive != 1 || st.TournamentCellsDone != 9 || st.TournamentCellsTotal != 36 {
		t.Fatalf("after 2nd run retired: active=%d done=%d total=%d",
			st.TournamentActive, st.TournamentCellsDone, st.TournamentCellsTotal)
	}
	end()
	st = getStatsz(t, ts.URL)
	if st.TournamentActive != 0 || st.TournamentCellsDone != 0 ||
		st.TournamentCellsTotal != 0 || st.TournamentLeader != "" {
		t.Fatalf("gauges not reclaimed: active=%d done=%d total=%d leader=%q",
			st.TournamentActive, st.TournamentCellsDone, st.TournamentCellsTotal, st.TournamentLeader)
	}

	// End to end: a finished tournament run leaves everything at zero too.
	resp, data := postJSON(t, ts.URL+"/v1/tournament",
		`{"tasks":10,"seeds":[1],"policies":["dpm","alwayson"],"scenarios":["steady"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	st = getStatsz(t, ts.URL)
	if st.TournamentActive != 0 || st.TournamentCellsDone != 0 || st.TournamentCellsTotal != 0 {
		t.Fatalf("post-run gauges not reclaimed: active=%d done=%d total=%d",
			st.TournamentActive, st.TournamentCellsDone, st.TournamentCellsTotal)
	}
}
