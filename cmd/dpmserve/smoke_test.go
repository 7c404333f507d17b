package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"godpm"
)

// The smoke tests run the real binaries: dpmserve, dpmremote, dpmtop and
// dpmload, built once per package run into a directory TestMain removes.
var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// bin returns the path of the named fleet binary, building all four on
// first use.
func bin(t *testing.T, name string) string {
	t.Helper()
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "dpmfleet"); buildErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator),
			"godpm/cmd/dpmserve", "godpm/cmd/dpmremote", "godpm/cmd/dpmtop", "godpm/cmd/dpmload").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(binDir, name)
}

// fleetProc is one binary a smoke test started; t.Cleanup kills and
// waits for it if the test did not see it exit. Read stdout and log (its
// stderr) only after wait or stop returned.
type fleetProc struct {
	cmd    *exec.Cmd
	url    string
	done   chan error
	addr   chan string
	stdout bytes.Buffer
	log    bytes.Buffer
}

var listening = regexp.MustCompile(`on (http://127\.0\.0\.1:\d+)`)

// startProc starts bin with args.
func startProc(t *testing.T, bin string, args ...string) *fleetProc {
	t.Helper()
	p := &fleetProc{cmd: exec.Command(bin, args...), done: make(chan error, 1), addr: make(chan string, 1)}
	p.cmd.Stdout = &p.stdout
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		select {
		case <-p.done:
		default:
			p.cmd.Process.Kill()
			<-p.done
		}
	})
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.log.WriteString(line + "\n")
			if m := listening.FindStringSubmatch(line); m != nil {
				select {
				case p.addr <- m[1]:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
		p.done <- p.cmd.Wait()
	}()
	return p
}

// startFleetProc starts a server binary with args, which must make it
// listen on an OS-picked port or a free one, and returns once its log
// names the address.
func startFleetProc(t *testing.T, bin string, args ...string) *fleetProc {
	t.Helper()
	p := startProc(t, bin, args...)
	select {
	case p.url = <-p.addr:
	case err := <-p.done:
		p.done <- err
		t.Fatalf("%s exited before it listened: %v\n%s", filepath.Base(bin), err, &p.log)
	case <-time.After(20 * time.Second):
		t.Fatalf("%s did not report its address", filepath.Base(bin))
	}
	return p
}

// wait waits for the process to exit and returns its exit error.
func (p *fleetProc) wait(t *testing.T) error {
	t.Helper()
	select {
	case err := <-p.done:
		p.done <- err // let Cleanup and later waits see the process is gone
		return err
	case <-time.After(60 * time.Second):
		t.Fatalf("%s did not exit", filepath.Base(p.cmd.Path))
		return nil
	}
}

// stop sends SIGTERM and returns the process's exit error.
func (p *fleetProc) stop(t *testing.T) error {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	return p.wait(t)
}

// requireDrain stops each process with SIGTERM and requires exit 0
// within the process's -drain-grace plus 1 s.
func requireDrain(t *testing.T, procs ...*fleetProc) {
	t.Helper()
	for _, p := range procs {
		t0 := time.Now()
		err := p.stop(t)
		took := time.Since(t0)
		if err != nil {
			t.Errorf("%s drain: %v\n%s", filepath.Base(p.cmd.Path), err, &p.log)
		}
		if limit := p.drainGrace(t) + time.Second; took > limit {
			t.Errorf("%s drain took %v, want at most %v", filepath.Base(p.cmd.Path), took.Round(time.Millisecond), limit)
		}
	}
}

// drainGrace returns the -drain-grace the process was started with, or
// the servers' 2 s default.
func (p *fleetProc) drainGrace(t *testing.T) time.Duration {
	t.Helper()
	args := p.cmd.Args
	for i, a := range args {
		if a == "-drain-grace" && i+1 < len(args) {
			d, err := time.ParseDuration(args[i+1])
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	return 2 * time.Second
}

// TestDrainClosesUnusedConnections: a connection that never sends a
// request does not hold a server's drain. net/http's Shutdown alone
// counts such a connection as active until it is 5 s old; a client
// transport's spare connection used to stall a store's drain that long.
func TestDrainClosesUnusedConnections(t *testing.T) {
	for _, srv := range []*fleetProc{
		startFleetProc(t, bin(t, "dpmserve"), "-addr", "127.0.0.1:0", "-drain-grace", "0"),
		startFleetProc(t, bin(t, "dpmremote"), "-addr", "127.0.0.1:0", "-store", t.TempDir(), "-drain-grace", "0"),
	} {
		conn, err := net.Dial("tcp", strings.TrimPrefix(srv.url, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// The server accepts connections in order, so once a request on a
		// second, fresh connection is answered, the first is accepted and
		// waiting for a request that never comes.
		fresh := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
		resp, err := fresh.Get(srv.url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		requireDrain(t, srv)
	}
}

// dpmload runs dpmload with args to completion and returns its report.
// It fails the test unless dpmload exits 0 with nothing on stderr: an exit
// 0 means no request failed and no response was poisoned.
func dpmload(t *testing.T, args ...string) string {
	t.Helper()
	p := startProc(t, bin(t, "dpmload"), args...)
	if err := p.wait(t); err != nil || p.log.Len() > 0 {
		t.Fatalf("dpmload %s: %v\n%s%s", strings.Join(args, " "), err, &p.stdout, &p.log)
	}
	return p.stdout.String()
}

var (
	servedLine = regexp.MustCompile(`(?m)^loadgen: (\d+) requests → (\d+) ok, \d+ retried \(429\), (\d+) failed$`)
	dedupLine  = regexp.MustCompile(`(?m)^served without simulation: \d+/\d+ \(ratio ([0-9.]+)\)$`)
	replayLine = regexp.MustCompile(`(?m)^replay: (\d+) records re-issued \((\d+) skipped\), fingerprints served (\d+)/(\d+)$`)
)

// requireServed checks a dpmload report: all n requests answered, none
// failed, and at least minDedup of them served without simulation.
func requireServed(t *testing.T, report string, n int, minDedup float64) {
	t.Helper()
	m := servedLine.FindStringSubmatch(report)
	if want := strconv.Itoa(n); m == nil || m[1] != want || m[2] != want || m[3] != "0" {
		t.Fatalf("report does not show %d requests, all ok:\n%s", n, report)
	}
	d := dedupLine.FindStringSubmatch(report)
	if d == nil {
		t.Fatalf("report has no dedup line:\n%s", report)
	}
	if ratio, _ := strconv.ParseFloat(d[1], 64); ratio < minDedup {
		t.Errorf("served %.3f without simulation, want ≥ %.3f:\n%s", ratio, minDedup, report)
	}
}

// getJSON decodes url's JSON body into v, requiring a 200.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// poll calls cond until it holds, failing the test after ten seconds.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// remoteTier returns the remote tier's counters from a replica's /statsz.
func remoteTier(t *testing.T, url string) godpm.TierStats {
	t.Helper()
	for _, tier := range getStatsz(t, url).Tiers {
		if tier.Tier == godpm.TierRemote {
			return tier
		}
	}
	t.Fatalf("%s reports no remote tier", url)
	return godpm.TierStats{}
}

// TestLoadClientExitCodes: dpmload refuses a non-positive -speedup as a
// flag error (exit 2) and exits 1 when its requests fail.
func TestLoadClientExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		says string
	}{
		{[]string{"-speedup", "0"}, 2, "-speedup must be > 0"},
		{[]string{"-targets", "http://127.0.0.1:1", "-requests", "2"}, 1, "statsz"},
	} {
		p := startProc(t, bin(t, "dpmload"), tc.args...)
		p.wait(t)
		if code := p.cmd.ProcessState.ExitCode(); code != tc.code || !strings.Contains(p.log.String(), tc.says) {
			t.Errorf("dpmload %s: exit %d, stderr %q, want exit %d saying %q", strings.Join(tc.args, " "), code, &p.log, tc.code, tc.says)
		}
	}
}

// TestServeSmoke runs one dpmserve with a small in-flight and cache
// bound: it answers a simulation and a tournament, serves a
// duplicate-heavy stream mostly without simulating, keeps its cache
// within 8 entries under a distinct-heavy one, refuses oversized
// workloads with 422 and stays healthy, and drains cleanly on SIGTERM.
func TestServeSmoke(t *testing.T) {
	srv := startFleetProc(t, bin(t, "dpmserve"), "-addr", "127.0.0.1:0", "-max-inflight", "8", "-cache-entries", "8", "-drain-grace", "0")

	resp, body := postJSON(t, srv.url+"/v1/simulate", `{"scenario":"A1","tasks":20}`)
	var sim simulateResponse
	if err := json.Unmarshal(body, &sim); resp.StatusCode != http.StatusOK || err != nil || sim.Digest == "" || sim.TasksDone != 20 {
		t.Fatalf("simulate A1: status %d, %v, body %s", resp.StatusCode, err, body)
	}
	resp, body = postJSON(t, srv.url+"/v1/tournament",
		`{"tasks":10,"seeds":[1],"policies":["dpm","alwayson"],"scenarios":["steady"]}`)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" || len(lines) != 3 {
		t.Fatalf("tournament: status %d, %d lines, want 200 with two rows and a trailer:\n%s", resp.StatusCode, len(lines), body)
	}
	for i, line := range lines {
		var row struct {
			Done   *bool  `json:"done"`
			Policy string `json:"policy"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("tournament line %d is not JSON: %v\n%s", i, err, line)
		}
		if last := i == len(lines)-1; last != (row.Done != nil) || last && !*row.Done {
			t.Fatalf("tournament line %d: %s, want rows then a done trailer", i, line)
		}
	}

	requireServed(t, dpmload(t, "-targets", srv.url, "-requests", "40", "-distinct", "4", "-concurrency", "8", "-tasks", "10"), 40, 0.5)
	if st := getStatsz(t, srv.url); st.CacheEntries > 8 {
		t.Errorf("duplicate-heavy stream: cache_entries %d > 8", st.CacheEntries)
	}
	requireServed(t, dpmload(t, "-targets", srv.url, "-requests", "32", "-distinct", "16", "-concurrency", "8", "-tasks", "12"), 32, 0)
	if st := getStatsz(t, srv.url); st.CacheEntries > 8 {
		t.Errorf("distinct-heavy stream: cache_entries %d > 8", st.CacheEntries)
	}

	// A workload whose size would exhaust the process, a horizon whose
	// sample grid would hold a worker for days, and a tournament whose
	// replicates would generate 5·2²⁰ tasks are refused as the client's
	// fault, and the server stays healthy.
	for what, req := range map[string]struct{ path, body string }{
		"2^62 tasks": {"/v1/simulate", `{"config":{"IPs":[{"Gen":{"Kind":"closed","Closed":{"Seed":3,"NumTasks":4611686018427387904,"MeanInstructions":100000}}}]}}`},
		"2^62 ps sampled every 1 µs": {"/v1/simulate", `{"config":{"IPs":[{"Gen":{"Kind":"closed","Closed":{"Seed":3,"NumTasks":2,"MeanInstructions":100000}}}],` +
			`"Horizon":4611686018427387904,"SampleInterval":1000000}}`},
		"5 seeds of 2^20 tasks": {"/v1/tournament", `{"tasks":1048576,"seeds":[1,2,3,4,5],"scenarios":["steady"]}`},
	} {
		resp, msg := postJSON(t, srv.url+req.path, req.body)
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "exceeds the cap") {
			t.Errorf("%s: status %d (%s), want 422 naming the cap", what, resp.StatusCode, bytes.TrimSpace(msg))
		}
		var health struct{ Status string }
		getJSON(t, srv.url+"/healthz", &health)
		if health.Status != "ok" {
			t.Errorf("after %s: healthz status %q", what, health.Status)
		}
	}

	var st statszResponse
	getJSON(t, srv.url+"/statsz", &st)
	requireDrain(t, srv)
	if !strings.Contains(srv.log.String(), "drained cleanly") {
		t.Errorf("dpmserve did not log a clean drain:\n%s", &srv.log)
	}
}

// TestObservabilitySmoke records a stream's request journal behind a
// store, replays it at speedup 100 against a fresh replica, which must
// serve every journal fingerprint again, and reads both services through
// dpmtop's snapshot mode.
func TestObservabilitySmoke(t *testing.T) {
	dpmserve := bin(t, "dpmserve")
	journal := filepath.Join(t.TempDir(), "obs.journal")
	store := startFleetProc(t, bin(t, "dpmremote"), "-addr", "127.0.0.1:0", "-store", t.TempDir(), "-drain-grace", "0")
	recorder := startFleetProc(t, dpmserve, "-addr", "127.0.0.1:0", "-remote-url", store.url, "-journal", journal, "-drain-grace", "0")
	requireServed(t, dpmload(t, "-targets", recorder.url, "-requests", "40", "-distinct", "4", "-concurrency", "8", "-tasks", "10"), 40, 0.5)
	// Drain the recorder so the journal is cleanly closed.
	requireDrain(t, recorder)

	fresh := startFleetProc(t, dpmserve, "-addr", "127.0.0.1:0", "-remote-url", store.url, "-drain-grace", "0")
	report := dpmload(t, "-targets", fresh.url, "-replay", journal, "-speedup", "100", "-concurrency", "8")
	requireServed(t, report, 40, 0.5)
	m := replayLine.FindStringSubmatch(report)
	if m == nil || m[1] != "40" || m[2] != "0" || m[3] != "4" || m[4] != "4" {
		t.Fatalf("replay did not re-issue all 40 records and serve the journal's 4 fingerprints:\n%s", report)
	}

	top := startProc(t, bin(t, "dpmtop"), "-once", "-json", "-targets", fresh.url+","+store.url)
	if err := top.wait(t); err != nil {
		t.Fatalf("dpmtop: %v\n%s", err, &top.log)
	}
	var snap struct {
		Targets []struct {
			Statsz struct {
				Version int                      `json:"version"`
				Service string                   `json:"service"`
				Hits    int64                    `json:"hits"`
				Latency map[string]godpm.Latency `json:"latency"`
			} `json:"statsz"`
		} `json:"targets"`
	}
	if err := json.Unmarshal(top.stdout.Bytes(), &snap); err != nil || len(snap.Targets) != 2 {
		t.Fatalf("dpmtop -once -json: %v, want 2 targets:\n%s", err, &top.stdout)
	}
	services := map[string]bool{}
	for _, target := range snap.Targets {
		st := target.Statsz
		services[st.Service] = true
		if st.Version != 2 {
			t.Errorf("%s reports /statsz version %d, want 2", st.Service, st.Version)
		}
		if st.Service != "dpmserve" {
			continue
		}
		if st.Hits <= 0 {
			t.Errorf("replayed traffic produced %d cache hits", st.Hits)
		}
		if lat := st.Latency[godpm.JournalEndpointSimulate]; lat.Count <= 0 || lat.P99Ms < lat.P50Ms {
			t.Errorf("simulate latency %+v, want a count and p99 ≥ p50", lat.LatencySummary)
		}
	}
	if !services["dpmserve"] || !services["dpmremote"] {
		t.Errorf("dpmtop saw services %v, want dpmserve and dpmremote", services)
	}
	requireDrain(t, fresh, store)
}

// TestChaosSmoke runs a replica and its store under seeded faults on
// every seam (store filesystem, replica memory tier, transport): no
// request may fail and no response may contradict another for its key.
// A second replica then reads the faulted store's results, so a remote
// hit that disagreed with the first replica's result would show up as a
// poisoned response.
func TestChaosSmoke(t *testing.T) {
	dpmserve := bin(t, "dpmserve")
	store := startFleetProc(t, bin(t, "dpmremote"), "-addr", "127.0.0.1:0", "-store", t.TempDir(), "-chaos-seed", "42", "-drain-grace", "0")
	replica := startFleetProc(t, dpmserve, "-addr", "127.0.0.1:0", "-remote-url", store.url, "-chaos-seed", "7", "-drain-grace", "0")
	requireServed(t, dpmload(t, "-targets", replica.url, "-requests", "120", "-distinct", "6", "-concurrency", "8", "-tasks", "12"), 120, 0.5)

	poll(t, "the store's first result", func() bool {
		var st godpm.BlobServerStats
		getJSON(t, store.url+"/statsz", &st)
		return st.Store.Entries > 0
	})
	second := startFleetProc(t, dpmserve, "-addr", "127.0.0.1:0", "-remote-url", store.url, "-drain-grace", "0")
	requireServed(t, dpmload(t, "-targets", replica.url+","+second.url, "-requests", "40", "-distinct", "5", "-concurrency", "8", "-tasks", "12"), 40, 0.5)
	if hits := remoteTier(t, second.url).Hits; hits < 1 {
		t.Errorf("the second replica got %d remote hits, want ≥ 1", hits)
	}
	requireDrain(t, replica, second, store)
}

// TestCrashRecoverySmoke SIGKILLs the store in the middle of a PUT storm
// (a replica fails open, so the stream still succeeds), restarts it on
// the same directory, and checks that the open scan left no temp file,
// that the healed store accepts write-behind results, and that it serves
// them to a fresh replica.
func TestCrashRecoverySmoke(t *testing.T) {
	dpmserve, dpmremote, dir := bin(t, "dpmserve"), bin(t, "dpmremote"), t.TempDir()
	store := startFleetProc(t, dpmremote, "-addr", "127.0.0.1:0", "-store", dir, "-drain-grace", "0")
	old := startFleetProc(t, dpmserve, "-addr", "127.0.0.1:0", "-remote-url", store.url, "-drain-grace", "0")

	storm := startProc(t, bin(t, "dpmload"), "-targets", old.url, "-requests", "60", "-distinct", "20", "-concurrency", "8", "-tasks", "10")
	poll(t, "the store's first PUT", func() bool {
		var st godpm.BlobServerStats
		getJSON(t, store.url+"/statsz", &st)
		return st.Puts > 0
	})
	select {
	case err := <-storm.done:
		storm.done <- err
		t.Fatalf("dpmload finished before the store was killed: %v\n%s", err, &storm.stdout)
	default:
	}
	store.cmd.Process.Kill()
	store.wait(t) // exits "signal: killed", as it should
	if err := storm.wait(t); err != nil {
		t.Fatalf("the stream failed when the store died: %v\n%s%s", err, &storm.stdout, &storm.log)
	}

	// Restart the store where the replica expects it. Its open scan must
	// sweep every temp the killed store left; a temp seen afterwards can
	// only be a PUT the replica is writing into the new store.
	temps := func() map[string]bool {
		names, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
		set := map[string]bool{}
		for _, name := range names {
			set[name] = true
		}
		return set
	}
	crashed := temps()
	store = startFleetProc(t, dpmremote, "-addr", strings.TrimPrefix(store.url, "http://"), "-store", dir, "-drain-grace", "0")
	for name := range temps() {
		if crashed[name] {
			t.Errorf("the reopened store left the crashed writer's %s", filepath.Base(name))
		}
	}

	// A fresh fingerprint stream (11 tasks) through the old replica, once
	// its breaker lets it reach the store again, must land in the healed
	// store.
	poll(t, "the old replica's remote breaker to close", func() bool { return remoteTier(t, old.url).Breaker != "open" })
	requireServed(t, dpmload(t, "-targets", old.url, "-requests", "40", "-distinct", "20", "-concurrency", "8", "-tasks", "11"), 40, 0)
	var keys []string
	for seed := int64(1); seed <= 20; seed++ {
		tu := godpm.DefaultTuning()
		tu.NumTasks, tu.Seed = 11, seed
		sc, err := godpm.ResolveScenario("A1", tu)
		if err != nil {
			t.Fatal(err)
		}
		key, err := godpm.Fingerprint(sc.Config)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	poll(t, "the store to hold the 20 results", func() bool {
		for _, key := range keys {
			resp, err := http.Head(store.url + "/v1/blob/" + key)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return false
			}
		}
		return true
	})

	// The same stream through a fresh replica is served from the store.
	fresh := startFleetProc(t, dpmserve, "-addr", "127.0.0.1:0", "-remote-url", store.url, "-cache-entries", "4", "-drain-grace", "0")
	requireServed(t, dpmload(t, "-targets", fresh.url, "-requests", "40", "-distinct", "20", "-concurrency", "8", "-tasks", "11"), 40, 0.5)
	if hits := remoteTier(t, fresh.url).Hits; hits < 1 {
		t.Errorf("the fresh replica got %d remote hits, want ≥ 1", hits)
	}
	requireDrain(t, old, fresh, store)
	if left := temps(); len(left) > 0 {
		t.Errorf("temps left after every process drained: %v", left)
	}
}

// TestFleetSmoke runs the real fleet: a dpmremote store and two dpmserve
// replicas sharing it. One replica warms the store, a round-robin stream
// over both then costs no simulation beyond the five distinct configs
// fleet-wide, the store holds only record containers and serves them
// verbatim, and killing the store fails no request.
func TestFleetSmoke(t *testing.T) {
	dpmserve := bin(t, "dpmserve")
	storeDir := t.TempDir()
	store := startFleetProc(t, bin(t, "dpmremote"), "-addr", "127.0.0.1:0", "-store", storeDir, "-drain-grace", "0")
	r1 := startFleetProc(t, dpmserve, "-addr", "127.0.0.1:0", "-remote-url", store.url, "-drain-grace", "0")
	r2 := startFleetProc(t, dpmserve, "-addr", "127.0.0.1:0", "-remote-url", store.url, "-drain-grace", "0")
	replicas := func() (runs, hits, lookups, remoteHits int64) {
		for _, r := range []*fleetProc{r1, r2} {
			st := getStatsz(t, r.url)
			runs += st.Runs
			hits += st.Hits
			lookups += st.Hits + st.Misses
			for _, tier := range st.Tiers {
				if tier.Tier == godpm.TierRemote {
					remoteHits += tier.Hits
				}
			}
		}
		return runs, hits, lookups, remoteHits
	}

	// Warm the fleet store through replica 1 only, and wait until the
	// write-behind queue has replicated all five results.
	dpmload(t, "-targets", r1.url, "-requests", "20", "-distinct", "5", "-concurrency", "4", "-tasks", "10")
	poll(t, "the store to hold the 5 warmed results", func() bool {
		var st godpm.BlobServerStats
		getJSON(t, store.url+"/statsz", &st)
		return st.Store.Entries == 5
	})

	// Round-robin the same stream across both replicas. 5 distinct configs
	// are coprime with 2 replicas, so the cold replica sees every one of
	// them — and must fetch, not simulate.
	_, hits0, lookups0, _ := replicas()
	dpmload(t, "-targets", r1.url+","+r2.url, "-requests", "40", "-distinct", "5", "-concurrency", "4", "-tasks", "10")
	runs, hits, lookups, remoteHits := replicas()
	if runs != 5 {
		t.Errorf("%d simulations fleet-wide, want 5 (one per distinct config)", runs)
	}
	if dedup := float64(hits-hits0) / float64(lookups-lookups0); dedup < 0.5 {
		t.Errorf("round-robin stream served %.3f without simulation, want ≥ 0.5", dedup)
	}
	if remoteHits < 1 {
		t.Errorf("remote tier served %d hits, want ≥ 1", remoteHits)
	}

	// One format on disk and on the wire: the store holds only record
	// containers, and a plain GET answers with one.
	entries, err := os.ReadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("the store directory is empty")
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".rec") {
			t.Errorf("store holds %s, not a .rec record container", e.Name())
		}
	}
	key := strings.TrimSuffix(entries[0].Name(), ".rec")
	resp, err := http.Get(store.url + "/v1/blob/" + key)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/x-gdpm-record" {
		t.Errorf("GET blob: status %d, Content-Type %q, want 200 application/x-gdpm-record", resp.StatusCode, ct)
	}
	if !bytes.HasPrefix(body, []byte("GDPM")) {
		t.Errorf("GET blob body starts %q, want the GDPM magic", body[:min(4, len(body))])
	}

	// Kill the store mid-service: the replicas degrade to their local
	// tiers with zero failed requests (fresh fingerprints via -tasks, so
	// local caches cannot mask the dead remote). dpmload exits non-zero
	// on any failed request.
	requireDrain(t, store)
	dpmload(t, "-targets", r1.url+","+r2.url, "-requests", "20", "-distinct", "5", "-concurrency", "4", "-tasks", "14")
	requireDrain(t, r1, r2)
}
