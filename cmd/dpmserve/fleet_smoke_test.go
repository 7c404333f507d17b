package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"godpm"
)

// fleetProc is one fleet binary the smoke test started; t.Cleanup kills
// and waits for it if the test did not stop it.
type fleetProc struct {
	cmd  *exec.Cmd
	url  string
	done chan error
	log  *bytes.Buffer
}

// startFleetProc starts bin with args, which must make it listen on an
// OS-picked port, and returns once its log names the address.
func startFleetProc(t *testing.T, bin string, args ...string) *fleetProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &fleetProc{cmd: cmd, done: make(chan error, 1), log: &bytes.Buffer{}}
	t.Cleanup(func() {
		select {
		case <-p.done:
		default:
			cmd.Process.Kill()
			<-p.done
		}
	})
	addr := make(chan string, 1)
	listening := regexp.MustCompile(`on (http://127\.0\.0\.1:\d+)`)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.log.WriteString(line + "\n")
			if m := listening.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
		p.done <- cmd.Wait()
	}()
	select {
	case p.url = <-addr:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s did not report its address", filepath.Base(bin))
	}
	return p
}

// stop sends SIGTERM and returns the process's exit error.
func (p *fleetProc) stop(t *testing.T) error {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.done:
		p.done <- err // let Cleanup see the process is gone
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not drain", filepath.Base(p.cmd.Path))
		return nil
	}
}

// getJSON decodes url's JSON body into v.
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

// TestFleetSmoke runs the real fleet: a dpmremote store and two dpmserve
// replicas sharing it. One replica warms the store, a round-robin stream
// over both then costs no simulation beyond the five distinct configs
// fleet-wide, the store holds only record containers and serves them
// verbatim, and killing the store fails no request.
func TestFleetSmoke(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "godpm/cmd/dpmserve", "godpm/cmd/dpmremote")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dpmserve, dpmremote := filepath.Join(bin, "dpmserve"), filepath.Join(bin, "dpmremote")
	storeDir := t.TempDir()
	store := startFleetProc(t, dpmremote, "-addr", "127.0.0.1:0", "-store", storeDir, "-drain-grace", "0")
	r1 := startFleetProc(t, dpmserve, "-addr", "127.0.0.1:0", "-remote-url", store.url, "-drain-grace", "0")
	r2 := startFleetProc(t, dpmserve, "-addr", "127.0.0.1:0", "-remote-url", store.url, "-drain-grace", "0")
	loadgen := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(dpmserve, append([]string{"-loadgen"}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("loadgen %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	type replicaStats struct {
		godpm.EngineStats
	}
	replicas := func() (runs, hits, lookups, remoteHits int64) {
		for _, r := range []*fleetProc{r1, r2} {
			var st replicaStats
			getJSON(t, r.url+"/statsz", &st)
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
	loadgen("-target", r1.url, "-requests", "20", "-distinct", "5", "-concurrency", "4", "-tasks", "10")
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st godpm.BlobServerStats
		getJSON(t, store.url+"/statsz", &st)
		if st.Store.Entries == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store holds %d entries, want the 5 warmed results", st.Store.Entries)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Round-robin the same stream across both replicas. 5 distinct configs
	// are coprime with 2 replicas, so the cold replica sees every one of
	// them — and must fetch, not simulate.
	_, hits0, lookups0, _ := replicas()
	loadgen("-replicas", r1.url+","+r2.url, "-requests", "40", "-distinct", "5", "-concurrency", "4", "-tasks", "10")
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
	// local caches cannot mask the dead remote). The loadgen exits
	// non-zero on any failed request.
	if err := store.stop(t); err != nil {
		t.Errorf("dpmremote drain: %v\n%s", err, store.log)
	}
	loadgen("-replicas", r1.url+","+r2.url, "-requests", "20", "-distinct", "5", "-concurrency", "4", "-tasks", "14")
	for _, r := range []*fleetProc{r1, r2} {
		if err := r.stop(t); err != nil {
			t.Errorf("dpmserve drain: %v\n%s", err, r.log)
		}
	}
}
