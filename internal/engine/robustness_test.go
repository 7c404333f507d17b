package engine_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"godpm/internal/engine"
	"godpm/internal/soc"
)

// TestDiskConcurrentCorruptHealing: two goroutines race a Get on the
// same corrupt disk slot. Both must miss without error, the delete must
// happen exactly once (occupancy reaches zero, not minus one), and a
// subsequent Put must re-fill the slot. Run under -race.
func TestDiskConcurrentCorruptHealing(t *testing.T) {
	dir := t.TempDir()
	key := strings.Repeat("ab", 16)
	if err := os.WriteFile(filepath.Join(dir, key+".rec"), []byte("}{ not a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := engine.NewDiskWith(dir, engine.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Entries != 1 {
		t.Fatalf("open scan found %d entries, want 1", st.Entries)
	}

	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
	)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, ok := d.Get(key); ok {
				t.Error("Get hit on a corrupt entry")
			}
		}()
	}
	close(start)
	wg.Wait()

	if st := d.Stats(); st.Entries != 0 {
		t.Fatalf("occupancy after racing heals = %d entries, want exactly 0 (exactly-once delete)", st.Entries)
	}
	if _, err := os.Stat(filepath.Join(dir, key+".rec")); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still present (stat err %v)", err)
	}

	res := &soc.Result{EnergyJ: 7.5, Completed: true}
	if err := d.Put(key, mustRecord(t, key, res)); err != nil {
		t.Fatalf("healing Put failed: %v", err)
	}
	got, ok := d.Get(key)
	if !ok || got.Digest() != engine.ResultDigest(res) {
		t.Fatal("slot did not re-fill after healing")
	}
	if st := d.Stats(); st.Entries != 1 {
		t.Fatalf("occupancy after re-fill = %d entries, want 1", st.Entries)
	}
}

// TestDiskSyncRoundtrip exercises the crash-consistent write path on the
// real filesystem: fsync'd temp, rename, directory sync.
func TestDiskSyncRoundtrip(t *testing.T) {
	d, err := engine.NewDiskWith(t.TempDir(), engine.DiskOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("cd", 16)
	res := &soc.Result{EnergyJ: 2.25, TasksDone: 4, Completed: true}
	if err := d.Put(key, mustRecord(t, key, res)); err != nil {
		t.Fatalf("synced Put: %v", err)
	}
	got, ok := d.Get(key)
	if !ok || got.Digest() != engine.ResultDigest(res) {
		t.Fatal("synced entry did not round-trip")
	}
}

// TestRemoteRejectsDigestMismatch: a body that decodes fine but does not
// match the digest the server vouched for is dropped, counted, and never
// returned — the end-to-end anti-poisoning check.
func TestRemoteRejectsDigestMismatch(t *testing.T) {
	key, res := computeResult(t, 5)
	blob := mustContainer(t, key, res)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Result-Digest", strings.Repeat("00", 32))
		w.Write(blob)
	}))
	defer ts.Close()

	remote := newRemote(t, engine.RemoteOptions{BaseURL: ts.URL, Timeout: time.Second, Retries: -1})
	if _, ok := remote.Get(key); ok {
		t.Fatal("Get returned a result whose digest the server contradicted")
	}
	st := remote.Stats()
	if st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
	if st.Errors == 0 || st.Misses == 0 {
		t.Fatalf("mismatch not booked as error+miss: %+v", st)
	}
}

// TestBlobServerDigests: GET responses carry the entry's digest, and a
// PUT whose body contradicts its claimed digest is refused with 422
// before it can poison the shared store.
func TestBlobServerDigests(t *testing.T) {
	ts, blob, store := blobServerForTest(t)
	key, res := computeResult(t, 6)
	if err := store.Put(key, mustRecord(t, key, res)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/blob/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Result-Digest"); got != engine.ResultDigest(res) {
		t.Fatalf("GET digest header = %q, want the entry's digest", got)
	}

	// A corrupted upload: a valid container, wrong claimed digest.
	other := strings.Repeat("ef", 16)
	body := mustContainer(t, other, res)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/blob/"+other, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", engine.RecordContentType)
	req.Header.Set("X-Result-Digest", strings.Repeat("11", 32))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched PUT got status %d, want 422", resp.StatusCode)
	}
	// Refused by the digest check, not for failing to decode.
	if !strings.Contains(string(msg), "digest") {
		t.Fatalf("mismatched PUT refused for the wrong reason: %q", msg)
	}
	if _, ok := store.Get(other); ok {
		t.Fatal("mismatched PUT reached the store")
	}
	if blob.Stats().PutRejects == 0 {
		t.Fatal("rejected PUT not counted")
	}

	// The honest client path (claimed digest matches) still works.
	remote := newRemote(t, engine.RemoteOptions{BaseURL: ts.URL})
	if err := remote.Put(other, mustRecord(t, other, res)); err != nil {
		t.Fatalf("honest Put refused: %v", err)
	}
	if _, ok := store.Get(other); !ok {
		t.Fatal("honest Put did not reach the store")
	}
}

// TestRemoteBreakerStateSurfaced: Stats exposes the breaker's
// condition — closed while healthy, open with trips/skips/time-to-retry
// once the threshold is crossed.
func TestRemoteBreakerStateSurfaced(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	remote := newRemote(t, engine.RemoteOptions{
		BaseURL: ts.URL, Timeout: time.Second, Retries: -1,
		FailureThreshold: 2, Cooldown: time.Hour,
	})
	if st := remote.Stats(); st.Breaker != "closed" || st.BreakerTrips != 0 {
		t.Fatalf("fresh client breaker = %+v, want closed with 0 trips", st)
	}

	key := strings.Repeat("ab", 32)
	for i := 0; i < 4; i++ {
		remote.Get(key)
	}
	st := remote.Stats()
	if st.Breaker != "open" {
		t.Fatalf("breaker = %q after threshold failures, want open", st.Breaker)
	}
	if st.BreakerTrips != 1 || st.BreakerFails < 2 || st.BreakerSkips == 0 {
		t.Fatalf("breaker counters = %+v, want 1 trip, >=2 fails, >0 skips", st)
	}
	if st.BreakerWaitMs <= 0 {
		t.Fatalf("BreakerWaitMs = %d while open, want > 0", st.BreakerWaitMs)
	}
}

// TestRemoteCloseAbortsBackoff: a draining client does not sit out its
// retry schedule — Close aborts in-flight backoff waits immediately.
func TestRemoteCloseAbortsBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "try later", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	remote := newRemote(t, engine.RemoteOptions{
		BaseURL: ts.URL, Timeout: time.Second,
		Retries: 3, RetryBackoff: time.Minute,
	})
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		remote.Get(strings.Repeat("ab", 32))
	}()
	time.Sleep(50 * time.Millisecond)
	remote.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Get still blocked 5s after Close; backoff wait was not aborted")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Get took %v, want prompt return after Close", elapsed)
	}
}
