package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"godpm"
)

func newTestServer(t *testing.T, opts serverOptions) (*server, *httptest.Server) {
	t.Helper()
	if opts.StoreDir == "" {
		opts.StoreDir = t.TempDir()
	}
	s, err := newServer(opts)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(s.close)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func do(t *testing.T, method, url string, body []byte) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// container encodes r as the record container a fleet replica PUTs.
func container(t *testing.T, key string, r *godpm.Result) []byte {
	t.Helper()
	rec, err := godpm.NewCacheRecord(key, r)
	if err != nil {
		t.Fatal(err)
	}
	data, err := rec.Encode(godpm.CodecRaw)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestProtocolRoundtrip(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{})
	key := strings.Repeat("ab", 32)
	blob := container(t, key, &godpm.Result{EnergyJ: 3.5, TasksDone: 7, Completed: true})

	if resp := do(t, http.MethodHead, ts.URL+"/v1/blob/"+key, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HEAD before PUT: status %d, want 404", resp.StatusCode)
	}
	if resp := do(t, http.MethodGet, ts.URL+"/v1/blob/"+key, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET before PUT: status %d, want 404", resp.StatusCode)
	}
	if resp := do(t, http.MethodPut, ts.URL+"/v1/blob/"+key, blob); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT: status %d, want 204", resp.StatusCode)
	}
	if resp := do(t, http.MethodHead, ts.URL+"/v1/blob/"+key, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD after PUT: status %d, want 200", resp.StatusCode)
	}
	resp := do(t, http.MethodGet, ts.URL+"/v1/blob/"+key, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after PUT: status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-gdpm-record" {
		t.Fatalf("GET Content-Type %q, want the record container type", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := godpm.DecodeCacheRecord(body)
	if err != nil {
		t.Fatalf("decode GET body: %v", err)
	}
	got, err := rec.Result()
	if err != nil {
		t.Fatalf("decode GET body: %v", err)
	}
	if got.EnergyJ != 3.5 || got.TasksDone != 7 || !got.Completed {
		t.Fatalf("roundtripped result = %+v", got)
	}

	st := s.blob.Stats()
	if st.Puts != 1 || st.GetHits != 1 || st.HeadHits != 1 || st.Store.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 put / 1 get hit / 1 head hit / 1 entry", st)
	}
}

func TestProtocolRefusals(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{MaxBlob: 256})
	key := strings.Repeat("cd", 32)

	if resp := do(t, http.MethodGet, ts.URL+"/v1/blob/"+strings.Repeat("G", 64), nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid fingerprint: status %d, want 400", resp.StatusCode)
	}
	if resp := do(t, http.MethodPut, ts.URL+"/v1/blob/"+key, []byte("not a record")); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("undecodable PUT: status %d, want 422", resp.StatusCode)
	}
	big := bytes.Repeat([]byte("x"), 1024)
	if resp := do(t, http.MethodPut, ts.URL+"/v1/blob/"+key, big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized PUT: status %d, want 413", resp.StatusCode)
	}
	if resp := do(t, http.MethodDelete, ts.URL+"/v1/blob/"+key, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: status %d, want 405", resp.StatusCode)
	}
	if resp := do(t, http.MethodGet, ts.URL+"/v1/stat", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET stat: status %d, want 405", resp.StatusCode)
	}
	// The refused PUTs must not have stored anything.
	if resp := do(t, http.MethodHead, ts.URL+"/v1/blob/"+key, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused PUT left an entry behind")
	}
}

// TestOverlongRawLenRefused: a container whose checksum and lengths check
// out but whose header claims 1 GiB of raw bytes from a small flate body
// is refused with 422 before anything allocates the claimed length.
func TestOverlongRawLenRefused(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	key := strings.Repeat("ab", 32)
	blob := container(t, key, &godpm.Result{EnergyJ: 1})
	binary.LittleEndian.PutUint32(blob[12:16], 1<<30) // the raw-length field
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp := do(t, http.MethodPut, ts.URL+"/v1/blob/"+key, blob)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("overlong raw-length PUT: status %d, want 422", resp.StatusCode)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("refusing the PUT allocated %d MiB", grew>>20)
	}
	if resp := do(t, http.MethodHead, ts.URL+"/v1/blob/"+key, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refused PUT left an entry behind")
	}
}

func TestStatBatch(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{})
	present := strings.Repeat("ef", 32)
	absent := strings.Repeat("01", 32)
	blob := container(t, present, &godpm.Result{})
	if resp := do(t, http.MethodPut, ts.URL+"/v1/blob/"+present, blob); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT: status %d", resp.StatusCode)
	}

	body, _ := json.Marshal(map[string]any{"keys": []string{present, absent, "bogus"}})
	resp := do(t, http.MethodPost, ts.URL+"/v1/stat", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stat: status %d, want 200", resp.StatusCode)
	}
	var sr struct {
		Present []string `json:"present"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Present) != 1 || sr.Present[0] != present {
		t.Fatalf("stat present = %v, want exactly [%s]", sr.Present, present)
	}
}

func TestHealthzFlipsWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, serverOptions{})
	if resp := do(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", resp.StatusCode)
	}
	s.draining.Store(true)
	if resp := do(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", resp.StatusCode)
	}
	// The protocol keeps serving while healthz steers routers away.
	if resp := do(t, http.MethodGet, ts.URL+"/v1/blob/"+strings.Repeat("ab", 32), nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("draining GET: status %d, want 404 (still served)", resp.StatusCode)
	}
}

func TestStatszReportsCounters(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{MaxInflight: 7})
	do(t, http.MethodGet, ts.URL+"/v1/blob/"+strings.Repeat("ab", 32), nil)

	resp := do(t, http.MethodGet, ts.URL+"/statsz", nil)
	var st statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Gets != 1 || st.MaxInflight != 7 {
		t.Fatalf("statsz = %+v, want 1 get and max_inflight 7", st)
	}
}

func TestAdmissionRefusesExcessLoad(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{MaxInflight: 1})
	key := strings.Repeat("ab", 32)

	// Occupy the single slot with a PUT whose body stalls mid-transfer.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/blob/"+key, pr)
	if err != nil {
		t.Fatal(err)
	}
	blob := container(t, key, &godpm.Result{})
	done := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			done <- resp
		} else {
			done <- nil
		}
	}()
	// Pipe writes block until the transport reads them, so this cannot
	// run before Do is in flight.
	if _, err := pw.Write(blob[:4]); err != nil {
		t.Fatal(err)
	}

	// With the slot held, the next request is refused with 429.
	var saw429 bool
	for i := 0; i < 200 && !saw429; i++ {
		resp := do(t, http.MethodGet, ts.URL+"/v1/blob/"+key, nil)
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("429 without Retry-After")
			}
			saw429 = true
		}
	}
	if !saw429 {
		t.Fatalf("no request was refused while the only slot was held")
	}

	// Finish the stalled upload; the slot frees and service resumes.
	pw.Write(blob[4:])
	pw.Close()
	if resp := <-done; resp == nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("stalled PUT did not complete cleanly: %v", resp)
	}
	if resp := do(t, http.MethodHead, ts.URL+"/v1/blob/"+key, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD after freed slot: status %d, want 200", resp.StatusCode)
	}
}

// TestStatszV2Envelope checks the shared observability schema on the
// store side: version/service/start identity, per-endpoint-class latency
// sketches fed by the admit wrapper, and the rolling rate family.
func TestStatszV2Envelope(t *testing.T) {
	_, ts := newTestServer(t, serverOptions{RateInterval: 10 * time.Millisecond})
	key := strings.Repeat("ab", 32)
	blob := container(t, key, &godpm.Result{EnergyJ: 1, Completed: true})
	if resp := do(t, http.MethodPut, ts.URL+"/v1/blob/"+key, blob); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT: status %d", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		if resp := do(t, http.MethodGet, ts.URL+"/v1/blob/"+key, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET: status %d", resp.StatusCode)
		}
	}
	time.Sleep(40 * time.Millisecond) // let the rate sampler observe the counters

	resp := do(t, http.MethodGet, ts.URL+"/statsz", nil)
	var st statszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Version != statszVersion || st.Service != "dpmremote" || st.StartUnixMs <= 0 {
		t.Fatalf("envelope = v%d %q start=%d, want v%d dpmremote with a start time",
			st.Version, st.Service, st.StartUnixMs, statszVersion)
	}
	if got := st.Latency["blob_put"].Count; got != 1 {
		t.Fatalf("latency[blob_put].count = %d, want 1", got)
	}
	if got := st.Latency["blob_get"].Count; got != 2 {
		t.Fatalf("latency[blob_get].count = %d, want 2", got)
	}
	if _, ok := st.Latency["stat"]; ok {
		t.Fatal("latency[stat] present with no stat traffic")
	}
	if _, ok := st.RatesPerS["gets"]; !ok {
		t.Fatalf("rates_per_s missing gets counter: %v", st.RatesPerS)
	}
}
