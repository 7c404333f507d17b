package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"godpm"
	"godpm/internal/soc"
	"godpm/internal/workload"
)

// The HTTP boundary's fuzz targets feed raw request bodies to the
// server's handler. Whatever the bytes, the server must not panic, must
// answer with a status a client's input may cause (a 500 is a server
// fault), and must go on answering /healthz with 200. A request it would
// run at more than a small size is skipped, so one input costs
// milliseconds; a request over the model's caps is still sent, since the
// server refuses it before generating anything. The committed corpora
// (testdata/fuzz) hold the 2⁶²-task and 2⁶²-ps-horizon simulate bodies,
// the 5 × 2²⁰-task tournament, named requests and one inline config per
// workload generator kind.

const (
	// fuzzMaxTasks bounds the tasks of a simulate request the harness
	// lets run: an inline config's total, or a named request's tuning
	// (Table 2's B runs four IPs of it).
	fuzzMaxTasks = 500
	// fuzzMaxCells and fuzzMaxCellTasks bound a tournament the harness
	// lets run: its cells, and the tasks of each scenario.
	fuzzMaxCells     = 32
	fuzzMaxCellTasks = 64
)

// fuzzHandler builds the server a fuzz target drives.
func fuzzHandler(f *testing.F) http.Handler {
	s, err := newServer(serverOptions{Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.close)
	return s.handler()
}

// serveFuzz sends one request to h and returns the recorded response.
func serveFuzz(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return w
}

// requireClientStatus fails a response whose status no client input may
// cause, and a server that stops answering /healthz with 200 after it.
func requireClientStatus(t *testing.T, h http.Handler, w *httptest.ResponseRecorder) {
	t.Helper()
	switch w.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusTooManyRequests:
	default:
		t.Fatalf("status %d: %s", w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	if hz := serveFuzz(h, http.MethodGet, "/healthz", nil); hz.Code != http.StatusOK {
		t.Fatalf("/healthz answers %d after the request", hz.Code)
	}
}

// decodeLikeServer decodes body as decodeJSON does: one JSON value,
// unknown fields refused.
func decodeLikeServer(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// simulateTooBig reports whether the server would run req at more than
// fuzzMaxTasks tasks.
func simulateTooBig(req simulateRequest) bool {
	if req.Config == nil {
		n := tuningOf(req).NumTasks
		return n > fuzzMaxTasks && n <= workload.MaxTasks
	}
	n := req.Config.Tasks()
	if n <= fuzzMaxTasks || n > soc.MaxTotalTasks {
		return false
	}
	for _, ip := range req.Config.IPs {
		if ip.Gen.NumTasks() > workload.MaxTasks {
			return false
		}
	}
	return true
}

// FuzzSimulateRequest: a 200 also carries the digest of a solo run of the
// config the request resolves to.
func FuzzSimulateRequest(f *testing.F) {
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req simulateRequest
		decoded := decodeLikeServer(body, &req) == nil
		if decoded && simulateTooBig(req) {
			t.Skip("over the harness's task bound")
		}
		w := serveFuzz(h, http.MethodPost, "/v1/simulate", body)
		requireClientStatus(t, h, w)
		if w.Code != http.StatusOK {
			return
		}
		var resp simulateResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body: %v: %s", err, w.Body)
		}
		cfg, _, err := resolveConfig(req)
		if !decoded || err != nil {
			t.Fatalf("200 for a request that does not resolve (decoded %v): %v", decoded, err)
		}
		r, err := godpm.RunWith(context.Background(), cfg, godpm.RunOptions{})
		if err != nil {
			t.Fatalf("200 for a config a solo run refuses: %v", err)
		}
		if want := godpm.ResultDigest(r); resp.Digest != want {
			t.Fatalf("digest %s, a solo run's %s", resp.Digest, want)
		}
	})
}

// FuzzTournamentRequest drives /v1/tournament.
func FuzzTournamentRequest(f *testing.F) {
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req tournamentRequest
		if decodeLikeServer(body, &req) == nil {
			if tour, err := buildTournament(req); err == nil && tour.Validate() == nil {
				big := len(tour.Policies)*len(tour.Scenarios)*len(tour.Seeds) > fuzzMaxCells
				for _, sc := range tour.Scenarios {
					big = big || sc.Config.Tasks() > fuzzMaxCellTasks
				}
				if big {
					t.Skip("over the harness's size bound")
				}
			}
		}
		requireClientStatus(t, h, serveFuzz(h, http.MethodPost, "/v1/tournament", body))
	})
}
