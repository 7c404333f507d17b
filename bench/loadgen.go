package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// requestTimeout bounds one request; a slower one counts as failed.
const requestTimeout = 10 * time.Second

// request is one prepared HTTP request of a workload's mix.
type request struct {
	kind  kind
	desc  string // oracle key: what was asked, independent of fingerprints
	class string // what the request costs to serve: its descriptor without the seed
	body  []byte
}

type kind int

const (
	kindSimulate   kind = iota // named scenario, POST /v1/simulate
	kindInline                 // inline config, POST /v1/simulate
	kindTournament             // POST /v1/tournament
)

func (k kind) path() string {
	if k == kindTournament {
		return "/v1/tournament"
	}
	return "/v1/simulate"
}

// shot is one scheduled send: a request and when it is due, as an offset
// from the start of its phase.
type shot struct {
	req *request
	due time.Duration
}

// sample is what the client observed for one shot. Latency is timed from
// the due time, so a stalled generator or a busy connection adds to it
// (coordinated omission is counted, not hidden).
type sample struct {
	late    time.Duration // dispatcher overshoot past the due time
	wait    time.Duration // due → send: waiting for a free connection
	lat     time.Duration // due → response fully read
	rtt     time.Duration // send → response fully read
	status  int
	digest  string
	err     error
	skipped bool // never sent: the phase was aborted first
}

// client reaches one server over at most `workers` connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and reads the whole response. It returns the HTTP
// status and the content digest of what was served: the result digest of
// a simulate response, or a hash of a tournament's leaderboard rows.
func (c *client) do(ctx context.Context, r *request) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.kind.path(), bytes.NewReader(r.body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, "", fmt.Errorf("%s: status %d: %.200s", r.desc, resp.StatusCode, body)
	}
	if r.kind == kindTournament {
		d, err := leaderboardDigest(body)
		return resp.StatusCode, d, err
	}
	d, err := jsonStringField(body, "digest")
	return resp.StatusCode, d, err
}

// jsonStringField extracts a top-level string field of a flat JSON object
// without a full decode: the simulate response is flat and its values
// never contain the field's key.
func jsonStringField(body []byte, name string) (string, error) {
	key := []byte(`"` + name + `":"`)
	i := bytes.Index(body, key)
	if i < 0 {
		return "", fmt.Errorf("response has no %q: %.200s", name, body)
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", fmt.Errorf("response %q unterminated", name)
	}
	return string(rest[:j]), nil
}

// leaderboardDigest hashes a tournament response's leaderboard rows (all
// NDJSON lines before the trailer), after checking the trailer reports a
// complete, error-free run. The trailer's engine counters vary from run to
// run, the rows do not.
func leaderboardDigest(body []byte) (string, error) {
	body = bytes.TrimRight(body, "\n")
	cut := bytes.LastIndexByte(body, '\n')
	if cut < 0 {
		return "", fmt.Errorf("tournament response has no rows: %.200s", body)
	}
	trailer := body[cut+1:]
	if !bytes.Contains(trailer, []byte(`"done":true`)) || bytes.Contains(trailer, []byte(`"error"`)) {
		return "", fmt.Errorf("tournament trailer: %.300s", trailer)
	}
	sum := sha256.Sum256(body[:cut+1])
	return hex.EncodeToString(sum[:]), nil
}

// phase is one open-loop run's observations.
type phase struct {
	samples []sample
	backlog []int // requests due but not yet sent, sampled at each release
	aborted bool
}

// fire runs an open loop. One dispatcher (this goroutine) releases every
// shot at its due time into a queue that `workers` connections drain, so
// the arrival schedule never waits for the server. When abortAt > 0 and
// that many requests are waiting, dispatch stops and the queued rest is
// skipped: an overloaded step is decided, and draining it would only burn
// the time budget. tr, when non-nil, receives one span tree per request.
func (c *client) fire(ctx context.Context, shots []shot, abortAt int, tr *tracer) *phase {
	p := &phase{samples: make([]sample, len(shots)), backlog: make([]int, 0, len(shots))}
	// Sized to the number of sends, so the dispatcher never blocks.
	queue := make(chan int, len(shots))
	var abort atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &p.samples[i]
				if abort.Load() || ctx.Err() != nil {
					s.skipped = true
					continue
				}
				due := start.Add(shots[i].due)
				sent := time.Now()
				s.status, s.digest, s.err = c.do(ctx, shots[i].req)
				done := time.Now()
				s.wait, s.lat, s.rtt = sent.Sub(due), done.Sub(due), done.Sub(sent)
				if tr != nil {
					id := tr.id()
					tr.leaf(id, int64(i+1), "loadgen.conn_wait", due, sent)
					tr.leaf(id, int64(i+1), "dpmserve.http", sent, done)
					tr.add(id, 0, int64(i+1), "loadgen.request", due, done)
				}
			}
		}()
	}
	// The runtime's timers wake up to a millisecond late on a Linux guest;
	// nanosleep on a dedicated thread keeps the dispatcher within tens of
	// microseconds of the schedule.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := range shots {
		if ctx.Err() != nil {
			break
		}
		due := start.Add(shots[i].due)
		for d := time.Until(due); d > 0; d = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
		}
		p.samples[i].late = time.Since(due)
		queue <- i
		backlog := len(queue)
		p.backlog = append(p.backlog, backlog)
		if abortAt > 0 && backlog >= abortAt {
			p.aborted = true
			abort.Store(true)
			for j := i + 1; j < len(shots); j++ {
				p.samples[j].skipped = true
			}
			break
		}
	}
	close(queue)
	wg.Wait()
	return p
}

// account books a phase's samples into the outcome (every sent request is
// an attempt; errors, non-200s and timeouts are failures) and into the
// digest book (a descriptor serving two digests is a failure).
func account(out *outcome, book *digestBook, shots []shot, p *phase) {
	for i := range p.samples {
		s := &p.samples[i]
		if s.skipped {
			continue
		}
		out.attempted++
		if s.err != nil {
			if errors.Is(s.err, context.Canceled) {
				s.skipped = true
				out.attempted--
				continue
			}
			out.fail(fmt.Errorf("%s: %w", shots[i].req.desc, s.err))
			continue
		}
		if err := book.add(shots[i].req.desc, s.digest); err != nil {
			out.fail(err)
		}
	}
}

// latencies returns the latencies in ms of the phase's successful samples
// whose request kind passes keep.
func latencies(shots []shot, p *phase, keep func(kind) bool, f func(*sample) time.Duration) []float64 {
	var out []float64
	for i := range p.samples {
		s := &p.samples[i]
		if s.skipped || s.err != nil || !keep(shots[i].req.kind) {
			continue
		}
		out = append(out, ms(f(s)))
	}
	return out
}

// latenciesByClass is latencies, grouped by request class.
func latenciesByClass(shots []shot, p *phase, keep func(kind) bool, f func(*sample) time.Duration) map[string][]float64 {
	out := make(map[string][]float64)
	for i := range p.samples {
		s := &p.samples[i]
		if s.skipped || s.err != nil || !keep(shots[i].req.kind) {
			continue
		}
		c := shots[i].req.class
		out[c] = append(out[c], ms(f(s)))
	}
	return out
}

func isSimulate(k kind) bool   { return k != kindTournament }
func isTournament(k kind) bool { return k == kindTournament }
func anyKind(kind) bool        { return true }

func latOf(s *sample) time.Duration  { return s.lat }
func waitOf(s *sample) time.Duration { return s.wait }
func rttOf(s *sample) time.Duration  { return s.rtt }
