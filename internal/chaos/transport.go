package chaos

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"godpm/internal/workload"
)

// RoundTripper wraps an http.RoundTripper with a deterministic fault
// schedule — the seam engine.RemoteOptions.WrapTransport exists for.
// This seam carries bytes, so the full fault vocabulary applies:
//
//   - FaultTransient: the request fails with a network-shaped error
//     (retryable, feeds the client's breaker),
//   - FaultPermanent: the request gets a definitive 400 response,
//   - FaultCorrupt: the real response's body has one byte flipped at the
//     scheduled position — sometimes breaking the JSON, sometimes not,
//     which is precisely what end-to-end digest checks must catch,
//   - FaultTorn: the real response's body is truncated at the scheduled
//     position.
//
// Injected latency honours the request's context, so a cancelled or
// timed-out request never sits out a chaos delay.
type RoundTripper struct {
	inner http.RoundTripper
	inj   *Injector
}

// NewRoundTripper wraps inner with the spec's schedule rooted at seed.
func NewRoundTripper(inner http.RoundTripper, seed workload.Seed, spec Spec) *RoundTripper {
	return &RoundTripper{inner: inner, inj: NewInjector(seed.Split("roundtrip"), spec)}
}

// drain satisfies the RoundTripper contract on fabricated outcomes: the
// request body must always be consumed and closed.
func drain(req *http.Request) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
}

func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	d := rt.inj.Next()
	if d.Latency > 0 {
		t := time.NewTimer(d.Latency)
		select {
		case <-t.C:
		case <-req.Context().Done():
			t.Stop()
			drain(req)
			return nil, req.Context().Err()
		}
	}
	switch d.Fault {
	case FaultTransient:
		drain(req)
		return nil, fmt.Errorf("chaos: network error: %w", ErrInjected)
	case FaultPermanent:
		drain(req)
		return &http.Response{
			Status:        "400 Bad Request",
			StatusCode:    http.StatusBadRequest,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        make(http.Header),
			Body:          io.NopCloser(strings.NewReader("chaos: injected permanent error")),
			ContentLength: -1,
			Request:       req,
		}, nil
	}
	resp, err := rt.inner.RoundTrip(req)
	if err != nil || (d.Fault != FaultCorrupt && d.Fault != FaultTorn) {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	if len(body) > 0 {
		i := int(d.Frac * float64(len(body)))
		if i >= len(body) {
			i = len(body) - 1
		}
		if d.Fault == FaultCorrupt {
			// A single bit flip: the least destructive corruption, so the
			// payload often stays structurally valid and only an
			// end-to-end digest check can reject it.
			body[i] ^= 0x01
		} else {
			body = body[:i]
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
	return resp, nil
}
