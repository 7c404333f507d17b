package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The dpmremote wire protocol, shared by this client and BlobServer:
//
//	HEAD /v1/blob/{fingerprint}   →  200 | 404
//	GET  /v1/blob/{fingerprint}   →  200 (record container) | 404
//	PUT  /v1/blob/{fingerprint}   →  204 | 400/413/422
//	POST /v1/stat {"keys":[...]}  →  200 {"present":[...]}
//
// Blob bodies are binary record containers (Content-Type
// application/x-gdpm-record) both ways: a GET receives the stored
// container verbatim — pre-encoded bytes, no per-GET marshal —
// and a PUT uploads one. The container's version byte is the upgrade
// mechanism: a peer refuses a version it does not know.
//
// Fingerprints are the engine's cache keys (lowercase SHA-256 hex), so
// the protocol is content-addressed: a PUT can never overwrite an entry
// with a result for a different configuration, and concurrent writers
// racing on one key are idempotent.
const (
	blobPathPrefix = "/v1/blob/"
	statPath       = "/v1/stat"
	// digestHeader carries the result's content digest end-to-end: the
	// server sends it on GET responses and verifies it on PUT requests,
	// the client verifies it on GET and claims it on PUT. It is what
	// catches a byte flip that keeps the JSON valid — decode-level checks
	// alone cannot.
	digestHeader = "X-Result-Digest"
)

// statRequest is the batched existence probe's body.
type statRequest struct {
	Keys []string `json:"keys"`
}

// statResponse lists which of the requested keys the store holds.
type statResponse struct {
	Present []string `json:"present"`
}

// validKey reports whether key is a plausible content fingerprint:
// lowercase hex, bounded length. Both sides enforce it — the server so
// arbitrary paths can't address its store, the client so it never emits
// a request the server will reject.
func validKey(key string) bool {
	if len(key) < 16 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		b := key[i]
		if (b < '0' || b > '9') && (b < 'a' || b > 'f') {
			return false
		}
	}
	return true
}

// RemoteOptions configures a Remote cache client. The zero value (plus
// BaseURL) selects the documented defaults.
type RemoteOptions struct {
	// BaseURL is the dpmremote server root, e.g. "http://10.0.0.5:8081".
	BaseURL string
	// Timeout bounds each attempt of each operation; default 2s. Keep it
	// small: a slow remote should lose to re-simulating locally, not
	// stall the request.
	Timeout time.Duration
	// Retries is how many extra attempts transient failures (network
	// errors, 5xx, 429) get before the operation fails open; default 2.
	Retries int
	// RetryBackoff is the first retry's delay, doubled per attempt;
	// default 50ms.
	RetryBackoff time.Duration
	// FailureThreshold is how many consecutive failed operations trip
	// the breaker; default 5.
	FailureThreshold int
	// Cooldown is how long a tripped breaker skips the remote before
	// probing it again; default 2s.
	Cooldown time.Duration
	// JitterSeed seeds the deterministic ±20% retry-backoff jitter that
	// keeps a fleet's retries from synchronizing; 0 derives a seed from
	// BaseURL so distinct replicas pointing at one store still spread.
	JitterSeed uint64
	// WrapTransport, when non-nil, wraps the client's HTTP transport —
	// the seam fault-injection harnesses (chaos.Plan.WrapTransport) use
	// to corrupt, delay or fail the wire without touching the server.
	WrapTransport func(http.RoundTripper) http.RoundTripper
	// Logf, when non-nil, receives one line per breaker trip/recovery
	// (e.g. log.Printf). The client is otherwise silent.
	Logf func(format string, args ...any)
}

const (
	defaultRemoteTimeout   = 2 * time.Second
	defaultRemoteRetries   = 2
	defaultRemoteBackoff   = 50 * time.Millisecond
	defaultRemoteThreshold = 5
	defaultRemoteCooldown  = 2 * time.Second
	// remoteMaxConns bounds the client's connection pool to the server.
	remoteMaxConns = 32
	// maxBlobBytes bounds a blob body: a GET response the client reads,
	// and by default a PUT the server accepts.
	maxBlobBytes  = 32 << 20
	statChunkSize = 1024
)

// Remote is a client of a dpmremote server: a shared hash-addressed
// result store that lets a fleet of processes deduplicate simulations
// fleet-wide. It fails open — a down, slow or corrupt remote turns Gets
// into misses and Puts into no-ops, never into request failures — so it
// is always safe behind a Store's local tiers.
//
// Failure handling: each operation retries transient errors with
// exponential backoff; after FailureThreshold consecutive failed
// operations a breaker trips and the remote is skipped entirely for
// Cooldown, so a dead server costs one connection attempt per cooldown
// window instead of per lookup. A response that fails to decode counts
// as an error and a miss — corrupt remote bytes are never handed to
// callers, so they can never poison a local tier through promotion.
type Remote struct {
	base   string
	client *http.Client

	timeout   time.Duration
	retries   int
	backoff   time.Duration
	threshold int64
	cooldown  time.Duration
	logf      func(format string, args ...any)

	hits, misses, errors atomic.Int64
	puts, putErrs        atomic.Int64
	skipped, trips       atomic.Int64
	rejected             atomic.Int64 // digest-mismatched bodies dropped
	fails                atomic.Int64 // consecutive op failures
	downUntil            atomic.Int64 // unix nanos the breaker stays open until

	// closed aborts backoff waits when the client is shut down, so a
	// draining process never sits out a full retry schedule against a
	// dead server.
	closed    chan struct{}
	closeOnce sync.Once

	jmu  sync.Mutex
	jrng *rand.Rand // seeded backoff jitter
}

// NewRemote builds a remote cache client for a dpmremote server.
func NewRemote(opts RemoteOptions) (*Remote, error) {
	u, err := url.Parse(opts.BaseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("engine: remote cache: invalid base URL %q", opts.BaseURL)
	}
	if opts.Timeout <= 0 {
		opts.Timeout = defaultRemoteTimeout
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = defaultRemoteRetries
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = defaultRemoteBackoff
	}
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = defaultRemoteThreshold
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = defaultRemoteCooldown
	}
	var transport http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     remoteMaxConns,
		MaxIdleConnsPerHost: remoteMaxConns,
		IdleConnTimeout:     90 * time.Second,
	}
	if opts.WrapTransport != nil {
		transport = opts.WrapTransport(transport)
	}
	jseed := opts.JitterSeed
	if jseed == 0 {
		jseed = fnvHash(opts.BaseURL)
	}
	return &Remote{
		base:      strings.TrimRight(opts.BaseURL, "/"),
		client:    &http.Client{Transport: transport},
		timeout:   opts.Timeout,
		retries:   opts.Retries,
		backoff:   opts.RetryBackoff,
		threshold: int64(opts.FailureThreshold),
		cooldown:  opts.Cooldown,
		logf:      opts.Logf,
		closed:    make(chan struct{}),
		jrng:      rand.New(rand.NewSource(int64(jseed))),
	}, nil
}

// fnvHash is FNV-1a over s, for deriving a default jitter seed.
func fnvHash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Close shuts the client down: in-progress backoff waits abort, and idle
// pooled connections are released. Operations after Close still work —
// they just stop retrying patiently, which is what a draining process
// wants.
func (c *Remote) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	c.client.CloseIdleConnections()
	return nil
}

// admit reports whether the breaker allows an operation right now.
func (c *Remote) admit() bool {
	return time.Now().UnixNano() >= c.downUntil.Load()
}

// opOK resets the consecutive-failure count after a successful op.
func (c *Remote) opOK() {
	if c.fails.Swap(0) >= c.threshold && c.logf != nil {
		c.logf("remote cache %s: recovered", c.base)
	}
}

// opFailed books one failed op; crossing the threshold trips the
// breaker for a cooldown window.
func (c *Remote) opFailed() {
	if c.fails.Add(1) == c.threshold {
		c.downUntil.Store(time.Now().Add(c.cooldown).UnixNano())
		c.trips.Add(1)
		if c.logf != nil {
			c.logf("remote cache %s: unreachable, skipping for %s", c.base, c.cooldown)
		}
	}
}

// transientStatus reports whether an HTTP status is worth retrying.
func transientStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// retry runs op up to 1+Retries times with exponential backoff, giving
// each attempt its own deadline. op returns (done, err): done stops the
// retry loop regardless of err (e.g. a definitive 404). Backoff waits
// carry ±20% seeded jitter — a fleet of replicas retrying against one
// flapping store must not synchronize into request storms — and abort
// immediately when the client is closed, so drains never sit out the
// full backoff schedule.
func (c *Remote) retry(op func(ctx context.Context) (bool, error)) error {
	var err error
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
		var done bool
		done, err = op(ctx)
		cancel()
		if done || err == nil {
			return err
		}
		if attempt >= c.retries {
			return err
		}
		if !c.backoffWait(c.backoff << attempt) {
			return err
		}
	}
}

// backoffWait sleeps d scaled by a seeded jitter factor in [0.8, 1.2),
// returning false if the client was closed before the wait elapsed.
func (c *Remote) backoffWait(d time.Duration) bool {
	c.jmu.Lock()
	f := 0.8 + 0.4*c.jrng.Float64()
	c.jmu.Unlock()
	t := time.NewTimer(time.Duration(float64(d) * f))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.closed:
		return false
	}
}

// Get fetches the record for key from the remote store. Any failure —
// network, server error, oversized or undecodable body — is a miss.
// The fetched bytes are fully verified here (container checksum, body
// decode, content digest) before the record is returned, so a caller
// promoting remote hits into local tiers can never be poisoned by a bad
// server entry or an in-flight byte flip.
func (c *Remote) Get(key string) (*Record, bool) {
	if !validKey(key) {
		c.misses.Add(1)
		return nil, false
	}
	if !c.admit() {
		c.skipped.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	var (
		data     []byte
		digest   string
		notFound bool
	)
	err := c.retry(func(ctx context.Context) (bool, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+blobPathPrefix+key, nil)
		if err != nil {
			return true, err
		}
		req.Header.Set("Accept", RecordContentType)
		resp, err := c.client.Do(req)
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			digest = resp.Header.Get(digestHeader)
			data, err = readBlob(resp.Body, resp.ContentLength, maxBlobBytes)
			if errors.Is(err, errBlobTooLarge) {
				return true, fmt.Errorf("blob for %s exceeds %d bytes", key, maxBlobBytes)
			}
			return err == nil, err
		case resp.StatusCode == http.StatusNotFound:
			io.Copy(io.Discard, resp.Body)
			notFound = true
			return true, nil
		default:
			io.Copy(io.Discard, resp.Body)
			err = fmt.Errorf("GET %s: status %d", key, resp.StatusCode)
			return !transientStatus(resp.StatusCode), err
		}
	})
	if err != nil {
		c.opFailed()
		c.errors.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.opOK()
	if notFound {
		c.misses.Add(1)
		return nil, false
	}
	rec, decErr := DecodeRecord(data)
	if decErr == nil && rec.Key() != key {
		decErr = fmt.Errorf("record keyed %q, want %q", rec.Key(), key)
	}
	if decErr == nil {
		// Decode eagerly: a record must prove its body decodes before it
		// may cross into the local tiers.
		_, decErr = rec.Result()
	}
	if decErr != nil {
		// Corrupt remote bytes: counted, dropped, never returned — so a
		// caller promoting remote hits into local tiers cannot be
		// poisoned by a bad server entry.
		c.errors.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	r, _ := rec.Result()
	if want := ResultDigest(r); (digest != "" && want != digest) || want != rec.Digest() {
		// The body decoded but does not match the digest the peer vouched
		// for (the header on the wire, or the container's own digest
		// field): bytes were flipped in a way that kept the encoding
		// valid. Decode-level checks cannot catch this — the end-to-end
		// digest is what makes "no poisoned result is ever served" a
		// mechanical guarantee rather than a parsing accident.
		c.rejected.Add(1)
		c.errors.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return rec, true
}

// Put stores a record in the remote store, uploading its binary
// container (built once per record, shared with the disk tier's copy).
// Failures are counted and swallowed into the returned error; the
// Store's write-behind treats a failed Put as a lost replication
// opportunity, not a job failure.
func (c *Remote) Put(key string, rec *Record) error {
	if !validKey(key) {
		return fmt.Errorf("engine: remote cache: invalid key %q", key)
	}
	if !c.admit() {
		c.skipped.Add(1)
		return nil
	}
	data, err := rec.Encode(storeCodec)
	if err != nil {
		return fmt.Errorf("engine: remote cache: encode record: %w", err)
	}
	c.puts.Add(1)
	err = c.retry(func(ctx context.Context) (bool, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+blobPathPrefix+key, bytes.NewReader(data))
		if err != nil {
			return true, err
		}
		req.Header.Set("Content-Type", RecordContentType)
		// The claimed digest lets the server refuse an upload whose bytes
		// were corrupted in flight instead of storing it for the fleet.
		req.Header.Set(digestHeader, rec.Digest())
		resp, err := c.client.Do(req)
		if err != nil {
			return false, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return true, nil
		}
		err = fmt.Errorf("PUT %s: status %d", key, resp.StatusCode)
		return !transientStatus(resp.StatusCode), err
	})
	if err != nil {
		c.opFailed()
		c.putErrs.Add(1)
		return fmt.Errorf("engine: remote cache: %w", err)
	}
	c.opOK()
	return nil
}

// Stat asks the store which of the keys it holds, batched (one POST per
// statChunkSize keys). It is the plan warm-up primitive: one round-trip
// replaces len(keys) HEADs. Fails open with the error; the result maps
// only present keys to true.
func (c *Remote) Stat(ctx context.Context, keys []string) (map[string]bool, error) {
	if !c.admit() {
		c.skipped.Add(1)
		return nil, fmt.Errorf("engine: remote cache: breaker open")
	}
	present := make(map[string]bool, len(keys))
	for len(keys) > 0 {
		chunk := keys
		if len(chunk) > statChunkSize {
			chunk = chunk[:statChunkSize]
		}
		keys = keys[len(chunk):]
		body, err := json.Marshal(statRequest{Keys: chunk})
		if err != nil {
			return nil, err
		}
		reqCtx, cancel := context.WithTimeout(ctx, c.timeout)
		req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, c.base+statPath, bytes.NewReader(body))
		if err != nil {
			cancel()
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.client.Do(req)
		if err != nil {
			cancel()
			c.opFailed()
			c.errors.Add(1)
			return nil, fmt.Errorf("engine: remote cache: stat: %w", err)
		}
		var sr statResponse
		err = json.NewDecoder(io.LimitReader(resp.Body, maxBlobBytes)).Decode(&sr)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		cancel()
		if err != nil || resp.StatusCode != http.StatusOK {
			c.opFailed()
			c.errors.Add(1)
			return nil, fmt.Errorf("engine: remote cache: stat: status %d, %v", resp.StatusCode, err)
		}
		for _, k := range sr.Present {
			present[k] = true
		}
	}
	c.opOK()
	return present, nil
}

// Stats reports the remote tier's lookup/transport counters plus the
// breaker's state, so an operator reading /statsz can see not just that
// the remote tier went quiet but why and for how long. Occupancy is
// zero: the blobs live on the server.
func (c *Remote) Stats() TierStats {
	st := TierStats{
		Tier:         TierRemote,
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Errors:       c.errors.Load() + c.putErrs.Load(),
		Puts:         c.puts.Load(),
		Rejected:     c.rejected.Load(),
		Breaker:      breakerClosed,
		BreakerFails: c.fails.Load(),
		BreakerTrips: c.trips.Load(),
		BreakerSkips: c.skipped.Load(),
	}
	if wait := c.downUntil.Load() - time.Now().UnixNano(); wait > 0 {
		st.Breaker = breakerOpen
		st.BreakerWaitMs = time.Duration(wait).Milliseconds()
	}
	return st
}

// Breaker state labels used in TierStats.Breaker.
const (
	breakerOpen   = "open"
	breakerClosed = "closed"
)
