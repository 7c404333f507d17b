// Command dpmremote serves a shared hash-addressed result store to a
// fleet of dpmserve replicas (and any godpm engine configured with a
// RemoteCache tier), so each distinct simulation fingerprint is
// computed once fleet-wide instead of once per process.
//
// The protocol is content-addressed over the engine's fingerprint
// space — a small versioned HTTP surface:
//
//	HEAD /v1/blob/{fingerprint}   exists?       200 | 404
//	GET  /v1/blob/{fingerprint}   fetch result  200 record container | 404
//	PUT  /v1/blob/{fingerprint}   store result  204 (413/422 refused)
//	POST /v1/stat {"keys":[...]}  batched HEAD for plan warm-up
//	GET  /healthz                 liveness (503 while draining)
//	GET  /statsz                  request counters + store occupancy
//
// The store is the engine's result store with a hardened disk tier
// (atomic writes, crashed-writer temp sweeping, corrupt-entry healing, an
// LRU-by-mtime size cap set by -disk-bytes) behind a bounded memory tier
// (-mem-entries/-mem-bytes), so the server's footprint is bounded no
// matter what the fleet uploads.
// Admission is bounded per request too: -max-inflight refuses excess
// requests with 429, and oversized or undecodable PUT bodies are
// refused before they touch the store.
//
// On SIGTERM/SIGINT the server drains like dpmserve: healthz flips to
// 503 for -drain-grace so load balancers stop routing, then the
// listener closes and in-flight requests finish within -drain-timeout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"godpm"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8081", "listen address")
		storeDir    = flag.String("store", "", "store directory (required)")
		diskBytes   = flag.Int64("disk-bytes", 0, "store size cap in bytes (0 = unbounded)")
		memEntries  = flag.Int("mem-entries", 0, "memory tier entry cap (0 = default)")
		memBytes    = flag.Int64("mem-bytes", 0, "memory tier byte cap, exact record accounting (0 = unbounded)")
		maxBlob     = flag.Int64("max-blob-bytes", 0, "per-PUT body cap in bytes (0 = 32 MiB)")
		maxInflight = flag.Int("max-inflight", 256, "max concurrent requests before 429")
		drainGrace  = flag.Duration("drain-grace", 2*time.Second, "healthz-503 window before the listener closes")
		drainTO     = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget after the grace window")
		fsync       = flag.Bool("fsync", true, "crash-consistent store writes (fsync payload before rename, directory after)")
		chaosSeed   = flag.Uint64("chaos-seed", 0, "inject a deterministic fault schedule into the store's filesystem (0 = off; testing only)")
	)
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "dpmremote: -store DIR is required")
		os.Exit(2)
	}

	s, err := newServer(serverOptions{
		StoreDir:    *storeDir,
		DiskBytes:   *diskBytes,
		MemEntries:  *memEntries,
		MemBytes:    *memBytes,
		MaxBlob:     *maxBlob,
		MaxInflight: *maxInflight,
		Sync:        *fsync,
		ChaosSeed:   *chaosSeed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("dpmremote serving store %s on http://%s (max-inflight=%d)",
		*storeDir, ln.Addr(), *maxInflight)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Two-phase drain, mirroring dpmserve: flip healthz first so load
	// balancers stop routing, then stop accepting and finish in-flight
	// requests.
	s.draining.Store(true)
	log.Printf("draining: healthz now 503, closing listener in %s", *drainGrace)
	time.Sleep(*drainGrace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "drain: %v\n", err)
		os.Exit(1)
	}
	s.close()
	st := s.blob.Stats()
	log.Printf("drained cleanly: %d gets (%d hits), %d puts (%d rejected), %d stat batches, store %d entries / %d bytes",
		st.Gets, st.GetHits, st.Puts, st.PutRejects, st.StatBatch, st.Store.Entries, st.Store.Bytes)
}

type serverOptions struct {
	StoreDir    string
	DiskBytes   int64
	MemEntries  int
	MemBytes    int64
	MaxBlob     int64
	MaxInflight int
	// Sync selects crash-consistent store writes; recommended (and the
	// flag default) for a store a whole fleet depends on.
	Sync bool
	// ChaosSeed, when non-zero, injects the seed's deterministic fault
	// schedule into the store's filesystem writes — torn writes and
	// transient errors the protocol must absorb. Testing only.
	ChaosSeed uint64
	// RateInterval is the rolling-rate sampling cadence (0 = 1s; tests
	// shrink it).
	RateInterval time.Duration
}

// server wraps the protocol handler with admission control and the
// operational endpoints.
type server struct {
	blob        *godpm.BlobServer
	inflight    chan struct{}
	maxInflight int
	draining    atomic.Bool
	start       time.Time
	// Per-endpoint-class latency sketches (same format as dpmserve's, so
	// dpmtop merges them with the same code path).
	latGet, latHead, latPut, latStat godpm.Histogram
	rates                            *godpm.RateSet
	stopRates                        func()
}

func newServer(o serverOptions) (*server, error) {
	opts := godpm.DiskCacheOptions{MaxBytes: o.DiskBytes, Sync: o.Sync}
	if o.ChaosSeed != 0 {
		plan := godpm.DefaultChaosPlan(godpm.NewSeed(o.ChaosSeed))
		opts.FS = plan.WrapFS(godpm.OSCacheFS)
		log.Printf("chaos: injecting fault schedule %s (seed %d) into store filesystem", plan.Hash()[:12], o.ChaosSeed)
	}
	memory := godpm.NewLRUCache(godpm.LRUOptions{MaxEntries: o.MemEntries, MaxBytes: o.MemBytes})
	store, err := godpm.NewTieredCache(memory, o.StoreDir, opts, nil)
	if err != nil {
		return nil, err
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	s := &server{
		blob:        godpm.NewBlobServer(store, godpm.BlobServerOptions{MaxBlobBytes: o.MaxBlob}),
		inflight:    make(chan struct{}, o.MaxInflight),
		maxInflight: o.MaxInflight,
		start:       time.Now(),
		rates:       godpm.NewRateSet(0),
	}
	s.stopRates = s.rates.Sample(o.RateInterval, func() map[string]float64 {
		st := s.blob.Stats()
		return map[string]float64{
			"gets":         float64(st.Gets),
			"get_hits":     float64(st.GetHits),
			"heads":        float64(st.Heads),
			"puts":         float64(st.Puts),
			"put_rejects":  float64(st.PutRejects),
			"stat_batches": float64(st.StatBatch),
		}
	})
	return s, nil
}

// close stops the background rate sampler.
func (s *server) close() { s.stopRates() }

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/", s.admit(s.blob))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	return mux
}

// admit bounds concurrent protocol requests; excess load is refused
// with 429 and Retry-After (clients fail open to their local tiers)
// rather than queued without bound. Admitted requests are timed into the
// per-endpoint-class latency sketch (refusals are not — 429 is
// backpressure, not service).
func (s *server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			if h := s.latFor(r); h != nil {
				t0 := time.Now()
				defer func() { h.RecordDuration(time.Since(t0)) }()
			}
			next.ServeHTTP(w, r)
		default:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "store saturated: max in-flight requests reached", http.StatusTooManyRequests)
		}
	})
}

// latFor classifies a protocol request into its latency sketch (nil for
// requests outside the known surface).
func (s *server) latFor(r *http.Request) *godpm.Histogram {
	if strings.HasPrefix(r.URL.Path, "/v1/blob/") {
		switch r.Method {
		case http.MethodGet:
			return &s.latGet
		case http.MethodHead:
			return &s.latHead
		case http.MethodPut:
			return &s.latPut
		}
		return nil
	}
	if r.URL.Path == "/v1/stat" {
		return &s.latStat
	}
	return nil
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// statszVersion matches dpmserve's /statsz schema version: both services
// share the version/service/start/rates/latency envelope so dpmtop can
// aggregate them uniformly.
const statszVersion = 2

// statszResponse is the blob-server snapshot plus serving gauges,
// rolling per-second rates, and per-endpoint-class latency.
type statszResponse struct {
	Version     int    `json:"version"`
	Service     string `json:"service"`
	StartUnixMs int64  `json:"start_unix_ms"`
	godpm.BlobServerStats
	Inflight    int                      `json:"inflight"`
	MaxInflight int                      `json:"max_inflight"`
	UptimeS     float64                  `json:"uptime_s"`
	RatesPerS   map[string]float64       `json:"rates_per_s,omitempty"`
	Latency     map[string]godpm.Latency `json:"latency,omitempty"`
}

func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	resp := statszResponse{
		Version:         statszVersion,
		Service:         "dpmremote",
		StartUnixMs:     s.start.UnixMilli(),
		BlobServerStats: s.blob.Stats(),
		Inflight:        len(s.inflight),
		MaxInflight:     s.maxInflight,
		UptimeS:         time.Since(s.start).Seconds(),
		RatesPerS:       s.rates.Rates(),
		Latency:         map[string]godpm.Latency{},
	}
	for name, h := range map[string]*godpm.Histogram{
		"blob_get": &s.latGet, "blob_head": &s.latHead,
		"blob_put": &s.latPut, "stat": &s.latStat,
	} {
		if snap := h.Snapshot(); snap.Count > 0 {
			resp.Latency[name] = godpm.LatencyOf(snap)
		}
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
