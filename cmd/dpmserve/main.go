// Command dpmserve is the long-running serving layer over the godpm
// batch engine: an HTTP service that answers simulation and tournament
// requests from a shared, bounded, deduplicated result cache, so heavy
// repeated scenario traffic costs one simulation per distinct
// configuration.
//
// Endpoints:
//
//	POST /v1/simulate    {"scenario":"A1","tasks":40,"seed":7} or
//	                     {"config":{...}} → one JSON result record
//	POST /v1/tournament  {"scenarios":[...],"policies":[...],"seeds":[1,2],
//	                     "tasks":30} → NDJSON leaderboard rows + trailer
//	GET  /healthz        liveness (503 while draining)
//	GET  /statsz         engine counters, hit/dedup/eviction rates
//
// In-flight work is bounded (-max-inflight); excess requests are refused
// with 429 and a Retry-After header rather than queued without bound. On
// SIGTERM/SIGINT the server stops accepting work and drains in-flight
// requests gracefully (-drain-timeout).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"godpm"
	"godpm/internal/drain"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers      = flag.Int("workers", 0, "simulation worker pool (0 = NumCPU)")
		cacheDir     = flag.String("cache", "", "disk cache directory ('' = memory only)")
		cacheEntries = flag.Int("cache-entries", 0, "in-memory cache entry cap (0 = default)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "in-memory cache byte cap, exact record accounting (0 = unbounded)")
		diskBytes    = flag.Int64("disk-bytes", 0, "disk cache size cap in bytes (0 = unbounded)")
		remoteURL    = flag.String("remote-url", "", "dpmremote shared result store base URL ('' = local tiers only)")
		remoteTO     = flag.Duration("remote-timeout", 2*time.Second, "per-operation remote store timeout")
		maxInflight  = flag.Int("max-inflight", 0, "max concurrent requests before 429 (0 = 4×workers)")
		chaosSeed    = flag.Uint64("chaos-seed", 0, "inject a deterministic fault schedule into the cache tiers and remote transport (0 = off; testing only)")
		journalPath  = flag.String("journal", "", "append one NDJSON record per handled request to this file ('' = off; see README Observability)")
		journalMax   = flag.Int64("journal-max-bytes", 0, "rotate the journal when it would exceed this size (0 = 64 MiB; one rotation kept)")
		drainGrace   = flag.Duration("drain-grace", 2*time.Second, "healthz-503 window before the listener closes (lets load balancers stop routing)")
		drainTO      = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget after the grace window")
	)
	flag.Parse()

	s, err := newServer(serverOptions{
		Workers:        *workers,
		CacheDir:       *cacheDir,
		CacheEntries:   *cacheEntries,
		CacheBytes:     *cacheBytes,
		DiskBytes:      *diskBytes,
		RemoteURL:      *remoteURL,
		RemoteTimeout:  *remoteTO,
		MaxInflight:    *maxInflight,
		ChaosSeed:      *chaosSeed,
		JournalPath:    *journalPath,
		JournalMaxByte: *journalMax,
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
	// conns lets the drain close connections that never started a
	// request instead of waiting until they are 5 s old.
	var conns drain.Tracker
	// Header/read/idle timeouts keep slow clients from parking goroutines
	// outside the in-flight bound; no WriteTimeout because tournament
	// responses stream for as long as the plan runs.
	srv := &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ConnState:         conns.Track,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("dpmserve listening on http://%s (workers=%d, max-inflight=%d)",
		ln.Addr(), s.eng.Workers(), s.maxInflight)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain, two phases. First flip healthz to 503 while the
	// listener stays open, so load balancers observe the signal and stop
	// routing before connections start being refused; then stop accepting
	// and finish the in-flight requests.
	s.draining.Store(true)
	log.Printf("draining: healthz now 503, closing listener in %s", *drainGrace)
	time.Sleep(*drainGrace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := conns.Shutdown(shutCtx, srv); err != nil {
		fmt.Fprintf(os.Stderr, "drain: %v\n", err)
		os.Exit(1)
	}
	// Flush the write-behind queue so results computed moments before
	// SIGTERM still reach the shared store for the rest of the fleet,
	// then stop the rate sampler and seal the request journal.
	_ = s.cache.Close()
	s.close()
	st := s.eng.Stats()
	log.Printf("drained cleanly: %d runs, %d hits (%d deduped), %d evictions, %d errors, %d canceled",
		st.Runs, st.Hits, st.Deduped, st.Evictions, st.Errors, st.Canceled)
}

// serverOptions configures the serving layer.
type serverOptions struct {
	Workers       int
	CacheDir      string
	CacheEntries  int
	CacheBytes    int64
	DiskBytes     int64
	RemoteURL     string
	RemoteTimeout time.Duration
	MaxInflight   int
	// ChaosSeed, when non-zero, wraps the memory tier and the remote
	// transport in the seed's deterministic fault schedule, so the
	// fail-open and anti-poisoning guarantees can be exercised against a
	// live replica. Testing only.
	ChaosSeed uint64
	// JournalPath, when non-empty, appends one NDJSON record per handled
	// request (see internal/journal); JournalMaxByte caps the file before
	// rotation (0 = default).
	JournalPath    string
	JournalMaxByte int64
	// RateInterval is the counter-sampling period behind the /statsz
	// rolling rates; 0 means one second. Tests shrink it.
	RateInterval time.Duration
}

// server is the HTTP serving layer over one shared engine. The engine's
// cache and singleflight dedup are what make concurrent duplicate
// requests cheap: they collapse to one simulation.
//
// Two bounds stack: inflight admits at most maxInflight requests (the
// rest get 429), and gate — a weighted semaphore of -workers units —
// bounds how much simulation the admitted requests run at once. A
// simulate request weighs one unit; a tournament request weighs as many
// units as the engine pool it fans out over, so simulation concurrency
// never exceeds -workers no matter how requests mix. Admitted requests
// queue FIFO (bounded by maxInflight) for their units.
type server struct {
	eng         *godpm.Engine
	cache       *godpm.TieredCache
	inflight    chan struct{}
	gate        *workGate
	maxInflight int
	seq         atomic.Int64
	draining    atomic.Bool
	start       time.Time
	memo        *resolveMemo

	// The observability surface: per-endpoint latency sketches, rolling
	// counter rates (fed by a 1s sampler goroutine) and the optional
	// request journal.
	latSim    *godpm.Histogram
	latTour   *godpm.Histogram
	rates     *godpm.RateSet
	stopRates func()
	requests  atomic.Int64
	journal   *godpm.JournalWriter

	// tourAborts counts tournament NDJSON streams cut short by the
	// client: a disconnect detected mid-run (the run is cancelled so
	// abandoned work stops burning workers) or a failed row/trailer
	// write. Surfaced in /statsz.
	tourAborts atomic.Int64

	// Live tournament progress, surfaced in /statsz and rendered by
	// dpmtop: how many tournaments are in flight, cells done/total summed
	// across them, and the provisional energy leader most recently
	// reported by any of them.
	tourMu     sync.Mutex
	tourActive int
	tourDone   int
	tourTotal  int
	tourLeader string
}

// tourStart registers an in-flight tournament of total cells. It returns
// the per-run progress callback that keeps the /statsz snapshot current,
// and the end function that retires the run — subtracting its cells so
// finished tournaments don't leave done/total inflated.
func (s *server) tourStart(total int) (progress func(done, total int, leader string), end func()) {
	s.tourMu.Lock()
	s.tourActive++
	s.tourTotal += total
	s.tourMu.Unlock()
	prev := 0
	progress = func(done, _ int, leader string) {
		s.tourMu.Lock()
		s.tourDone += done - prev
		prev = done
		if leader != "" {
			s.tourLeader = leader
		}
		s.tourMu.Unlock()
	}
	end = func() {
		s.tourMu.Lock()
		s.tourActive--
		s.tourTotal -= total
		s.tourDone -= prev
		if s.tourActive == 0 {
			s.tourLeader = ""
		}
		s.tourMu.Unlock()
	}
	return progress, end
}

func newServer(o serverOptions) (*server, error) {
	var memory godpm.Cache = godpm.NewLRUCache(godpm.LRUOptions{MaxEntries: o.CacheEntries, MaxBytes: o.CacheBytes})
	disk := godpm.DiskCacheOptions{MaxBytes: o.DiskBytes}
	// The chaos seams: faults injected into the memory tier (misses and
	// put errors), the disk tier's filesystem (failed and torn writes)
	// and inside the remote transport (latency, flapping, corrupt and
	// truncated bodies). The engine must shrug all of it off.
	var plan godpm.ChaosPlan
	if o.ChaosSeed != 0 {
		plan = godpm.DefaultChaosPlan(godpm.NewSeed(o.ChaosSeed))
		memory = plan.WrapCache(memory)
		disk.FS = plan.WrapFS(godpm.OSCacheFS)
		log.Printf("chaos: injecting fault schedule %s (seed %d) into cache, filesystem and transport", plan.Hash()[:12], o.ChaosSeed)
	}
	// A remote store layers behind the local tiers: read-through with
	// promotion, write-behind PUTs, and fail-open degradation — a dead
	// dpmremote makes this replica self-sufficient, never broken.
	var remote *godpm.RemoteCacheOptions
	if o.RemoteURL != "" {
		remote = &godpm.RemoteCacheOptions{
			BaseURL: o.RemoteURL,
			Timeout: o.RemoteTimeout,
			Logf:    log.Printf,
		}
		if o.ChaosSeed != 0 {
			remote.WrapTransport = plan.WrapTransport
		}
	}
	cache, err := godpm.NewTieredCache(memory, o.CacheDir, disk, remote)
	if err != nil {
		return nil, err
	}
	eng := godpm.NewEngine(godpm.EngineOptions{Workers: o.Workers, Cache: cache})
	maxInflight := o.MaxInflight
	if maxInflight <= 0 {
		maxInflight = 4 * eng.Workers()
	}
	s := &server{
		eng:         eng,
		cache:       cache,
		inflight:    make(chan struct{}, maxInflight),
		gate:        newWorkGate(eng.Workers()),
		maxInflight: maxInflight,
		start:       time.Now(),
		memo:        newResolveMemo(resolveMemoCap),
		latSim:      &godpm.Histogram{},
		latTour:     &godpm.Histogram{},
		rates:       godpm.NewRateSet(0),
	}
	if o.JournalPath != "" {
		jw, err := godpm.OpenJournal(o.JournalPath, godpm.JournalOptions{MaxBytes: o.JournalMaxByte, Start: s.start})
		if err != nil {
			return nil, err
		}
		s.journal = jw
		log.Printf("journaling requests to %s", o.JournalPath)
	}
	s.stopRates = s.rates.Sample(o.RateInterval, func() map[string]float64 {
		st := eng.Stats()
		return map[string]float64{
			"requests":  float64(s.requests.Load()),
			"hits":      float64(st.Hits),
			"deduped":   float64(st.Deduped),
			"runs":      float64(st.Runs),
			"evictions": float64(st.Evictions),
			"errors":    float64(st.Errors),
		}
	})
	return s, nil
}

// close stops the rate sampler and seals the journal; the handler itself
// needs no teardown.
func (s *server) close() {
	s.stopRates()
	if s.journal != nil {
		_ = s.journal.Close()
	}
}

// observe books one handled request into the endpoint's latency sketch
// and the journal. Arrival time is t0, so journal offsets reproduce
// arrival spacing; throttled refusals are journaled (they are part of the
// traffic shape) but excluded from the latency sketch (they measure the
// refusal, not the service).
func (s *server) observe(t0 time.Time, rec godpm.JournalRecord) {
	d := time.Since(t0)
	if rec.Outcome != godpm.JournalOutcomeThrottled {
		switch rec.Endpoint {
		case godpm.JournalEndpointSimulate:
			s.latSim.RecordDuration(d)
		case godpm.JournalEndpointTournament:
			s.latTour.RecordDuration(d)
		}
	}
	if s.journal != nil {
		rec.T = s.journal.Offset(t0)
		rec.LatencyMs = float64(d.Microseconds()) / 1000
		if err := s.journal.Append(rec); err != nil {
			log.Printf("journal: %v", err)
		}
	}
}

// workGate is a weighted semaphore with FIFO handoff: wide acquisitions
// (tournaments needing the whole engine pool) are not starved by a
// stream of 1-unit simulate requests, and the head waiter is always
// eventually satisfiable because every grant is released.
type workGate struct {
	mu    sync.Mutex
	avail int
	queue []*gateWaiter
}

type gateWaiter struct {
	need  int
	ready chan struct{}
}

func newWorkGate(capacity int) *workGate { return &workGate{avail: capacity} }

// acquire claims need units, waiting FIFO; it reports false (claiming
// nothing) if ctx dies first.
func (g *workGate) acquire(ctx context.Context, need int) bool {
	g.mu.Lock()
	if len(g.queue) == 0 && g.avail >= need {
		g.avail -= need
		g.mu.Unlock()
		return true
	}
	w := &gateWaiter{need: need, ready: make(chan struct{})}
	g.queue = append(g.queue, w)
	g.mu.Unlock()
	select {
	case <-w.ready:
		return true
	case <-ctx.Done():
		g.mu.Lock()
		for i, q := range g.queue {
			if q == w {
				g.queue = append(g.queue[:i], g.queue[i+1:]...)
				// A wide waiter leaving the head can unblock narrower
				// waiters behind it right now — re-run the grant loop.
				g.grantLocked()
				g.mu.Unlock()
				return false
			}
		}
		g.mu.Unlock()
		// Lost the race: the grant landed while ctx was dying. Give the
		// units back.
		<-w.ready
		g.release(need)
		return false
	}
}

func (g *workGate) release(units int) {
	g.mu.Lock()
	g.avail += units
	g.grantLocked()
	g.mu.Unlock()
}

// grantLocked hands available units to queued waiters in FIFO order;
// callers hold g.mu.
func (g *workGate) grantLocked() {
	for len(g.queue) > 0 && g.queue[0].need <= g.avail {
		w := g.queue[0]
		g.queue = g.queue[1:]
		g.avail -= w.need
		close(w.ready)
	}
}

// busy returns the units currently claimed.
func (g *workGate) busy(capacity int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return capacity - g.avail
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/simulate", s.handleSimulate)
	mux.HandleFunc("/v1/tournament", s.handleTournament)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	return mux
}

// acquire claims an in-flight slot, or answers 429 and reports false.
// Backpressure is refuse-not-queue: a saturated server tells the client
// to retry instead of stacking unbounded goroutines.
func (s *server) acquire(w http.ResponseWriter) bool {
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server saturated: max in-flight requests reached", http.StatusTooManyRequests)
		return false
	}
}

func (s *server) release() { <-s.inflight }

// simulateRequest selects a configuration: either a named paper/extension
// scenario (with optional tasks/seed tuning) or an inline Config.
type simulateRequest struct {
	Scenario string        `json:"scenario,omitempty"`
	Tasks    int           `json:"tasks,omitempty"`
	Seed     int64         `json:"seed,omitempty"`
	Config   *godpm.Config `json:"config,omitempty"`
}

// simulateResponse is the flat result record (a cache-served request has
// CacheHit true and reports the shared entry's measurements).
type simulateResponse struct {
	ID        string  `json:"id"`
	CacheHit  bool    `json:"cache_hit"`
	Key       string  `json:"key"`
	EnergyJ   float64 `json:"energy_j"`
	DurationS float64 `json:"duration_s"`
	AvgTempC  float64 `json:"avg_temp_c"`
	PeakTempC float64 `json:"peak_temp_c"`
	TasksDone int     `json:"tasks_done"`
	Completed bool    `json:"completed"`
	FinalSoC  float64 `json:"final_soc"`
	// Digest is the result's content hash — clients (dpmload among
	// them) can cross-check that every replica serves byte-identical
	// measurements for the same key.
	Digest string `json:"digest"`
}

// simulateTail is the cacheable suffix of simulateResponse: every field
// derived from the cache record alone, nothing per-request. It is
// marshalled once per record and attached to it (Record.Aux), so a cache
// hit serves pre-encoded bytes — no json.Marshal, no digest computation —
// prefixed only with the request's own id and cache_hit flag. Field
// order must mirror simulateResponse after ID and CacheHit.
type simulateTail struct {
	Key       string  `json:"key"`
	EnergyJ   float64 `json:"energy_j"`
	DurationS float64 `json:"duration_s"`
	AvgTempC  float64 `json:"avg_temp_c"`
	PeakTempC float64 `json:"peak_temp_c"`
	TasksDone int     `json:"tasks_done"`
	Completed bool    `json:"completed"`
	FinalSoC  float64 `json:"final_soc"`
	Digest    string  `json:"digest"`
}

// simulateFragment returns the record's pre-encoded response tail — the
// bytes after the opening '{' of a marshalled simulateTail, built on the
// record's first serve and cached on it (evicted together).
func simulateFragment(rec *godpm.CacheRecord, key string, res *godpm.Result) ([]byte, error) {
	if frag := rec.Aux(); frag != nil {
		return frag, nil
	}
	tail, err := json.Marshal(simulateTail{
		Key:       key,
		EnergyJ:   res.EnergyJ,
		DurationS: res.Duration.Seconds(),
		AvgTempC:  res.AvgTempC,
		PeakTempC: res.PeakTempC,
		TasksDone: res.TasksDone,
		Completed: res.Completed,
		FinalSoC:  res.FinalSoC,
		Digest:    rec.Digest(),
	})
	if err != nil {
		return nil, err
	}
	frag := tail[1:]
	rec.SetAux(frag)
	return frag, nil
}

// writeSimulateResponse assembles `{"id":…,"cache_hit":…,` + frag in one
// buffer and writes it with an explicit Content-Length. This is the
// /v1/simulate hot path: a cache hit's cost is appending ~30 bytes to a
// pre-encoded fragment and one socket write.
func writeSimulateResponse(w http.ResponseWriter, id string, hit bool, frag []byte) {
	buf := make([]byte, 0, 32+len(id)+len(frag)+1)
	buf = append(buf, `{"id":`...)
	buf = appendJSONString(buf, id)
	buf = append(buf, `,"cache_hit":`...)
	buf = strconv.AppendBool(buf, hit)
	buf = append(buf, ',')
	buf = append(buf, frag...)
	buf = append(buf, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	w.Write(buf)
}

// appendJSONString appends s as a JSON string literal. IDs are
// scenario/extension names plus a sequence number (ASCII), so only the
// mandatory escapes are handled; anything ≥ 0x20 passes through, which
// is valid JSON for valid UTF-8 input.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// handleSimulate serves one simulate request. A named request the memo
// has seen skips resolution: its canonical scenario ID and cache key are
// known, so a local-tier hit (Engine.Lookup) costs a map probe and a
// fragment copy, with no workload generation and no hashing; when the
// record has left the local tiers (or the request was canceled) it
// resolves and runs through Engine.RunAfterLookup, which starts past the
// probe just made. Everything else — inline configs, first sightings —
// resolves and runs through Engine.Run, whose successful named jobs then
// enter the memo. All routes journal, count and answer the same bytes,
// bar the id's sequence number.
func (s *server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req simulateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var (
		cfg     godpm.Config
		name    namedRequest
		known   resolution
		memoHit bool
	)
	named := req.Config == nil && req.Scenario != ""
	if named {
		name = namedRequestOf(req)
		known, memoHit = s.memo.get(name)
	}
	id := known.id
	if !memoHit {
		var err error
		if cfg, id, err = resolveConfig(req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	// One journal record per resolvable request from here on — refusals
	// included, because an incident's traffic shape includes its 429s.
	s.requests.Add(1)
	rec := godpm.JournalRecord{Endpoint: godpm.JournalEndpointSimulate, Tasks: req.Tasks, Seed: req.Seed}
	if named {
		rec.Scenario = id
	}
	if !s.acquire(w) {
		rec.Outcome, rec.Status = godpm.JournalOutcomeThrottled, http.StatusTooManyRequests
		s.observe(t0, rec)
		return
	}
	defer s.release()
	if !s.gate.acquire(r.Context(), 1) {
		http.Error(w, "client went away", http.StatusRequestTimeout)
		rec.Outcome, rec.Status = godpm.JournalOutcomeCanceled, http.StatusRequestTimeout
		s.observe(t0, rec)
		return
	}
	defer s.gate.release(1)

	jobID := id + "#" + strconv.FormatInt(s.seq.Add(1), 10)
	var jr godpm.JobResult
	served := false
	if memoHit && r.Context().Err() == nil {
		jr, served = s.eng.Lookup(known.key)
	}
	switch {
	case served:
	case memoHit:
		// The record has left the local tiers, or the request was
		// canceled, which RunAfterLookup refuses as Run would. The memo
		// holds only resolutions that succeeded, so this one cannot fail.
		cfg, _, _ = resolveConfig(req)
		jr = s.eng.RunAfterLookup(r.Context(), godpm.Job{ID: jobID, Config: cfg})
	default:
		var plan godpm.Plan
		plan.Add(jobID, cfg)
		results, _ := s.eng.Run(r.Context(), plan) // the job's error is in its slot
		jr = results[0]
		if named && jr.Err == nil && jr.Key != "" {
			s.memo.put(name, resolution{id: id, key: jr.Key})
		}
	}
	rec.Fingerprint = jr.Key
	if req.Config != nil {
		rec.ConfigDigest = jr.Key
	}
	if jr.Err == nil && jr.Result == nil {
		jr.Err = fmt.Errorf("%w: job %s has no result", godpm.ErrEngineInternal, jobID)
	}
	if jr.Err != nil {
		// A config the model refuses is the client's fault (422); a job the
		// engine could not finish is the server's (500).
		status := http.StatusUnprocessableEntity
		rec.Outcome = godpm.JournalOutcomeError
		switch {
		case errors.Is(jr.Err, context.Canceled):
			status = http.StatusRequestTimeout
			rec.Outcome = godpm.JournalOutcomeCanceled
		case errors.Is(jr.Err, godpm.ErrEngineInternal):
			status = http.StatusInternalServerError
		}
		http.Error(w, jr.Err.Error(), status)
		rec.Status = status
		s.observe(t0, rec)
		return
	}
	rec.Outcome, rec.Status = godpm.JournalOutcomeRun, http.StatusOK
	if jr.CacheHit {
		rec.Outcome = godpm.JournalOutcomeHit
	}
	defer s.observe(t0, rec)
	res := jr.Result
	if jr.Record != nil {
		// Cached job: the response tail is pre-encoded on the record (built
		// on its first serve), so a hit never re-marshals the result or
		// recomputes its digest.
		if frag, err := simulateFragment(jr.Record, jr.Key, res); err == nil {
			writeSimulateResponse(w, jobID, jr.CacheHit, frag)
			return
		}
	}
	// Uncached (volatile/NoCache) jobs have no record to pin bytes to;
	// marshal per request.
	writeJSON(w, simulateResponse{
		ID:        jobID,
		CacheHit:  jr.CacheHit,
		Key:       jr.Key,
		EnergyJ:   res.EnergyJ,
		DurationS: res.Duration.Seconds(),
		AvgTempC:  res.AvgTempC,
		PeakTempC: res.PeakTempC,
		TasksDone: res.TasksDone,
		Completed: res.Completed,
		FinalSoC:  res.FinalSoC,
		Digest:    godpm.ResultDigest(res),
	})
}

// resolveConfig turns a simulate request into a runnable Config and its
// canonical ID through the shared scenario resolver, which refuses an
// unknown name without building any scenario, so a bad request costs no
// workload generation however many tasks it asks for.
func resolveConfig(req simulateRequest) (godpm.Config, string, error) {
	if req.Config != nil {
		if req.Scenario != "" {
			return godpm.Config{}, "", fmt.Errorf("pass scenario or config, not both")
		}
		return *req.Config, "inline", nil
	}
	if req.Scenario == "" {
		return godpm.Config{}, "", fmt.Errorf("missing scenario (or inline config)")
	}
	sc, err := godpm.ResolveScenario(req.Scenario, tuningOf(req))
	return sc.Config, sc.ID, err
}

// tuningOf returns the workload tuning a named request resolves with: the
// defaults, overridden by a positive task count and a non-zero seed.
func tuningOf(req simulateRequest) godpm.Tuning {
	t := godpm.DefaultTuning()
	if req.Tasks > 0 {
		t.NumTasks = req.Tasks
	}
	if req.Seed != 0 {
		t.Seed = req.Seed
	}
	return t
}

// resolveMemoCap bounds the resolution memo. An entry is a short name, two
// integers, a scenario ID and a 64-hex-digit key — about 150 B — so a full
// memo stays well under 1 MiB.
const resolveMemoCap = 4096

// namedRequest identifies a named simulate request by what its resolution
// depends on: the scenario name as sent and the effective tuning.
type namedRequest struct {
	scenario string
	tasks    int
	seed     int64
}

func namedRequestOf(req simulateRequest) namedRequest {
	t := tuningOf(req)
	return namedRequest{scenario: req.Scenario, tasks: t.NumTasks, seed: t.Seed}
}

// resolution is what a named request resolved to: its canonical scenario
// ID and its cache key.
type resolution struct{ id, key string }

// resolveMemo maps named requests to their resolutions. It holds only
// resolutions whose job ran or hit without error, and at most limit
// entries: inserting into a full memo first drops an arbitrary entry, so
// traffic over arbitrary seeds can neither grow it nor lock the hot set
// out.
type resolveMemo struct {
	mu    sync.Mutex
	m     map[namedRequest]resolution
	limit int
}

func newResolveMemo(limit int) *resolveMemo {
	return &resolveMemo{m: make(map[namedRequest]resolution), limit: limit}
}

func (m *resolveMemo) get(k namedRequest) (resolution, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.m[k]
	return r, ok
}

func (m *resolveMemo) put(k namedRequest, r resolution) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.m[k]; !ok && len(m.m) >= m.limit {
		for old := range m.m {
			delete(m.m, old)
			break
		}
	}
	m.m[k] = r
}

func (m *resolveMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// tournamentRequest selects entrants and scenarios from the built-in
// catalogs (empty = all) and the replicate seeds.
type tournamentRequest struct {
	Policies   []string `json:"policies,omitempty"`
	Scenarios  []string `json:"scenarios,omitempty"`
	Seeds      []uint64 `json:"seeds,omitempty"`
	Tasks      int      `json:"tasks,omitempty"`
	DeadlineMs float64  `json:"deadline_ms,omitempty"`
}

// handleTournament streams the ranked leaderboard as NDJSON: one object
// per standing, then a trailer {"done":true,...} with the engine
// counters.
func (s *server) handleTournament(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req tournamentRequest
	if err := decodeJSON(w, r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tour, err := buildTournament(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// A tournament the engine would refuse — one over its size caps —
	// is refused before it takes a slot, as the client's fault.
	if err := tour.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.requests.Add(1)
	rec := godpm.JournalRecord{Endpoint: godpm.JournalEndpointTournament}
	if !s.acquire(w) {
		rec.Outcome, rec.Status = godpm.JournalOutcomeThrottled, http.StatusTooManyRequests
		s.observe(t0, rec)
		return
	}
	defer s.release()
	// A tournament fans out over the engine's whole worker pool, so it
	// weighs as many gate units as the pool goroutines it will spawn.
	weight := len(tour.Policies) * len(tour.Scenarios) * len(tour.Seeds)
	if weight > s.eng.Workers() {
		weight = s.eng.Workers()
	}
	if weight < 1 {
		weight = 1
	}
	if !s.gate.acquire(r.Context(), weight) {
		http.Error(w, "client went away", http.StatusRequestTimeout)
		rec.Outcome, rec.Status = godpm.JournalOutcomeCanceled, http.StatusRequestTimeout
		s.observe(t0, rec)
		return
	}
	defer s.gate.release(weight)

	// Publish live progress (cells done / total, provisional leader) to
	// /statsz for the duration of the run; the end hook reclaims this
	// run's cells so finished tournaments don't inflate the gauges.
	cells := len(tour.Policies) * len(tour.Scenarios) * len(tour.Seeds)
	progress, endProgress := s.tourStart(cells)
	tour.Progress = progress
	defer endProgress()

	// Commit the response before running: ranking needs every result, so
	// rows only exist at the end — flushing headers now keeps proxies and
	// clients from timing out on a byte-less connection meanwhile. Errors
	// after this point are reported in-band on the trailer line.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	// The run gets its own cancellable context so an abandoned stream can
	// stop it: r.Context() already dies when the client disconnects
	// mid-run, and cancelTour extends that to disconnects the server only
	// notices when a row or trailer write fails.
	ctx, cancelTour := context.WithCancel(r.Context())
	defer cancelTour()
	res, err := godpm.RunTournament(ctx, s.eng, tour)
	defer func() { s.observe(t0, rec) }()
	if err != nil && res == nil {
		if r.Context().Err() != nil {
			// The client went away mid-run and the context cancellation
			// aborted the tournament — an abandoned stream, not a failure.
			s.tourAborts.Add(1)
			rec.Outcome, rec.Status = godpm.JournalOutcomeCanceled, http.StatusOK
			return
		}
		_ = enc.Encode(struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}{false, err.Error()})
		rec.Outcome, rec.Status = godpm.JournalOutcomeError, http.StatusOK
		return
	}
	rec.Outcome, rec.Status = godpm.JournalOutcomeRun, http.StatusOK
	if err != nil {
		rec.Outcome = godpm.JournalOutcomeError
	}
	aborted := false
	for _, standing := range res.Leaderboard {
		if encErr := enc.Encode(standing); encErr != nil {
			aborted = true
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if !aborted {
		trailer := struct {
			Done     bool              `json:"done"`
			Baseline string            `json:"baseline"`
			Stats    godpm.EngineStats `json:"stats"`
			Error    string            `json:"error,omitempty"`
		}{Done: true, Baseline: res.Baseline, Stats: res.Stats}
		if err != nil {
			trailer.Error = err.Error()
		}
		// A failed trailer write is the same client disconnect a failed row
		// write is — without it the client cannot tell a complete
		// leaderboard from a truncated one, so it must count as an aborted
		// stream, not be dropped on the floor.
		if encErr := enc.Encode(trailer); encErr != nil {
			aborted = true
		}
	}
	if aborted {
		cancelTour()
		s.tourAborts.Add(1)
		rec.Outcome = godpm.JournalOutcomeCanceled
	}
}

func buildTournament(req tournamentRequest) (godpm.Tournament, error) {
	tasks := req.Tasks
	if tasks <= 0 {
		tasks = 30
	}
	policies, scenarios, err := godpm.TournamentEntrants(req.Policies, req.Scenarios, tasks)
	if err != nil {
		return godpm.Tournament{}, err
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	t := godpm.Tournament{Policies: policies, Scenarios: scenarios,
		Deadline: godpm.Time(req.DeadlineMs * float64(godpm.Ms))}
	for _, s := range seeds {
		t.Seeds = append(t.Seeds, godpm.NewSeed(s))
	}
	return t, nil
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

// statszVersion is the /statsz schema version: bumped when fields change
// meaning or disappear (additions don't bump it). Version 2 added the
// version/service/start fields, per-endpoint latency sketches, rolling
// rates and the journal block.
const statszVersion = 2

// statszResponse is the engine snapshot plus derived serving rates,
// rolling per-second rates, and per-endpoint latency — the schema dpmtop
// aggregates.
type statszResponse struct {
	Version     int    `json:"version"`
	Service     string `json:"service"`
	StartUnixMs int64  `json:"start_unix_ms"`
	godpm.EngineStats
	HitRate     float64 `json:"hit_rate"`
	DedupRate   float64 `json:"dedup_rate"`
	Inflight    int     `json:"inflight"`
	MaxInflight int     `json:"max_inflight"`
	BusyWorkers int     `json:"busy_workers"`
	Workers     int     `json:"workers"`
	UptimeS     float64 `json:"uptime_s"`
	// TournamentAborts counts NDJSON tournament streams the client
	// abandoned (disconnect mid-run or failed row/trailer write); the
	// run's context is cancelled when that happens, so this is also a
	// count of tournaments whose remaining work was reclaimed.
	TournamentAborts int64 `json:"tournament_aborted_streams"`
	// Tournament progress: gauges over the tournaments currently running
	// on this replica (cells = policy × scenario × seed simulations, done
	// as results land, leader = provisional lowest-mean-energy policy).
	// All zero / empty when no tournament is in flight.
	TournamentActive     int    `json:"tournament_active"`
	TournamentCellsDone  int    `json:"tournament_cells_done"`
	TournamentCellsTotal int    `json:"tournament_cells_total"`
	TournamentLeader     string `json:"tournament_leader,omitempty"`
	// RatesPerS are rolling per-second rates over the last minute
	// (requests, hits, deduped, runs, evictions, errors), sampled from
	// the cumulative counters once a second.
	RatesPerS map[string]float64 `json:"rates_per_s,omitempty"`
	// Latency maps endpoint → headline quantiles + the mergeable sketch
	// they were computed from (simulate, tournament; the engine's own
	// run_latency lives inside the embedded EngineStats).
	Latency map[string]godpm.Latency `json:"latency,omitempty"`
	Journal *journalStatus           `json:"journal,omitempty"`
}

// journalStatus reports the request journal's health in /statsz.
type journalStatus struct {
	Path     string `json:"path"`
	Appended int64  `json:"appended"`
	Rotated  int64  `json:"rotated"`
}

func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	resp := statszResponse{
		Version:          statszVersion,
		Service:          "dpmserve",
		StartUnixMs:      s.start.UnixMilli(),
		EngineStats:      st,
		Inflight:         len(s.inflight),
		MaxInflight:      s.maxInflight,
		BusyWorkers:      s.gate.busy(s.eng.Workers()),
		Workers:          s.eng.Workers(),
		UptimeS:          time.Since(s.start).Seconds(),
		TournamentAborts: s.tourAborts.Load(),
		RatesPerS:        s.rates.Rates(),
		Latency:          map[string]godpm.Latency{},
	}
	s.tourMu.Lock()
	resp.TournamentActive = s.tourActive
	resp.TournamentCellsDone = s.tourDone
	resp.TournamentCellsTotal = s.tourTotal
	resp.TournamentLeader = s.tourLeader
	s.tourMu.Unlock()
	if snap := s.latSim.Snapshot(); snap.Count > 0 {
		resp.Latency[godpm.JournalEndpointSimulate] = godpm.LatencyOf(snap)
	}
	if snap := s.latTour.Snapshot(); snap.Count > 0 {
		resp.Latency[godpm.JournalEndpointTournament] = godpm.LatencyOf(snap)
	}
	if s.journal != nil {
		appended, rotated := s.journal.Stats()
		resp.Journal = &journalStatus{Path: s.journal.Path(), Appended: appended, Rotated: rotated}
	}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		resp.HitRate = float64(st.Hits) / float64(lookups)
	}
	if st.Hits > 0 {
		resp.DedupRate = float64(st.Deduped) / float64(st.Hits)
	}
	writeJSON(w, resp)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
