// Package loadgen is the one client that drives a dpmserve fleet: it
// issues a list of simulate requests against one or more replicas,
// retries 429 backpressure, checks that every response for a key carries
// the digest the first one did, and collects each replica's /statsz
// afterwards.
//
// A request list comes from one of two sources. Mix builds the synthetic
// duplicate/distinct stream, every request due at once. Replay reads a
// request journal (internal/journal) and keeps its arrival spacing,
// divided by a speedup. Run drives either the same way.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"godpm/internal/engine"
	"godpm/internal/journal"
	"godpm/internal/stats"
)

// Request is one simulate request and the offset from the run's start at
// which it is released.
type Request struct {
	Scenario string        `json:"scenario,omitempty"`
	Tasks    int           `json:"tasks,omitempty"`
	Seed     int64         `json:"seed,omitempty"`
	At       time.Duration `json:"-"`
}

// Plan is what Run issues: the requests in release order and, for a
// journal replay, what the journal held besides them.
type Plan struct {
	Requests []Request
	// fingerprints is a replayed journal's distinct fingerprint set (nil
	// for the synthetic mix), and skipped counts its records that could
	// not be re-issued (inline-config, other endpoints, torn lines).
	fingerprints map[string]bool
	skipped      int
}

// Mix is the synthetic stream: request i asks for scenario A1 with the
// given tasks and seed 1+i%distinct, so duplicates dominate when
// requests ≫ distinct.
func Mix(requests, distinct, tasks int) Plan {
	if distinct < 1 {
		distinct = 1
	}
	p := Plan{Requests: make([]Request, requests)}
	for i := range p.Requests {
		p.Requests[i] = Request{Scenario: "A1", Tasks: tasks, Seed: int64(1 + i%distinct)}
	}
	return p
}

// Replay reads the journal at path into a plan: its replayable records
// in arrival order, each released at its offset from the first one
// divided by speedup. Offsets are relative to the first replayable
// record, so a journal whose traffic began an hour into serving does not
// replay an hour of silence first.
func Replay(path string, speedup float64) (Plan, error) {
	if speedup <= 0 {
		// The speedup divides arrival offsets; zero or negative would turn
		// the schedule into NaN or negative due times.
		return Plan{}, fmt.Errorf("replay: -speedup must be > 0 (got %g)", speedup)
	}
	recs, torn, err := journal.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("replay: %w", err)
	}
	p := Plan{fingerprints: make(map[string]bool), skipped: torn}
	var todo []journal.Record
	for _, rec := range recs {
		if rec.Fingerprint != "" {
			p.fingerprints[rec.Fingerprint] = true
		}
		if rec.Replayable() {
			todo = append(todo, rec)
		} else {
			p.skipped++
		}
	}
	if len(todo) == 0 {
		return Plan{}, fmt.Errorf("replay: %s has no replayable records (%d skipped)", path, p.skipped)
	}
	sort.Slice(todo, func(i, j int) bool { return todo[i].T < todo[j].T })
	base := todo[0].T
	for _, rec := range todo {
		p.Requests = append(p.Requests, Request{
			Scenario: rec.Scenario,
			Tasks:    rec.Tasks,
			Seed:     rec.Seed,
			At:       time.Duration((rec.T - base) / speedup * float64(time.Second)),
		})
	}
	return p, nil
}

// Report summarises one run.
type Report struct {
	Requests int
	OK       int
	TooMany  int // 429 responses (retried)
	Failed   int
	Hits     int // responses served from cache/dedup
	// Poisoned counts responses whose digest contradicted an earlier
	// response for the same key: a corrupt result reached a client.
	Poisoned int
	// DedupRatio is the fraction of successful requests served without a
	// fresh simulation.
	DedupRatio float64
	// Stats is the first replica's /statsz snapshot; Replicas has all of
	// them, in target order.
	Stats    engine.Stats
	Replicas []engine.Stats
	// FleetRuns sums simulations across replicas: with a shared store, a
	// duplicate-heavy fleet-wide stream keeps it at the number of
	// distinct configurations.
	FleetRuns int64
	// RemoteHits sums the replicas' remote-tier hits: lookups served by
	// the shared store, that is simulations some other replica ran.
	RemoteHits int64
	// Latency summarises client-observed latency of successful requests
	// (the final attempt only: 429 backoff is backpressure, not service
	// time), with the same quantile definitions as the servers' /statsz.
	Latency stats.LatencySummary
	// Replay fields (zero for a synthetic plan): Replayed counts records
	// re-issued, SkippedRecords those that could not be,
	// JournalDistinct/ServedDistinct count distinct fingerprints in the
	// journal and served by the replay, and ReplayFingerprintsHit is
	// whether every journal fingerprint was served (MissingFingerprints
	// lists up to five that were not).
	Replayed              int
	SkippedRecords        int
	JournalDistinct       int
	ServedDistinct        int
	ReplayFingerprintsHit bool
	MissingFingerprints   []string
}

func (r Report) String() string {
	s := fmt.Sprintf(
		"loadgen: %d requests → %d ok, %d retried (429), %d failed\n"+
			"served without simulation: %d/%d (ratio %.3f)\n",
		r.Requests, r.OK, r.TooMany, r.Failed,
		r.Hits, r.OK, r.DedupRatio)
	if r.Latency.Count > 0 {
		s += fmt.Sprintf("latency: p50 %.1fms p90 %.1fms p99 %.1fms max %.1fms (n=%d)\n",
			r.Latency.P50Ms, r.Latency.P90Ms, r.Latency.P99Ms, r.Latency.MaxMs, r.Latency.Count)
	}
	if r.Replayed > 0 {
		s += fmt.Sprintf("replay: %d records re-issued (%d skipped), fingerprints served %d/%d\n",
			r.Replayed, r.SkippedRecords, r.JournalDistinct-len(r.MissingFingerprints), r.JournalDistinct)
	}
	for i, st := range r.Replicas {
		s += fmt.Sprintf("replica %d: runs=%d hits=%d deduped=%d evictions=%d cache_entries=%d cache_bytes=%d%s\n",
			i, st.Runs, st.Hits, st.Deduped, st.Evictions,
			st.CacheEntries, st.CacheBytes, tierSummary(st.Tiers))
	}
	if len(r.Replicas) > 1 {
		s += fmt.Sprintf("fleet: %d simulations across %d replicas, %d remote hits\n",
			r.FleetRuns, len(r.Replicas), r.RemoteHits)
	}
	return s
}

// tierSummary renders per-tier hit counters compactly.
func tierSummary(tiers []engine.TierStats) string {
	if len(tiers) == 0 {
		return ""
	}
	parts := make([]string, len(tiers))
	for i, t := range tiers {
		parts[i] = fmt.Sprintf("%s %d/%d", t.Tier, t.Hits, t.Hits+t.Misses)
	}
	return " tiers[hits/lookups]: " + strings.Join(parts, ", ")
}

// Run issues the plan's requests over concurrency workers. Request i
// goes to target i%len(targets), so duplicates of one configuration land
// on every replica, and every replica sees every configuration when the
// distinct count and the replica count are coprime. A request is released
// no earlier than its offset from the run's start. After the last
// response Run reads every target's /statsz into the report.
func Run(targets []string, concurrency int, p Plan) (Report, error) {
	if len(targets) == 0 {
		return Report{}, fmt.Errorf("loadgen: no targets")
	}
	if concurrency < 1 {
		concurrency = 1
	}
	client := &http.Client{Timeout: 120 * time.Second}
	rep := Report{Requests: len(p.Requests)}

	var mu sync.Mutex
	var wg sync.WaitGroup
	var lat stats.Histogram
	// First-seen digest per key: every replica must serve byte-identical
	// measurements for the same configuration, chaos or not.
	seen := make(map[string]string)
	next := make(chan int)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				body, _ := json.Marshal(p.Requests[i])
				ok, hit, retries, key, digest, took := postSimulate(client, targets[i%len(targets)], body)
				mu.Lock()
				rep.TooMany += retries
				if ok {
					rep.OK++
					lat.RecordDuration(took)
					if hit {
						rep.Hits++
					}
					if prev, dup := seen[key]; dup && prev != digest {
						rep.Poisoned++
					} else if !dup {
						seen[key] = digest
					}
				} else {
					rep.Failed++
				}
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	for i, req := range p.Requests {
		if d := time.Until(start.Add(req.At)); d > 0 {
			time.Sleep(d)
		}
		next <- i
	}
	close(next)
	wg.Wait()

	if rep.OK > 0 {
		rep.DedupRatio = float64(rep.Hits) / float64(rep.OK)
	}
	rep.Latency = stats.LatencyOf(lat.Snapshot()).LatencySummary
	if p.fingerprints != nil {
		rep.Replayed, rep.SkippedRecords = len(p.Requests), p.skipped
		rep.JournalDistinct, rep.ServedDistinct = len(p.fingerprints), len(seen)
		rep.ReplayFingerprintsHit = true
		for fp := range p.fingerprints {
			if _, ok := seen[fp]; !ok {
				rep.ReplayFingerprintsHit = false
				rep.MissingFingerprints = append(rep.MissingFingerprints, fp)
			}
		}
		sort.Strings(rep.MissingFingerprints)
		if len(rep.MissingFingerprints) > 5 {
			rep.MissingFingerprints = rep.MissingFingerprints[:5]
		}
	}
	for _, target := range targets {
		st, err := statsz(client, target)
		if err != nil {
			return rep, err
		}
		rep.Replicas = append(rep.Replicas, st)
		rep.FleetRuns += st.Runs
		for _, t := range st.Tiers {
			if t.Tier == engine.TierRemote {
				rep.RemoteHits += t.Hits
			}
		}
	}
	rep.Stats = rep.Replicas[0]
	return rep, nil
}

// statsz reads target's /statsz engine counters.
func statsz(client *http.Client, target string) (engine.Stats, error) {
	var st engine.Stats
	resp, err := client.Get(target + "/statsz")
	if err != nil {
		return st, fmt.Errorf("statsz %s: %w", target, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("statsz %s: %w", target, err)
	}
	return st, nil
}

// postSimulate sends one simulate request, retrying 429 backpressure.
// It returns success, whether the response was cache-served, how many
// 429s it absorbed, the response's key and content digest, and the
// latency of the final attempt.
func postSimulate(client *http.Client, target string, body []byte) (ok, hit bool, retries int, key, digest string, took time.Duration) {
	for attempt := 0; attempt < 50; attempt++ {
		t0 := time.Now()
		resp, err := client.Post(target+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			return false, false, retries, "", "", 0
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			retries++
			time.Sleep(time.Duration(10+10*attempt) * time.Millisecond)
			continue
		}
		var sr struct {
			CacheHit bool   `json:"cache_hit"`
			Key      string `json:"key"`
			Digest   string `json:"digest"`
		}
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			return false, false, retries, "", "", 0
		}
		return true, sr.CacheHit, retries, sr.Key, sr.Digest, time.Since(t0)
	}
	return false, false, retries, "", "", 0
}
