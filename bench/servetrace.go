package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"godpm/internal/engine"
	"godpm/internal/soc"
	"godpm/internal/stats"
)

// healthzRTT is the median of serial GET /healthz round trips: the HTTP
// floor every request pays (connection reuse, request parsing, routing,
// a small response) beyond its handler's own work.
func healthzRTT(ctx context.Context, c *client, n int) (time.Duration, error) {
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		resp, err := c.http.Do(req)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		rtts = append(rtts, float64(time.Since(t0)))
	}
	return time.Duration(quantile(rtts, 0.5)), nil
}

// latencyDelta is the part of a /statsz latency sketch recorded between
// two scrapes (empty when the endpoint saw nothing).
func latencyDelta(after, before map[string]stats.Latency, name string) stats.HistSnapshot {
	a, ok := after[name]
	if !ok {
		return stats.HistSnapshot{}
	}
	return histDelta(a.Hist, before[name].Hist)
}

func tierOf(st engine.Stats, name string) engine.TierStats {
	for _, t := range st.Tiers {
		if t.Tier == name {
			return t
		}
	}
	return engine.TierStats{}
}

// traceServe is the traced run of a serving workload. The first quarter
// of the schedule runs twice, each time on a freshly set-up fleet after
// the workload's untimed warm-up traffic: once untraced, once with a span
// tree per request (due → connection → HTTP round trip) and /statsz
// scraped on both servers around it. search, when non-nil, then runs on
// the traced fleet, starting from the traced pass's step; decompose times
// the server's layers in-process on the workload's inputs.
func traceServe(ctx context.Context, o options, out *outcome, book *digestBook,
	setup func() (*fleet, error), warm, shots []shot, search func(*fleet, step) float64, decompose func(*outcome) error) error {
	fa, err := setup()
	if err != nil {
		return err
	}
	account(out, book, warm, fa.c.fire(ctx, warm, 0, nil))
	pa := fa.c.fire(ctx, shots, 0, nil)
	fa.stop()
	account(out, book, shots, pa)
	untraced := latencies(shots, pa, isSimulate, latOf)
	untracedP50 := kindP50(latenciesByClass(shots, pa, isSimulate, latOf))

	f, err := setup()
	if err != nil {
		return err
	}
	defer f.stop()
	account(out, book, warm, f.c.fire(ctx, warm, 0, nil))
	var before, after serveStatsz
	var rBefore, rAfter remoteStatsz
	if err := getJSON(ctx, f.c.base+"/statsz", &before); err != nil {
		return err
	}
	if f.remote != nil {
		if err := getJSON(ctx, "http://"+f.remote.addr+"/statsz", &rBefore); err != nil {
			return err
		}
	}
	tr := newTracer()
	p := f.c.fire(ctx, shots, 0, tr)
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := getJSON(ctx, f.c.base+"/statsz", &after); err != nil {
		return err
	}
	if f.remote != nil {
		// Write-behind PUTs trail the responses; give them a moment to land
		// so the store's counters cover this pass's misses.
		time.Sleep(200 * time.Millisecond)
		if err := getJSON(ctx, "http://"+f.remote.addr+"/statsz", &rAfter); err != nil {
			return err
		}
	}
	account(out, book, shots, p)
	floor, err := healthzRTT(ctx, f.c, 200)
	if err != nil {
		return err
	}
	if search != nil {
		out.metrics["dpmserve.max_rps_slo"] = search(f, verdict(hotRate, shots, p))
	}
	path, err := tr.write(o.out, o.workload, o.seed)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	fmt.Fprintf(o.log, "%s: %d spans written to %s\n", o.workload, tr.len(), path)

	mt := out.metrics
	var late []float64
	var throttled, sent int
	var sumWait, sumLat time.Duration
	for i := range p.samples {
		s := &p.samples[i]
		if s.skipped {
			continue
		}
		late = append(late, ms(s.late))
		if s.status == http.StatusTooManyRequests {
			throttled++
		}
		if s.err == nil {
			sent++
			sumWait += s.wait
			sumLat += s.lat
		}
	}
	mt["loadgen.lateness_p99_ms"] = quantile(late, 0.99)
	// The tail from due time, untraced. It is no end-to-end metric: on a
	// shared 2-CPU host it varied by more than any regression bound allows.
	mt["loadgen.latency_p99_ms"] = quantile(untraced, 0.99)
	mt["loadgen.conn_wait_p50_ms"] = quantile(latencies(shots, p, anyKind, waitOf), 0.5)
	mt["loadgen.tournament_p50_ms"] = quantile(latencies(shots, p, isTournament, latOf), 0.5)

	sim := latencyDelta(after.Latency, before.Latency, "simulate")
	tour := latencyDelta(after.Latency, before.Latency, "tournament")
	mt["dpmserve.simulate_p50_ms"] = float64(sim.Quantile(0.5)) / 1000
	mt["dpmserve.simulate_p99_ms"] = float64(sim.Quantile(0.99)) / 1000
	mt["dpmserve.tournament_p50_ms"] = float64(tour.Quantile(0.5)) / 1000
	mt["dpmserve.http_p50_ms"] = quantile(latencies(shots, p, isSimulate, rttOf), 0.5) - mt["dpmserve.simulate_p50_ms"]
	mt["dpmserve.throttled"] = float64(throttled)

	d := func(a, b int64) float64 { return float64(a - b) }
	hits, misses := d(after.Hits, before.Hits), d(after.Misses, before.Misses)
	mt["engine.hit_ratio"] = ratio(hits, hits+misses)
	mt["engine.runs"] = d(after.Runs, before.Runs)
	mt["engine.forked_frac"] = ratio(d(after.Forked, before.Forked), misses)
	mt["engine.deduped"] = d(after.Deduped, before.Deduped)
	mt["engine.evictions"] = d(after.Evictions, before.Evictions)
	ra, rb := tierOf(after.Stats, engine.TierRemote), tierOf(before.Stats, engine.TierRemote)
	rh, rm := d(ra.Hits, rb.Hits), d(ra.Misses, rb.Misses)
	mt["engine.remote_hit_ratio"] = ratio(rh, rh+rm)
	mt["engine.remote_errors"] = d(ra.Errors, rb.Errors)
	if after.RunLatency != nil {
		var prev stats.HistSnapshot
		if before.RunLatency != nil {
			prev = before.RunLatency.Hist
		}
		mt["engine.run_p50_ms"] = float64(histDelta(after.RunLatency.Hist, prev).Quantile(0.5)) / 1000
	}
	if f.remote != nil {
		mt["dpmremote.blob_get_p50_ms"] = float64(latencyDelta(rAfter.Latency, rBefore.Latency, "blob_get").Quantile(0.5)) / 1000
		mt["dpmremote.blob_put_p50_ms"] = float64(latencyDelta(rAfter.Latency, rBefore.Latency, "blob_put").Quantile(0.5)) / 1000
		mt["dpmremote.puts"] = d(rAfter.Puts, rBefore.Puts)
	}

	// Coverage: do the separately measured parts — waiting for a
	// connection, the HTTP floor, the server's own handler time — add up
	// to the latency the client saw?
	server := time.Duration(sim.Sum+tour.Sum) * time.Microsecond
	parts := sumWait + time.Duration(sent)*floor + server
	mt["trace.coverage"] = ratio(float64(parts), float64(sumLat))
	tracedP50 := kindP50(latenciesByClass(shots, p, isSimulate, latOf))
	mt["trace.overhead_pct"] = 100 * (ratio(tracedP50, untracedP50) - 1)
	mt["trace.spans"] = float64(tr.len())
	return decompose(out)
}

// hotDecompose times serve_hot's server-side layers in-process: resolving
// and fingerprinting every hot request, and simulating the 20-task half of
// the hot set for the record, soc and sim rows.
func hotDecompose(ctx context.Context, keys []scenarioKey) func(*outcome) error {
	return func(out *outcome) error {
		var cfgs, small []soc.Config
		for _, k := range keys {
			cfg, err := resolveScenario(k.id, k.tasks, k.seed)
			if err != nil {
				return err
			}
			cfgs = append(cfgs, cfg)
			if k.tasks == 20 {
				small = append(small, cfg)
			}
		}
		results, runSelfUs, err := serialRuns(ctx, out, small)
		if err != nil {
			return err
		}
		err = layerMicro(out, layerInputs{cfgs: cfgs, results: results, resolveN: len(keys), resolve: func(i int) {
			_, _ = resolveScenario(keys[i].id, keys[i].tasks, keys[i].seed)
		}})
		socSetupUs(out, runSelfUs)
		return err
	}
}

// churnDecompose times serve_churn's layers in-process on the first
// requests of each kind: scenario resolution, tournament planning, and
// normalising, fingerprinting, simulating and recording their configs.
func churnDecompose(ctx context.Context, in churnInputs) func(*outcome) error {
	return func(out *outcome) error {
		keys := in.simKeys[:min(16, len(in.simKeys))]
		var cfgs, runs []soc.Config
		for i, k := range keys {
			cfg, err := resolveScenario(k.id, k.tasks, k.seed)
			if err != nil {
				return err
			}
			cfgs = append(cfgs, cfg)
			if i < 8 {
				runs = append(runs, cfg)
			}
		}
		for i, s := range in.inline[:min(8, len(in.inline))] {
			cfgs = append(cfgs, s.cfg)
			if i < 4 {
				runs = append(runs, s.cfg)
			}
		}
		tours := in.tours[:min(4, len(in.tours))]
		var planned time.Duration
		for _, s := range tours {
			t0 := time.Now()
			plan, err := s.tour.Plan()
			planned += time.Since(t0)
			if err != nil {
				return err
			}
			for _, job := range plan.Jobs {
				cfgs = append(cfgs, job.Config)
			}
		}
		if len(tours) > 0 {
			out.metrics["workload.plan_ms"] = ms(planned) / float64(len(tours))
		}
		results, runSelfUs, err := serialRuns(ctx, out, runs)
		if err != nil {
			return err
		}
		err = layerMicro(out, layerInputs{cfgs: cfgs, results: results, resolveN: len(keys), resolve: func(i int) {
			_, _ = resolveScenario(keys[i].id, keys[i].tasks, keys[i].seed)
		}})
		socSetupUs(out, runSelfUs)
		return err
	}
}
