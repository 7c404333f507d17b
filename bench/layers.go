package main

import (
	"context"
	"fmt"
	"time"

	"godpm/internal/engine"
	"godpm/internal/soc"
)

// layerCalls is the minimum number of serial calls behind one per-layer
// timing: enough that the clock's resolution and one GC pause do not
// dominate a microsecond-scale call.
const layerCalls = 400

// layerInputs are a workload's own inputs for the serial per-layer
// timings: the configurations it submits, results of simulating them, and
// the name resolution its requests go through.
type layerInputs struct {
	cfgs     []soc.Config
	results  []*soc.Result
	resolveN int
	resolve  func(i int)
}

// layerMicro times the single-call layers one call at a time on the
// workload's inputs and books time per call and heap allocations per
// call: name resolution, config normalisation, fingerprinting, LRU get and
// put, record build, encode and decode.
func layerMicro(out *outcome, in layerInputs) error {
	mt := out.metrics
	if in.resolve != nil && in.resolveN > 0 {
		mt["experiments.resolve_us"], mt["experiments.resolve_allocs"] =
			serial(max(layerCalls, in.resolveN), func(i int) { in.resolve(i % in.resolveN) })
	}
	if len(in.cfgs) == 0 {
		return fmt.Errorf("layer timings: no configurations")
	}
	n := max(layerCalls, len(in.cfgs))
	cfg := func(i int) soc.Config { return in.cfgs[i%len(in.cfgs)] }
	var err error
	mt["workload.normalize_us"], mt["workload.normalize_allocs"] = serial(n, func(i int) {
		if _, e := cfg(i).Normalized(); e != nil {
			err = e
		}
	})
	mt["engine.fingerprint_us"], mt["engine.fingerprint_allocs"] = serial(n, func(i int) {
		if _, e := engine.Fingerprint(cfg(i)); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("layer timings: %w", err)
	}

	if len(in.results) == 0 {
		return fmt.Errorf("layer timings: no results")
	}
	m := max(layerCalls/4, len(in.results))
	res := func(i int) *soc.Result { return in.results[i%len(in.results)] }
	key := func(i int) string { return fmt.Sprintf("%064d", i) }
	mt["engine.record_new_us"], _ = serial(m, func(i int) {
		if _, e := engine.NewRecord(key(i), res(i)); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("layer timings: %w", err)
	}
	// Encode caches its output on the record, so every call gets a fresh
	// record built outside the timed loop.
	fresh := make([]*engine.Record, m)
	for i := range fresh {
		if fresh[i], err = engine.NewRecord(key(i), res(i)); err != nil {
			return fmt.Errorf("layer timings: %w", err)
		}
	}
	containers := make([][]byte, m)
	mt["engine.record_encode_us"], _ = serial(m, func(i int) {
		containers[i], err = fresh[i].Encode(engine.CodecFlate)
	})
	if err != nil {
		return fmt.Errorf("layer timings: %w", err)
	}
	var bytes int
	for _, c := range containers {
		bytes += len(c)
	}
	mt["engine.record_bytes"] = float64(bytes) / float64(m)
	// A remote-tier hit decodes the container and materialises the Result.
	mt["engine.record_decode_us"], _ = serial(m, func(i int) {
		rec, e := engine.DecodeRecord(containers[i])
		if e == nil {
			_, e = rec.Result()
		}
		if e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("layer timings: %w", err)
	}

	lru := engine.NewLRU(engine.LRUOptions{})
	mt["engine.lru_put_us"], _ = serial(m, func(i int) { _ = lru.Put(key(i), fresh[i]) })
	mt["engine.lru_get_us"], _ = serial(n, func(i int) { _, _ = lru.Get(key(i % m)) })
	return nil
}

// socSetupUs books soc.setup_us: a run's wall time outside the kernel
// (runSelfUs, per run) minus config normalisation, i.e. elaboration plus
// result assembly. Call it after layerMicro has timed normalisation.
func socSetupUs(out *outcome, runSelfUs float64) {
	out.metrics["soc.setup_us"] = runSelfUs - out.metrics["workload.normalize_us"]
}

// serialRuns simulates each configuration once with soc.RunWith and books
// the soc and sim layer metrics: wall per run, simulation speed in the
// paper's Kcycle/s, the kernel's share of a run, and delta cycles per job
// (an exact count). It returns the results and the mean wall time per run
// spent outside the kernel, in microseconds.
func serialRuns(ctx context.Context, out *outcome, cfgs []soc.Config) ([]*soc.Result, float64, error) {
	var runWall, kwall, cycles, deltas float64
	results := make([]*soc.Result, 0, len(cfgs))
	for _, c := range cfgs {
		t0 := time.Now()
		r, err := soc.RunWith(ctx, c, soc.RunOptions{})
		if err != nil {
			return nil, 0, err
		}
		runWall += time.Since(t0).Seconds()
		kwall += r.WallSeconds
		cycles += r.Cycles
		deltas += float64(r.Deltas)
		results = append(results, r)
	}
	mt := out.metrics
	n := float64(len(cfgs))
	mt["soc.run_us"] = runWall / n * 1e6
	mt["sim.kcycles_per_s"] = ratio(cycles, kwall) / 1000
	mt["sim.kernel_share"] = ratio(kwall, runWall)
	mt["sim.deltas_per_job"] = deltas / n
	return results, (runWall - kwall) / n * 1e6, nil
}
