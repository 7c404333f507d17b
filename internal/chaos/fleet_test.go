package chaos

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"godpm/internal/engine"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/task"
	"godpm/internal/workload"
)

// fleetConfig builds a quick single-IP simulation, cheap enough to fan
// out under -race (mirrors the engine tests' testConfig).
func fleetConfig(seed int64, policy soc.PolicyKind) soc.Config {
	p := workload.HighActivity(seed, 8)
	p.PriorityWeights = [task.NumPriorities]float64{1, 2, 2, 1}
	return soc.Config{
		IPs:      []soc.IPSpec{{Name: "ip0", Sequence: p.MustGenerate()}},
		Policy:   policy,
		Battery:  soc.DefaultBattery(0.95),
		BusWords: 16,
		Horizon:  60 * sim.Sec,
	}
}

func fleetPlan() engine.Plan {
	var p engine.Plan
	for seed := int64(1); seed <= 8; seed++ {
		p.Add(fmt.Sprintf("dpm@%d", seed), fleetConfig(seed, soc.PolicyDPM))
		p.Add(fmt.Sprintf("base@%d", seed), fleetConfig(seed, soc.PolicyAlwaysOn))
	}
	return p
}

// fleetChaosPlan is the suite's schedule: latency, flapping, wire
// corruption, truncation, filesystem faults, and a deterministic
// transport outage wide enough to trip a threshold-3 breaker with
// retries disabled.
func fleetChaosPlan(seed workload.Seed) Plan {
	return Plan{
		Seed: seed,
		Tier: Spec{
			PLatency: 0.05, MaxLatency: 200 * time.Microsecond,
			PTransient: 0.05,
		},
		Transport: Spec{
			PLatency: 0.05, MaxLatency: time.Millisecond,
			PTransient: 0.06, PCorrupt: 0.05, PTorn: 0.03,
			OutageStart: 30, OutageLen: 12,
		},
		FS: Spec{
			PTransient: 0.03, PTorn: 0.03,
		},
	}
}

// TestFleetInvariantsUnderChaos runs a two-replica fleet against a
// shared blob store with faults injected at every seam — cache tier,
// HTTP transport, store filesystem — and asserts the contracts PR 5/6
// claimed, mechanically:
//
//   - zero client-visible job failures while everything flaps,
//   - no poisoned result is ever served: every job result and every
//     store entry digest-matches a clean engine's run,
//   - the breaker trips on the scheduled outage and recovers,
//   - counters reconcile: hits+misses == jobs, runs == misses,
//   - a replica is served remote hits (fleet dedup survives chaos).
func TestFleetInvariantsUnderChaos(t *testing.T) {
	root := workload.NewSeed(2026)
	basePlan := fleetChaosPlan(root)
	ctx := context.Background()
	jobs := fleetPlan()

	// The oracle: a clean engine's digests for every job.
	cleanEng := engine.New(engine.Options{})
	cleanResults, err := cleanEng.Run(ctx, jobs)
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	wantDigest := make([]string, len(cleanResults))
	keyDigest := make(map[string]string, len(cleanResults))
	for i, jr := range cleanResults {
		wantDigest[i] = engine.ResultDigest(jr.Result)
		keyDigest[jr.Key] = wantDigest[i]
	}

	// Shared store: crash-safe disk files over the fault-injecting filesystem.
	storeDir := t.TempDir()
	storeFS := basePlan.WrapFS(engine.OSFS)
	store, err := engine.NewStore(engine.NewLRU(engine.LRUOptions{}), storeDir, engine.DiskOptions{Sync: true, FS: storeFS}, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := engine.NewBlobServer(store, engine.BlobServerOptions{})
	ts := httptest.NewServer(blob)
	defer ts.Close()

	trips := int64(0)
	remoteHits := int64(0)
	for rep := 0; rep < 2; rep++ {
		rplan := basePlan
		rplan.Seed = root.SplitN(rep)

		inner := engine.NewLRU(engine.LRUOptions{})
		local := rplan.WrapCache(inner)
		var rt *RoundTripper
		tiered, err := engine.NewStore(local, "", engine.DiskOptions{}, &engine.RemoteOptions{
			BaseURL:          ts.URL,
			Timeout:          2 * time.Second,
			Retries:          -1, // every round-trip is one op: the outage maps 1:1 onto op failures
			FailureThreshold: 3,
			Cooldown:         30 * time.Millisecond,
			JitterSeed:       uint64(rep) + 1,
			WrapTransport: func(base http.RoundTripper) http.RoundTripper {
				rt = NewRoundTripper(base, rplan.Seed.Split("transport"), rplan.Transport)
				return rt
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New(engine.Options{Workers: 4, Cache: tiered})

		const rounds = 3
		for round := 0; round < rounds; round++ {
			results, err := eng.Run(ctx, jobs)
			if err != nil {
				t.Fatalf("replica %d round %d: client-visible failure: %v", rep, round, err)
			}
			for i, jr := range results {
				if jr.Err != nil {
					t.Fatalf("replica %d round %d job %d: %v", rep, round, i, jr.Err)
				}
				if engine.ResultDigest(jr.Result) != wantDigest[i] {
					t.Fatalf("replica %d round %d job %d: poisoned result served", rep, round, i)
				}
			}
		}

		st := eng.Stats()
		total := int64(rounds * jobs.Len())
		if st.Hits+st.Misses != total {
			t.Fatalf("replica %d: hits(%d)+misses(%d) != %d jobs", rep, st.Hits, st.Misses, total)
		}
		if st.Runs != st.Misses {
			t.Fatalf("replica %d: runs(%d) != misses(%d)", rep, st.Runs, st.Misses)
		}
		if st.Errors != 0 || st.Canceled != 0 {
			t.Fatalf("replica %d: errors=%d canceled=%d, want 0", rep, st.Errors, st.Canceled)
		}
		if gs := local.get.Stats(); gs.Ops == 0 {
			t.Fatalf("replica %d: chaos tier saw no ops — the schedule was not applied", rep)
		}
		if rt == nil || rt.Stats().Ops == 0 {
			t.Fatalf("replica %d: chaos transport saw no ops — the seam was not wired", rep)
		}

		// The local tier must hold only oracle-digest entries: promotion
		// never laundered a corrupt remote body into the replica.
		for key, want := range keyDigest {
			if got, ok := inner.Get(key); ok && got.Digest() != want {
				t.Fatalf("replica %d: local tier poisoned for %s", rep, key)
			}
		}

		if err := tiered.Close(); err != nil {
			t.Fatal(err)
		}
		for _, tier := range eng.Stats().Tiers {
			if tier.Tier != engine.TierRemote {
				continue
			}
			remoteHits += tier.Hits
			trips += tier.BreakerTrips
		}
	}

	if trips == 0 {
		t.Fatal("no breaker trips despite the scheduled transport outage")
	}
	if remoteHits == 0 {
		t.Fatal("no remote hits: fleet-wide dedup did not survive chaos")
	}

	// The shared store, behind its own faulted filesystem, must hold only
	// oracle-digest entries (crash-safe writes + PUT digest verification).
	storeEntries := 0
	for key, want := range keyDigest {
		got, ok := store.Get(key)
		if !ok {
			continue
		}
		storeEntries++
		if got.Digest() != want {
			t.Fatalf("shared store poisoned for %s", key)
		}
	}
	if storeEntries == 0 {
		t.Fatal("no entries reached the shared store")
	}
	if st := storeFS.Stats(); st.Ops == 0 {
		t.Fatal("store filesystem chaos saw no ops — the seam was not wired")
	}

	// Reproducibility: the same chaos plan replays the identical
	// transport schedule (decision-for-decision), so this whole suite is
	// re-runnable from its seed.
	want := NewInjector(root.SplitN(0).Split("transport").Split("roundtrip"), basePlan.Transport)
	got := NewInjector(root.SplitN(0).Split("transport").Split("roundtrip"), basePlan.Transport)
	for i := 0; i < 64; i++ {
		if want.Next() != got.Next() {
			t.Fatalf("transport schedule not reproducible at op %d", i)
		}
	}
}
