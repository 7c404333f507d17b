package godpm_test

import (
	"context"
	"runtime"
	"testing"

	"godpm/internal/engine"
	"godpm/internal/experiments"
	"godpm/internal/gem"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/sweep"
	"godpm/internal/workload"
)

// Absolute cache keys and result digests. The engine's cache, every disk
// store and the fleet's remote tier are addressed by Fingerprint, and the
// serving layer's cross-replica checks compare ResultDigest — so the exact
// bytes the canonical encoder feeds to SHA-256 are a compatibility
// contract. These literals were captured before the encoder was rewritten
// from fmt to hand-written appenders; a mismatch means every existing
// store would silently miss (keys) or every replica comparison would fail
// (digests). Change them only together with a fingerprintVersion or
// result-tag bump.
//
// Generated workloads and simulated results are float computations, so
// the comparison is pinned to amd64 like the kernel determinism goldens.
type pinnedKeys struct {
	key    string
	digest string
}

var pinnedKeyGoldens = map[string]pinnedKeys{
	"A1": {
		key:    "c7410d9d0432b135e42ad064294bec6c7b11cf3dfddb0cb87a84a560d6c116d4",
		digest: "787791ac7706cbe6e420c9c17453e5a3968dacbbfefb1247bf527aa7b88c52b2",
	},
	"B": {
		key:    "1b35b3f49d0e88b7f877e58fc47f68a58e2017b3607f31140694eaefd7f17b81",
		digest: "b06d3239c0daf05ef1ae978e1b2568dba7770946794b677a637f761ca4bd878d",
	},
	"arena/mmpp": {
		key:    "c24ebd02907cae51c00bc31e1cfd3ff152f88a87d8284345e14f49d2c57bade0",
		digest: "55e86631246e6e2df733536f5bafa8f982f6a9aaea0aa759b3c05a3aeb940f2d",
	},
	"horizon[h=5]": {
		key:    "eca94d49f0c647605ec986fc43233fde08c71cc5c06ee1dd1d6ebdb3b303b1b2",
		digest: "3e7d052b6c8418efd35de1b5ad8162ba70e75ad3fa73d345da58332add96ccc2",
	},
	"gem-bus/offgrid": {
		key:    "831132dcbf2fb589645fd0a4cfa462238e2d4ed655868e35bb96aee06562400f",
		digest: "30e2340f2fce9a252bc7e900c1aab6be870fbf204f4d5ac791a7c268df98b053",
	},
}

// busPolledGEMOffGrid is a GEM that polls bus occupancy at every sample,
// run to a horizon between two sample instants. Its final partial sample
// re-evaluates the GEM one more time than the last full sample did, so
// the digest pins GEMEvaluations (12347) on the way a run finishes.
func busPolledGEMOffGrid() soc.Config {
	return soc.Config{
		IPs: []soc.IPSpec{
			{Name: "a", Sequence: workload.HighActivity(1, 20).MustGenerate(), StaticPriority: 1},
			{Name: "b", Sequence: workload.HighActivity(2, 20).MustGenerate(), StaticPriority: 4},
		},
		Policy:   soc.PolicyDPM,
		UseGEM:   true,
		GEM:      gem.Config{HighPriorityCutoff: 2, BusOccupancyLimit: 1e-9},
		Battery:  soc.DefaultBattery(0.95),
		BusWords: 4096,
		Horizon:  1234567 * sim.Us,
	}
}

// pinnedCases computes the pinned configurations' keys and digests. The
// horizon-sweep member's result comes from the engine's fork group, not a
// solo run: a forked member must digest exactly like its solo run.
func pinnedCases(t *testing.T) map[string]pinnedKeys {
	t.Helper()
	tun := experiments.DefaultTuning()
	tun.NumTasks = 60
	got := make(map[string]pinnedKeys)
	solo := func(name string, cfg soc.Config) {
		key, err := engine.Fingerprint(cfg)
		if err != nil {
			t.Fatalf("%s: fingerprint: %v", name, err)
		}
		res, err := soc.Run(cfg)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		got[name] = pinnedKeys{key: key, digest: engine.ResultDigest(res)}
	}
	solo("A1", experiments.A1(tun).Config)
	solo("B", experiments.B(tun).Config)
	solo("arena/mmpp", engine.ArenaScenarios(60)[2].Config)
	solo("gem-bus/offgrid", busPolledGEMOffGrid())

	study := sweep.HorizonStudy(1, 60)
	plan := study.Plan()
	eng := engine.New(engine.Options{Workers: 2})
	results, err := eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatalf("horizon study: %v", err)
	}
	if st := eng.Stats(); st.Forked == 0 {
		t.Fatalf("horizon study did not fork: %+v", st)
	}
	const member = "horizon[horizon_s=5]"
	for _, jr := range results {
		if jr.Job.ID != member {
			continue
		}
		got["horizon[h=5]"] = pinnedKeys{key: jr.Key, digest: engine.ResultDigest(jr.Result)}
	}
	return got
}

func TestPinnedKeysAndDigests(t *testing.T) {
	got := pinnedCases(t)
	if runtime.GOARCH != "amd64" {
		t.Skipf("absolute keys pinned to amd64 (GOARCH=%s may fuse FMA)", runtime.GOARCH)
	}
	for name, want := range pinnedKeyGoldens {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: not computed", name)
			continue
		}
		if g.key != want.key {
			t.Errorf("%s: key %s, pinned %s", name, g.key, want.key)
		}
		if g.digest != want.digest {
			t.Errorf("%s: digest %s, pinned %s", name, g.digest, want.digest)
		}
	}
}
