package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"godpm/internal/engine"
	"godpm/internal/experiments"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/sweep"
	"godpm/internal/workload"
)

// routeConfigs are the configs every route must agree on: two random
// workload generator specs of each kind on one IP, Table 2's A1 and the
// horizon study's points.
func routeConfigs(t *testing.T) []soc.Config {
	t.Helper()
	rng := rand.New(rand.NewSource(38))
	specOf := []func(seed int64, n int) workload.Spec{
		func(seed int64, n int) workload.Spec { return workload.ClosedSpec(workload.HighActivity(seed, n)) },
		func(seed int64, n int) workload.Spec { return workload.BurstSpec(workload.DefaultBurst(seed, n)) },
		func(seed int64, n int) workload.Spec {
			return workload.MMPPSpec(workload.DefaultMMPP(workload.NewSeed(uint64(seed)), n))
		},
		func(seed int64, n int) workload.Spec {
			return workload.PeriodicSpec(workload.DefaultPeriodic(workload.NewSeed(uint64(seed)), n))
		},
		func(seed int64, n int) workload.Spec {
			return workload.HeavyTailSpec(workload.DefaultHeavyTail(workload.NewSeed(uint64(seed)), n))
		},
		func(seed int64, n int) workload.Spec {
			return workload.TraceSpec(workload.LowActivity(seed, n).MustGenerate())
		},
	}
	var cfgs []soc.Config
	for _, spec := range specOf {
		for r := 0; r < 2; r++ {
			cfgs = append(cfgs, soc.Config{
				IPs:     []soc.IPSpec{{Name: "ip0", Gen: spec(1+rng.Int63n(1<<20), 8+rng.Intn(17))}},
				Policy:  soc.PolicyDPM,
				Battery: soc.DefaultBattery(0.5 + rng.Float64()/2),
				Horizon: sim.Time(5+rng.Intn(20)) * sim.Sec,
			})
		}
	}
	tun := experiments.DefaultTuning()
	tun.NumTasks = 20
	cfgs = append(cfgs, experiments.A1(tun).Config)
	for _, job := range sweep.HorizonStudy(3, 20).Plan().Jobs {
		cfgs = append(cfgs, job.Config)
	}
	return cfgs
}

// soloPlans returns one single-job plan per config, so each runs alone.
func soloPlans(cfgs []soc.Config) []engine.Plan {
	plans := make([]engine.Plan, len(cfgs))
	for i, cfg := range cfgs {
		plans[i].Add(fmt.Sprintf("cfg%02d", i), cfg)
	}
	return plans
}

// tierOf returns the named tier's counters.
func tierOf(t *testing.T, st engine.Stats, name string) engine.TierStats {
	t.Helper()
	for _, ts := range st.Tiers {
		if ts.Tier == name {
			return ts
		}
	}
	t.Fatalf("no %s tier in %+v", name, st.Tiers)
	return engine.TierStats{}
}

// TestEveryRouteAgreesOnTheDigest is the engine's differential check:
// for every route config, a solo soc.RunWith, an engine miss, a fork-group
// member, a memory hit, a disk hit and a remote hit all yield the same
// ResultDigest, and every cached route's record vouches for it.
func TestEveryRouteAgreesOnTheDigest(t *testing.T) {
	ctx := context.Background()
	cfgs := routeConfigs(t)
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		r, err := soc.RunWith(ctx, cfg, soc.RunOptions{})
		if err != nil {
			t.Fatalf("cfg%02d: solo run: %v", i, err)
		}
		want[i] = engine.ResultDigest(r)
	}
	check := func(route string, i int, jr engine.JobResult, hit bool) {
		t.Helper()
		if jr.Err != nil {
			t.Fatalf("%s cfg%02d: %v", route, i, jr.Err)
		}
		if jr.CacheHit != hit {
			t.Fatalf("%s cfg%02d: CacheHit = %v, want %v", route, i, jr.CacheHit, hit)
		}
		if got := engine.ResultDigest(jr.Result); got != want[i] {
			t.Errorf("%s cfg%02d: digest %s, solo %s", route, i, got, want[i])
		}
		if jr.Record == nil || jr.Record.Digest() != want[i] {
			t.Errorf("%s cfg%02d: record does not vouch for the solo digest", route, i)
		}
	}
	runSolo := func(route string, eng *engine.Engine, hit bool) {
		t.Helper()
		for i, p := range soloPlans(cfgs) {
			res, err := eng.Run(ctx, p)
			if err != nil {
				t.Fatalf("%s cfg%02d: %v", route, i, err)
			}
			check(route, i, res[0], hit)
		}
	}

	ts, _, _ := blobServerForTest(t)
	dir := t.TempDir()
	n := int64(len(cfgs))

	store := newStore(t, dir, ts.URL)
	eng := engine.New(engine.Options{Workers: 2, Cache: store})
	runSolo("miss", eng, false)
	if st := eng.Stats(); st.Runs != n || st.Forked != 0 {
		t.Fatalf("miss route: stats %+v, want %d solo runs", st, n)
	}
	runSolo("memory hit", eng, true)
	if got := tierOf(t, eng.Stats(), engine.TierMemory).Hits; got != n {
		t.Fatalf("memory hit route: %d memory hits, want %d", got, n)
	}
	if err := store.Close(); err != nil { // flush the write-behind to the remote store
		t.Fatal(err)
	}

	disk := engine.New(engine.Options{Workers: 2, Cache: newStore(t, dir, "")})
	runSolo("disk hit", disk, true)
	if st := disk.Stats(); st.Runs != 0 || tierOf(t, st, engine.TierDisk).Hits != n {
		t.Fatalf("disk hit route: stats %+v, want %d disk hits and no run", st, n)
	}

	remote := engine.New(engine.Options{Workers: 2, Cache: newStore(t, "", ts.URL)})
	runSolo("remote hit", remote, true)
	if st := remote.Stats(); st.Runs != 0 || tierOf(t, st, engine.TierRemote).Hits != n {
		t.Fatalf("remote hit route: stats %+v, want %d remote hits and no run", st, n)
	}

	// Fork groups: every config beside a sibling that differs only in
	// Horizon, except the horizon study, whose points group by themselves.
	var plan engine.Plan
	study := len(cfgs) - len(sweep.HorizonStudy(3, 20).Plan().Jobs)
	for i, cfg := range cfgs {
		plan.Add(fmt.Sprintf("cfg%02d", i), cfg)
	}
	for i, cfg := range cfgs[:study] {
		cfg.Horizon /= 2
		plan.Add(fmt.Sprintf("cfg%02d/2", i), cfg)
	}
	forked := engine.New(engine.Options{Workers: 2})
	_, _, units := engine.PlanUnits(forked, plan)
	for _, u := range units {
		if len(u) < 2 {
			t.Fatalf("job %s runs alone; every route config must be a fork-group member", plan.Jobs[u[0]].ID)
		}
	}
	res, err := forked.Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if st := forked.Stats(); st.Runs != int64(len(units)) || st.Forked != int64(len(plan.Jobs)-len(units)) {
		t.Fatalf("fork route: stats %+v, want %d shared sessions", st, len(units))
	}
	for i := range cfgs {
		check("fork member", i, res[i], false)
	}
}
