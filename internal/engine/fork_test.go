package engine_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"godpm/internal/engine"
	"godpm/internal/sim"
	"godpm/internal/soc"
)

// horizonPlan lays out one config at several horizons — the shape the
// fork-group warm-start exists for.
func horizonPlan(seed int64, horizons []sim.Time) engine.Plan {
	var p engine.Plan
	for _, h := range horizons {
		cfg := testConfig(seed, soc.PolicyDPM, 25)
		cfg.Horizon = h
		p.Add(fmt.Sprintf("h=%s", h), cfg)
	}
	return p
}

// TestForkGroupSharesPrefix pins the warm-start end to end: a horizon
// sweep runs as one shared session (Stats.Forked counts the avoided
// simulations), every member's Result is bit-identical to a solo run of
// the same config, and each member still gets its own cache entry.
func TestForkGroupSharesPrefix(t *testing.T) {
	horizons := []sim.Time{30 * sim.Ms, 75 * sim.Ms, 60 * sim.Sec}
	plan := horizonPlan(7, horizons)

	eng := engine.New(engine.Options{Workers: 4})
	results, err := eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Runs != 1 {
		t.Fatalf("horizon sweep ran %d simulations, want 1 shared session", st.Runs)
	}
	if want := int64(len(horizons) - 1); st.Forked != want {
		t.Fatalf("Stats.Forked = %d, want %d", st.Forked, want)
	}
	if st.Misses != int64(len(horizons)) {
		t.Fatalf("Stats.Misses = %d, want %d", st.Misses, len(horizons))
	}

	for i := range plan.Jobs {
		if results[i].Err != nil {
			t.Fatalf("job %s: %v", plan.Jobs[i].ID, results[i].Err)
		}
		solo, err := soc.Run(plan.Jobs[i].Config)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := engine.ResultDigest(results[i].Result), engine.ResultDigest(solo); got != want {
			t.Errorf("job %s: forked digest %s != solo %s", plan.Jobs[i].ID, got, want)
		}
	}

	// A second invocation is all cache hits: the group stored per-member
	// entries.
	again, err := eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if !again[i].CacheHit {
			t.Errorf("job %s: not cache-served on rerun", plan.Jobs[i].ID)
		}
	}
	if st2 := eng.Stats(); st2.Runs != 1 {
		t.Fatalf("rerun simulated again: Runs = %d", st2.Runs)
	}
}

// TestForkGroupStopConditions covers groups cut by stop conditions rather
// than horizons, mixed with a horizon member.
func TestForkGroupStopConditions(t *testing.T) {
	cfg := testConfig(3, soc.PolicyAlwaysOn, 25)
	solo, err := soc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	budget := solo.EnergyJ / 3

	var plan engine.Plan
	plan.Jobs = append(plan.Jobs, engine.Job{ID: "budget", Config: cfg,
		Options: soc.RunOptions{StopWhen: []soc.StopCondition{soc.StopOnEnergyBudget(budget)}}})
	plan.Add("full", cfg)

	eng := engine.New(engine.Options{Workers: 2})
	results, err := eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Runs != 1 || st.Forked != 1 {
		t.Fatalf("Runs=%d Forked=%d, want 1/1", st.Runs, st.Forked)
	}
	if results[0].Result.StopReason == "" {
		t.Error("budget member did not stop early")
	}
	soloStopped, err := soc.RunWith(context.Background(), cfg,
		soc.RunOptions{StopWhen: []soc.StopCondition{soc.StopOnEnergyBudget(budget)}})
	if err != nil {
		t.Fatal(err)
	}
	if engine.ResultDigest(results[0].Result) != engine.ResultDigest(soloStopped) {
		t.Error("stopped member digest differs from solo stopped run")
	}
	if engine.ResultDigest(results[1].Result) != engine.ResultDigest(solo) {
		t.Error("full member digest differs from solo run")
	}
}

// TestForkGroupIneligible pins the jobs that must NOT fork: volatile
// stops, observed jobs, NoFastForward, and NoCache engines.
func TestForkGroupIneligible(t *testing.T) {
	cfg := testConfig(5, soc.PolicyDPM, 10)
	cfg2 := cfg
	cfg2.Horizon = 10 * sim.Ms

	// NoCache engine: two forkable-shaped jobs still run solo.
	eng := engine.New(engine.Options{Workers: 2, NoCache: true})
	var plan engine.Plan
	plan.Add("a", cfg).Add("b", cfg2)
	if _, err := eng.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Forked != 0 || st.Runs != 2 {
		t.Fatalf("NoCache engine forked: Runs=%d Forked=%d", st.Runs, st.Forked)
	}

	// NoFastForward jobs keep their solo ticked runs.
	eng2 := engine.New(engine.Options{Workers: 2})
	var plan2 engine.Plan
	ticked := soc.RunOptions{NoFastForward: true}
	plan2.Jobs = append(plan2.Jobs,
		engine.Job{ID: "a", Config: cfg, Options: ticked},
		engine.Job{ID: "b", Config: cfg2, Options: ticked})
	if _, err := eng2.Run(context.Background(), plan2); err != nil {
		t.Fatal(err)
	}
	if st := eng2.Stats(); st.Forked != 0 || st.Runs != 2 {
		t.Fatalf("NoFastForward jobs forked: Runs=%d Forked=%d", st.Runs, st.Forked)
	}
}

// TestForkGroupPanicIsContained: a panic in a fork group's shared session
// fails every member with an error that wraps ErrInternal and names it,
// finishes every flight the group led, and leaves the engine serving: the
// same plan afterwards runs fresh instead of waiting on a dead flight.
func TestForkGroupPanicIsContained(t *testing.T) {
	plan := horizonPlan(3, []sim.Time{30 * sim.Ms, 75 * sim.Ms, 60 * sim.Sec})
	eng := engine.New(engine.Options{Workers: 2})
	restore := engine.PanicInRunForked("session exploded")
	results, err := eng.Run(context.Background(), plan)
	restore()
	if err == nil {
		t.Fatal("a panicking fork group reported no error")
	}
	for i, jr := range results {
		id := plan.Jobs[i].ID
		if !errors.Is(jr.Err, engine.ErrInternal) || !strings.Contains(jr.Err.Error(), id) ||
			!strings.Contains(jr.Err.Error(), "session exploded") || jr.Result != nil {
			t.Errorf("member %s: result %v, err %v; want an ErrInternal error naming it and the panic", id, jr.Result, jr.Err)
		}
	}
	if n := engine.InFlight(eng); n != 0 {
		t.Fatalf("%d flights left waiting after the panic", n)
	}
	if st := eng.Stats(); st.Runs != 1 {
		t.Fatalf("Stats.Runs = %d, want the 1 group session", st.Runs)
	}
	results, err = eng.Run(context.Background(), plan)
	if err != nil {
		t.Fatalf("same plan after the panic: %v", err)
	}
	for i, jr := range results {
		if jr.Result == nil || jr.CacheHit {
			t.Errorf("member %s after the panic: hit %v; want a fresh run", plan.Jobs[i].ID, jr.CacheHit)
		}
	}
}
