package engine

import (
	"context"

	"godpm/internal/soc"
	"godpm/internal/workload"
)

// Hooks for the external engine_test package, whose tests need the
// experiments and sweep catalogs (which import this package).

// JobKeys returns the job's cache key and fork-prefix key as a Run
// computes them.
func JobKeys(job Job) (key, prefix string, err error) {
	k := keysOf(job, true, materializeSpec)
	return k.key, k.prefix, k.err
}

// ConfigEncoding returns the canonical encoding of a normalized config.
func ConfigEncoding(c *soc.Config) []byte {
	b, _ := appendConfig(nil, c)
	return b
}

var (
	RefConfigEncoding = refConfigBytes
	RefResultEncoding = refResultBytes
	RefFingerprint    = refFingerprint
	RefJobKey         = refJobKey
	RefForkPrefixKey  = refForkPrefixKey
)

// RewriteNormalizations makes the engine normalize rewrite(cfg) in
// place of every job's config until the returned restore func is called.
func RewriteNormalizations(rewrite func(soc.Config) soc.Config) (restore func()) {
	orig := normalizeConfig
	normalizeConfig = func(c soc.Config, gen soc.Materializer) (soc.NormalConfig, error) {
		return orig(rewrite(c), gen)
	}
	return func() { normalizeConfig = orig }
}

// CountNormalizations routes the engine's normalizations through a
// counter until the returned restore func is called.
func CountNormalizations(count func()) (restore func()) {
	return RewriteNormalizations(func(c soc.Config) soc.Config {
		count()
		return c
	})
}

// CountMaterializations calls count for every workload the engine
// generates until the returned restore func is called.
func CountMaterializations(count func(workload.Spec)) (restore func()) {
	orig := materializeSpec
	materializeSpec = func(s workload.Spec) (workload.Sequence, workload.ArrivalSequence, error) {
		count(s)
		return orig(s)
	}
	return func() { materializeSpec = orig }
}

// PanicInRunForked makes every fork group's shared session panic with
// msg until the returned restore func is called.
func PanicInRunForked(msg string) (restore func()) {
	orig := runForked
	runForked = func(soc.NormalConfig, context.Context, []soc.ForkMember) ([]*soc.Result, error) { panic(msg) }
	return func() { runForked = orig }
}

// InFlight returns the number of flights the engine has not finished.
func InFlight(e *Engine) int {
	e.flights.mu.Lock()
	defer e.flights.mu.Unlock()
	return len(e.flights.m)
}

// PlanUnits returns what Run derives for plan on e before dispatch: each
// job's cache key and fork-prefix key ("" where Run leaves keying to the
// worker) and the plan positions of each work unit, in dispatch order.
func PlanUnits(e *Engine, plan Plan) (keys, prefixes []string, units [][]int) {
	ks, us := e.planUnits(plan, newGenMemo().materialize)
	for _, k := range ks {
		keys = append(keys, k.key)
		prefixes = append(prefixes, k.prefix)
	}
	return keys, prefixes, us
}

// CountKeyGoroutines calls count for every keying goroutine planUnits
// starts until the returned restore func is called.
func CountKeyGoroutines(count func()) (restore func()) {
	orig := goKeyer
	goKeyer = func(f func()) {
		count()
		orig(f)
	}
	return func() { goKeyer = orig }
}

// SetWriteBehindQueue bounds the write-behind queue of stores built until
// restore is called.
func SetWriteBehindQueue(n int) (restore func()) {
	old := writeBehindQueue
	writeBehindQueue = n
	return func() { writeBehindQueue = old }
}

// StoreTiers reports the store's per-tier counters, fastest first.
func StoreTiers(s *Store) []TierStats {
	tiers, _, _, _ := s.snapshot()
	return tiers
}

// HoldRunForked calls hold with each fork group's context and members
// before the group's shared session starts, until the returned restore
// func is called.
func HoldRunForked(hold func(ctx context.Context, members []soc.ForkMember)) (restore func()) {
	orig := runForked
	runForked = func(n soc.NormalConfig, ctx context.Context, members []soc.ForkMember) ([]*soc.Result, error) {
		hold(ctx, members)
		return orig(n, ctx, members)
	}
	return func() { runForked = orig }
}
