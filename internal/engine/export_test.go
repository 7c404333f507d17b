package engine

import (
	"context"

	"godpm/internal/soc"
)

// Hooks for the external engine_test package, whose tests need the
// experiments and sweep catalogs (which import this package).

// JobKeys returns the job's cache key and fork-prefix key as a Run
// computes them.
func JobKeys(job Job) (key, prefix string, err error) {
	k := keysOf(job, true)
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

// CountNormalizations routes key derivation through a counter until the
// returned restore func is called.
func CountNormalizations(count func()) (restore func()) {
	orig := normalizeConfig
	normalizeConfig = func(c soc.Config) (soc.Config, error) {
		count()
		return orig(c)
	}
	return func() { normalizeConfig = orig }
}

// PanicInRunForked makes every fork group's shared session panic with
// msg until the returned restore func is called.
func PanicInRunForked(msg string) (restore func()) {
	orig := runForked
	runForked = func(context.Context, soc.Config, []soc.ForkMember) ([]*soc.Result, error) { panic(msg) }
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
	ks, us := e.planUnits(plan)
	for _, k := range ks {
		keys = append(keys, k.key)
		prefixes = append(prefixes, k.prefix)
	}
	for _, u := range us {
		units = append(units, u.indices)
	}
	return keys, prefixes, units
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
