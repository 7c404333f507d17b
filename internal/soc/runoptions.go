package soc

import (
	"fmt"
	"time"

	"godpm/internal/battery"
	"godpm/internal/sim"
)

// RunOptions carries the run-time (as opposed to model) parameters of one
// simulation: how to watch it and when to cut it short. Options never
// reshape the simulated system — Config alone determines the physics — so
// two runs of the same Config with different observers produce bit-identical
// Results. Stop conditions do change the Result (they end the run early);
// the batch engine folds their Reason strings into its cache key.
type RunOptions struct {
	// Observers receive the streaming instrumentation callbacks.
	Observers []Observer
	// StopWhen ends the run early as soon as any condition holds; the
	// first matching condition's Reason is recorded in Result.StopReason.
	// Conditions are evaluated once per SampleInterval, after the battery
	// and thermal state have been integrated.
	StopWhen []StopCondition

	// NoFastForward disables the kernel's idle fast-forward, forcing the
	// per-tick scheduling machinery over idle gaps. Fast-forward is
	// provably bit-identical to ticked execution (the same sample
	// arithmetic runs at the same instants, one call per idle gap — see
	// sim.Kernel.GapPeriodic),
	// so this knob exists for verification (the equivalence property
	// tests) and benchmarking (measuring the machinery it skips), not for
	// correctness; it is deliberately not part of the engine cache key.
	NoFastForward bool
}

// Volatile reports whether any stop condition depends on host timing, in
// which case the run's outcome is not a pure function of Config+StopWhen
// and must never be cached (the batch engine checks this).
func (o RunOptions) Volatile() bool {
	for _, c := range o.StopWhen {
		if c.Volatile {
			return true
		}
	}
	return false
}

// Probe is the live view a StopCondition evaluates against, refreshed at
// every sample tick after battery/thermal integration.
type Probe struct {
	// Now is the current simulated time.
	Now sim.Time
	// TempC is the die temperature (hottest node under PerIPThermal).
	TempC float64
	// SoC is the battery state of charge in [0,1]; Battery its class.
	SoC     float64
	Battery battery.Status
	// EnergyJ is the total energy drawn so far (IPs + bus).
	EnergyJ float64

	wallStart time.Time
}

// Wall returns the host time elapsed since the run started. It is computed
// on demand so conditions that ignore wall time cost nothing per tick.
func (p *Probe) Wall() time.Duration { return time.Since(p.wallStart) }

// StopCondition ends a run early. Build conditions with the StopOn*
// constructors, or literally for custom predicates.
type StopCondition struct {
	// Reason labels the condition. It is recorded in Result.StopReason and
	// folded into the batch engine's cache key, so it must uniquely
	// describe the condition's behaviour (the constructors bake their
	// thresholds in).
	Reason string
	// Volatile marks conditions whose outcome depends on host timing
	// (e.g. wall-clock budgets); the engine never caches volatile jobs.
	Volatile bool
	// Eval reports whether the run should stop now.
	Eval func(p *Probe) bool
}

// StopOnBatteryEmpty ends the run when the battery class reaches Empty —
// the "run to battery death" experiment the fixed horizon could not
// express.
func StopOnBatteryEmpty() StopCondition {
	return StopCondition{
		Reason: "battery-empty",
		Eval:   func(p *Probe) bool { return p.Battery == battery.Empty },
	}
}

// StopOnTemperature ends the run when the die reaches ceilC — a thermal
// ceiling for runaway-detection experiments.
func StopOnTemperature(ceilC float64) StopCondition {
	return StopCondition{
		Reason: fmt.Sprintf("temp>=%g", ceilC),
		Eval:   func(p *Probe) bool { return p.TempC >= ceilC },
	}
}

// StopOnEnergyBudget ends the run once the SoC has drawn budgetJ joules.
func StopOnEnergyBudget(budgetJ float64) StopCondition {
	return StopCondition{
		Reason: fmt.Sprintf("energy>=%gJ", budgetJ),
		Eval:   func(p *Probe) bool { return p.EnergyJ >= budgetJ },
	}
}

// StopOnSoC ends the run when the state of charge falls to the given
// fraction — a softer battery bound than StopOnBatteryEmpty.
func StopOnSoC(floor float64) StopCondition {
	return StopCondition{
		Reason: fmt.Sprintf("soc<=%g", floor),
		Eval:   func(p *Probe) bool { return p.SoC <= floor },
	}
}

// StopOnWallClock ends the run after d of host time — a safety valve for
// grids over configurations that may simulate slowly. The condition is
// Volatile: the batch engine will not cache jobs carrying it.
func StopOnWallClock(d time.Duration) StopCondition {
	return StopCondition{
		Reason:   fmt.Sprintf("wall>=%s", d),
		Volatile: true,
		Eval:     func(p *Probe) bool { return p.Wall() >= d },
	}
}
