// Package soc assembles and runs complete system-on-chip simulations: the
// architecture of the paper's Fig. 1 — N functional IPs, each with a PSM
// and a LEM, an optional GEM, a battery, a thermal sensor and a shared bus
// — on the discrete-event kernel, with exact energy accounting and the
// measurements Table 2 is computed from.
package soc

import (
	"context"
	"fmt"
	"strconv"

	"godpm/internal/acpi"
	"godpm/internal/battery"
	"godpm/internal/bus"
	"godpm/internal/gem"
	"godpm/internal/lem"
	"godpm/internal/power"
	"godpm/internal/rules"
	"godpm/internal/sim"
	"godpm/internal/stats"
	"godpm/internal/thermal"
	"godpm/internal/workload"
)

// PolicyKind selects the energy-management policy driving every IP.
type PolicyKind string

// Available policies.
const (
	// PolicyDPM is the paper's architecture: LEM per IP, optional GEM.
	PolicyDPM PolicyKind = "dpm"
	// PolicyAlwaysOn is the Table 2 baseline: ON1, never sleep.
	PolicyAlwaysOn PolicyKind = "alwayson"
	// PolicyTimeout is classic fixed-timeout DPM.
	PolicyTimeout PolicyKind = "timeout"
	// PolicyGreedy sleeps immediately on idleness.
	PolicyGreedy PolicyKind = "greedy"
	// PolicyOracle sleeps with perfect idle knowledge.
	PolicyOracle PolicyKind = "oracle"
)

// PredictorKind selects the LEM idle-time predictor.
type PredictorKind string

// Available predictors.
const (
	PredictorEWMA     PredictorKind = "ewma"
	PredictorLast     PredictorKind = "last"
	PredictorPerfect  PredictorKind = "perfect"
	PredictorAdaptive PredictorKind = "adaptive"
	PredictorQuantile PredictorKind = "quantile"
)

// BatteryConfig selects and parameterises the battery model.
type BatteryConfig struct {
	// Kind: "linear", "kibam" or "peukert".
	Kind       string
	CapacityJ  float64
	InitialSoC float64
	Mains      bool
	// Linear rate-capacity penalty (0 disables).
	RateK    float64
	RefPower float64
	// KiBaM parameters.
	KiBaMC float64
	KiBaMK float64
	// Peukert parameters ("peukert" kind).
	PeukertExponent float64
	PeukertRefPower float64
}

// DefaultBattery returns a 20 J KiBaM battery at the given initial state of
// charge — small enough that the experiments' loads move the class.
func DefaultBattery(initialSoC float64) BatteryConfig {
	return BatteryConfig{
		Kind: "kibam", CapacityJ: 20, InitialSoC: initialSoC,
		KiBaMC: 0.35, KiBaMK: 0.08,
	}
}

// validate rejects the parameters build's constructors would panic on.
// An unknown kind is left to build, which reports it.
func (b BatteryConfig) validate() error {
	if b.InitialSoC < 0 || b.InitialSoC > 1 {
		return fmt.Errorf("soc: battery InitialSoC %v outside [0,1]", b.InitialSoC)
	}
	switch b.Kind {
	case "linear", "kibam", "peukert":
		if b.CapacityJ <= 0 {
			return fmt.Errorf("soc: %s battery CapacityJ %v is not positive", b.Kind, b.CapacityJ)
		}
	}
	switch b.Kind {
	case "kibam":
		if b.KiBaMC <= 0 || b.KiBaMC >= 1 || b.KiBaMK <= 0 {
			return fmt.Errorf("soc: KiBaM needs 0 < KiBaMC < 1 and KiBaMK > 0, got %v and %v", b.KiBaMC, b.KiBaMK)
		}
	case "peukert":
		if (b.PeukertExponent != 0 && b.PeukertExponent < 1) || b.PeukertRefPower < 0 {
			return fmt.Errorf("soc: Peukert needs PeukertExponent >= 1 and PeukertRefPower > 0 (0 selects the default), got %v and %v",
				b.PeukertExponent, b.PeukertRefPower)
		}
	}
	return nil
}

func (b BatteryConfig) build() (battery.Model, error) {
	switch b.Kind {
	case "linear":
		m := battery.NewLinear(b.CapacityJ, b.InitialSoC)
		m.RateK = b.RateK
		if b.RefPower > 0 {
			m.RefPower = b.RefPower
		}
		return m, nil
	case "kibam":
		return battery.NewKiBaM(b.CapacityJ, b.InitialSoC, b.KiBaMC, b.KiBaMK), nil
	case "peukert":
		exp, ref := b.PeukertExponent, b.PeukertRefPower
		if exp == 0 {
			exp = 1.1
		}
		if ref == 0 {
			ref = 1.0
		}
		return battery.NewPeukert(b.CapacityJ, b.InitialSoC, exp, ref), nil
	default:
		return nil, fmt.Errorf("soc: unknown battery kind %q", b.Kind)
	}
}

// LEMOptions configures the per-IP LEMs when Policy == PolicyDPM.
type LEMOptions struct {
	// Table is the selection policy; nil uses rules.Table1().
	Table *rules.Table
	// Predictor kind (default EWMA) and its smoothing factor.
	Predictor PredictorKind
	Alpha     float64
	// BreakEvenGating gates sleeping on the break-even comparison
	// (default true; Disable for the ablation).
	DisableBreakEven bool
	AllowSoftOff     bool
}

func (o LEMOptions) makeConfig() lem.Config {
	cfg := lem.NewConfig()
	if o.Table != nil {
		cfg.Table = o.Table
	}
	alpha := o.Alpha
	if alpha == 0 {
		alpha = 0.5
	}
	switch o.Predictor {
	case PredictorLast:
		cfg.Predictor = &lem.LastValue{}
	case PredictorPerfect:
		cfg.Predictor = lem.Perfect{}
	case PredictorAdaptive:
		cfg.Predictor = lem.NewAdaptive(0.9, 0.1, 0.3)
	case PredictorQuantile:
		cfg.Predictor = lem.NewWindowQuantile(16, 0.25)
	default:
		cfg.Predictor = lem.NewEWMA(alpha)
	}
	cfg.BreakEvenGating = !o.DisableBreakEven
	cfg.AllowSoftOff = o.AllowSoftOff
	return cfg
}

// IPSpec describes one IP block.
type IPSpec struct {
	Name string
	// Profile is the power characterisation; nil uses the default.
	Profile *power.Profile
	// Sequence is the closed-loop workload; generate it with the workload
	// package. Exactly one of Sequence, Arrivals and Gen must be set.
	Sequence workload.Sequence
	// Arrivals is the open-loop workload (absolute service-request times).
	Arrivals workload.ArrivalSequence
	// Gen, when its Kind is set, generates the workload during config
	// normalization: the spec is pure value data (generator kind, seed and
	// parameters), so two configs with equal specs describe the same
	// simulation and share an engine cache key. Closed-loop generators
	// fill Sequence, open-loop ones fill Arrivals; a set Gen is
	// authoritative and overwrites both. Generation happens entirely
	// before the kernel starts — it adds nothing to the tick.
	Gen workload.Spec
	// StaticPriority is the GEM priority (1 = highest); defaults to its
	// position + 1.
	StaticPriority int
	// InitialState of the PSM (default ON1).
	InitialState acpi.State
}

// Config describes a complete simulation.
type Config struct {
	IPs    []IPSpec
	Policy PolicyKind
	LEM    LEMOptions
	// UseGEM attaches a global energy manager (PolicyDPM only).
	UseGEM bool
	GEM    gem.Config

	Battery      BatteryConfig
	Thermal      thermal.Params
	InitialTempC float64

	// PerIPThermal switches from the paper's single die sensor to a
	// compact multi-node model: one thermal node per IP on a shared
	// spreader. Each LEM then observes its own node's sensor and the GEM
	// observes the hottest node. ThermalNetwork parameterises the model
	// (zero value → thermal.DefaultNetworkParams).
	PerIPThermal   bool
	ThermalNetwork thermal.NetworkParams

	// Regulator, when non-nil, models the DC-DC converter between the
	// battery and the SoC: the battery supplies InputPower(load) instead
	// of the load itself. The converter's heat is dissipated off-die (it
	// does not enter the thermal node). The intermediate rail is the first
	// IP profile's ON1 voltage.
	Regulator *power.Regulator

	// Bus configuration; BusWords == 0 disables the bus entirely.
	Bus      bus.Config
	BusWords int

	// Timeout policy parameters.
	Timeout           sim.Time
	TimeoutSleepState acpi.State
	// Greedy policy parameter.
	GreedySleepState acpi.State

	// SampleInterval is the battery/thermal integration step
	// (default 100 µs).
	SampleInterval sim.Time
	// Horizon bounds the simulation (default 120 s); a run that hits the
	// horizon reports Completed == false.
	Horizon sim.Time
	// BaseClockHz converts simulated time to the paper's "cycles"
	// (default: the ON1 frequency of the first IP).
	BaseClockHz float64
}

// Result carries everything the experiment harness needs.
type Result struct {
	// EnergyJ is the total energy (IPs incl. transitions + bus).
	EnergyJ    float64
	EnergyByIP map[string]float64
	BusEnergyJ float64

	// AvgTempC is the time-weighted mean die temperature; AmbientC the
	// configured ambient.
	AvgTempC  float64
	PeakTempC float64
	AmbientC  float64

	Ledger    *stats.Ledger
	Duration  sim.Time
	Completed bool
	TasksDone int

	// StopReason is the Reason of the RunOptions.StopWhen condition that
	// ended the run early ("" when the run completed or hit the horizon).
	StopReason string

	// Deltas is the kernel's delta-cycle count — a scheduling checksum:
	// two runs of the same configuration must agree on it exactly, which
	// the determinism tests use to pin kernel rewrites to the old
	// scheduler's behaviour.
	Deltas uint64

	// Cycles is Duration × BaseClockHz; WallSeconds the host time spent —
	// together they give the paper's Kcycle/s simulation speed.
	Cycles      float64
	WallSeconds float64

	FinalSoC           float64
	FinalBatteryStatus battery.Status

	LEMStats       map[string]lem.Stats
	GEMEvaluations int
	FanSwitches    int
	BusOccupancy   float64
}

// KCyclesPerSec returns the simulation speed in the paper's unit.
func (r *Result) KCyclesPerSec() float64 {
	if r.WallSeconds <= 0 {
		return 0
	}
	return r.Cycles / r.WallSeconds / 1000
}

// Normalized returns a copy of the configuration with every defaultable
// field filled in, exactly as Run will interpret it. Two configurations
// that normalize identically produce identical simulations, which makes
// the normalized form the right input for content-addressed caching
// (internal/engine hashes it). The IPs slice and its specs are copied —
// filling defaults never mutates the receiver — but Profile pointers and
// Sequence/Arrivals backing arrays stay shared; treat them as immutable
// (Run only reads them).
func (c Config) Normalized() (Config, error) {
	c.IPs = append([]IPSpec(nil), c.IPs...)
	if err := c.fillDefaults(); err != nil {
		return Config{}, err
	}
	return c, nil
}

func (c *Config) fillDefaults() error {
	if len(c.IPs) == 0 {
		return fmt.Errorf("soc: no IPs configured")
	}
	if c.Policy == "" {
		c.Policy = PolicyDPM
	}
	if c.Battery.Kind == "" {
		c.Battery = DefaultBattery(0.95)
	}
	if c.Thermal == (thermal.Params{}) {
		c.Thermal = thermal.DefaultParams()
	}
	if c.InitialTempC == 0 {
		c.InitialTempC = c.Thermal.AmbientC
	}
	if c.Bus == (bus.Config{}) {
		c.Bus = bus.DefaultConfig()
	}
	// The battery and thermal constructors panic on out-of-range
	// parameters; refuse them here so an inline config gets an error, not
	// a crashed worker.
	if err := c.Battery.validate(); err != nil {
		return err
	}
	if c.PerIPThermal {
		if c.ThermalNetwork != (thermal.NetworkParams{}) {
			if err := c.ThermalNetwork.Validate(); err != nil {
				return fmt.Errorf("soc: %w", err)
			}
		}
	} else if err := c.Thermal.Validate(); err != nil {
		return fmt.Errorf("soc: %w", err)
	}
	if c.Policy == PolicyTimeout && c.Timeout < 0 {
		return fmt.Errorf("soc: negative Timeout %v", c.Timeout)
	}
	// Zero selects the defaults below; a negative interval would panic the
	// sampling clock, and a negative horizon would "run" to nothing.
	if c.SampleInterval < 0 {
		return fmt.Errorf("soc: negative SampleInterval %v", c.SampleInterval)
	}
	if c.Horizon < 0 {
		return fmt.Errorf("soc: negative Horizon %v", c.Horizon)
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 100 * sim.Us
	}
	if c.Horizon == 0 {
		c.Horizon = 120 * sim.Sec
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * sim.Ms
	}
	if c.TimeoutSleepState == acpi.State(0) || c.TimeoutSleepState.IsOn() {
		c.TimeoutSleepState = acpi.SL2
	}
	if c.GreedySleepState == acpi.State(0) || c.GreedySleepState.IsOn() {
		c.GreedySleepState = acpi.SL1
	}
	for i := range c.IPs {
		spec := &c.IPs[i]
		if spec.Name == "" {
			spec.Name = "ip" + strconv.Itoa(i)
		}
		if spec.Profile == nil {
			spec.Profile = power.DefaultProfile()
		}
		if err := spec.Profile.Validate(); err != nil {
			return fmt.Errorf("soc: %s: %w", spec.Name, err)
		}
		if spec.Gen.Kind != workload.GenNone {
			// Gen is authoritative: it (re)generates the workload whenever
			// set. Generation is deterministic, so normalizing an
			// already-normalized config reproduces the same workload and
			// Normalized stays idempotent. The spec's own defaults are
			// filled first so a field left zero and the same field set to
			// its documented default share one engine cache key.
			spec.Gen = spec.Gen.Normalized()
			seq, arr, err := spec.Gen.Materialize()
			if err != nil {
				return fmt.Errorf("soc: %s: %w", spec.Name, err)
			}
			spec.Sequence, spec.Arrivals = seq, arr
		}
		if (len(spec.Sequence) > 0) == (len(spec.Arrivals) > 0) {
			return fmt.Errorf("soc: %s: exactly one of Sequence and Arrivals must be set", spec.Name)
		}
		if err := spec.Sequence.Validate(); err != nil {
			return fmt.Errorf("soc: %s: %w", spec.Name, err)
		}
		if err := spec.Arrivals.Validate(); err != nil {
			return fmt.Errorf("soc: %s: %w", spec.Name, err)
		}
		if spec.StaticPriority == 0 {
			spec.StaticPriority = i + 1
		}
		if spec.InitialState == acpi.State(0) {
			spec.InitialState = acpi.ON1
		}
	}
	if c.BaseClockHz == 0 {
		c.BaseClockHz = c.IPs[0].Profile.On[0].FreqHz
	}
	if c.UseGEM && c.Policy != PolicyDPM {
		return fmt.Errorf("soc: GEM requires the DPM policy")
	}
	// Normalize the manager options too, so Normalized() upholds the
	// "field left zero == field set to its documented default" equivalence
	// that engine.Fingerprint keys on. Options that cannot influence the
	// run (LEM under a non-DPM policy, GEM when unused) are zeroed.
	if c.Policy == PolicyDPM {
		if c.LEM.Table == nil {
			c.LEM.Table = rules.Table1()
		}
		if c.LEM.Predictor == "" {
			c.LEM.Predictor = PredictorEWMA
		}
		switch c.LEM.Predictor {
		case PredictorLast, PredictorPerfect, PredictorAdaptive, PredictorQuantile:
			// Alpha is only consumed by the EWMA predictor.
			c.LEM.Alpha = 0
		default:
			if c.LEM.Alpha == 0 {
				c.LEM.Alpha = 0.5
			}
		}
	} else {
		c.LEM = LEMOptions{}
	}
	if c.UseGEM {
		if c.GEM.HighPriorityCutoff <= 0 {
			c.GEM.HighPriorityCutoff = gem.DefaultConfig().HighPriorityCutoff
		}
	} else {
		c.GEM = gem.Config{}
	}
	if c.Policy != PolicyTimeout {
		c.Timeout = 0
		c.TimeoutSleepState = acpi.State(0)
	}
	if c.Policy != PolicyGreedy {
		c.GreedySleepState = acpi.State(0)
	}
	if c.Regulator != nil {
		if err := c.Regulator.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Run builds the SoC and simulates it to completion (all sequences done) or
// to the horizon. It is RunWith with a background context and no options.
//
// Run is safe for concurrent use: every call builds its own kernel and
// components, the configuration is normalized into a private copy before
// any mutation, and nothing in this package or the packages it assembles
// holds package-level mutable state. Sharing one Config value (including
// its IPs, Sequences and Profile pointers) across simultaneous Runs is
// fine as long as callers do not mutate it mid-run.
func Run(cfg Config) (*Result, error) {
	return RunWith(context.Background(), cfg, RunOptions{})
}

// RunWith builds the SoC and simulates it like Run, with run-time options:
// opts.Observers stream instrumentation callbacks (see Observer) and
// opts.StopWhen ends the run early on battery, thermal, energy or
// wall-clock conditions. Options are pure run-time concerns — the Result of
// an observed run is bit-identical to a bare Run of the same Config (stop
// conditions excepted, since they genuinely shorten the run).
//
// Cancellation is prompt: ctx is polled once per accountant call — every
// sample while the run is busy, at least every 1024 samples through idle
// gaps — and a cancelled run returns ctx.Err() and no result.
func RunWith(ctx context.Context, cfg Config, opts RunOptions) (*Result, error) {
	s, err := newSession(ctx, cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := s.advance(ctx, s.cfg.Horizon); err != nil {
		return nil, err
	}
	res := s.finish(s.acct.stopReason)
	if s.disp != nil {
		s.disp.runEnd(res)
		if err := s.disp.err(); err != nil {
			return nil, fmt.Errorf("soc: observer: %w", err)
		}
	}
	return res, nil
}
