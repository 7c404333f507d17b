package godpm

import (
	"context"
	"io"
	"time"

	"godpm/internal/chaos"
	"godpm/internal/engine"
	"godpm/internal/experiments"
	"godpm/internal/journal"
	"godpm/internal/rules"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/stats"
	"godpm/internal/sweep"
	"godpm/internal/trace"
	"godpm/internal/workload"
)

// Version identifies the library release. 2.x is the observer-based run
// API: Config carries no output hooks, instrumentation attaches through
// RunWith/RunOptions.
const Version = "2.0.0"

// Simulated time. One Time unit is a picosecond; use the unit constants to
// build durations (Horizon: 60 * godpm.Sec).
type Time = sim.Time

// Time units.
const (
	Ns  = sim.Ns
	Us  = sim.Us
	Ms  = sim.Ms
	Sec = sim.Sec
)

// Configuration and result types.
type (
	// Config describes a complete SoC simulation. It is pure value data:
	// hashable, cacheable, and free of output hooks — attach those through
	// RunOptions.
	Config = soc.Config
	// IPSpec describes one IP block.
	IPSpec = soc.IPSpec
	// Result carries measurements of one run.
	Result = soc.Result
	// PolicyKind selects the energy-management policy (see the Policy
	// constants).
	PolicyKind = soc.PolicyKind
	// BatteryConfig selects the battery model.
	BatteryConfig = soc.BatteryConfig
	// LEMOptions tunes the local energy managers.
	LEMOptions = soc.LEMOptions
	// Scenario is one of the paper's experiments.
	Scenario = experiments.Scenario
	// Row is one measured Table 2 line.
	Row = experiments.Row
	// Tuning sets experiment-wide workload knobs.
	Tuning = experiments.Tuning
)

// Policy kinds.
const (
	PolicyDPM      = soc.PolicyDPM
	PolicyAlwaysOn = soc.PolicyAlwaysOn
	PolicyTimeout  = soc.PolicyTimeout
	PolicyGreedy   = soc.PolicyGreedy
	PolicyOracle   = soc.PolicyOracle
)

// LEM predictor kinds.
const (
	PredictorEWMA     = soc.PredictorEWMA
	PredictorLast     = soc.PredictorLast
	PredictorPerfect  = soc.PredictorPerfect
	PredictorAdaptive = soc.PredictorAdaptive
	PredictorQuantile = soc.PredictorQuantile
)

// Run simulates the configured SoC to completion or to the horizon.
func Run(cfg Config) (*Result, error) { return soc.Run(cfg) }

// RunWith simulates like Run, with run-time options: streaming observers
// and early-stop conditions. Cancellation via ctx is polled at least every
// 1024 samples.
func RunWith(ctx context.Context, cfg Config, opts RunOptions) (*Result, error) {
	return soc.RunWith(ctx, cfg, opts)
}

// Instrumentation: the observer API.
type (
	// Observer receives streaming callbacks during a run (PSM state
	// changes, task completions, periodic samples, battery/thermal class
	// transitions, run end). Embed NopObserver and override what you need.
	Observer = soc.Observer
	// NopObserver implements every Observer callback as a no-op.
	NopObserver = soc.NopObserver
	// RunInfo describes the run an observer is attached to.
	RunInfo = soc.RunInfo
	// Sample is one periodic temperature/power/state-of-charge sample.
	Sample = soc.Sample
	// RunOptions carries observers and stop conditions for RunWith.
	RunOptions = soc.RunOptions
	// StopCondition ends a run early (see the StopOn constructors).
	StopCondition = soc.StopCondition
	// Probe is the live view a StopCondition evaluates against.
	Probe = soc.Probe
	// VCDObserver writes the run's waveforms as a GTKWave-compatible VCD.
	VCDObserver = trace.VCDObserver
	// CSVObserver writes one CSV row per periodic sample.
	CSVObserver = trace.CSVObserver
)

// NewVCDObserver returns an observer streaming the PSM/battery/thermal
// waveforms to w in VCD format.
func NewVCDObserver(w io.Writer) *VCDObserver { return trace.NewVCDObserver(w) }

// NewCSVObserver returns an observer writing sampled scalars (temperature,
// state of charge, per-IP power) to w as CSV.
func NewCSVObserver(w io.Writer) *CSVObserver { return trace.NewCSVObserver(w) }

// Early-stop conditions for RunOptions.StopWhen.
var (
	// StopOnBatteryEmpty ends the run when the battery class hits Empty.
	StopOnBatteryEmpty = soc.StopOnBatteryEmpty
	// StopOnTemperature ends the run at a die-temperature ceiling.
	StopOnTemperature = soc.StopOnTemperature
	// StopOnEnergyBudget ends the run once a total energy budget is spent.
	StopOnEnergyBudget = soc.StopOnEnergyBudget
	// StopOnSoC ends the run when the state of charge reaches a floor.
	StopOnSoC = soc.StopOnSoC
	// StopOnWallClock ends the run after a host-time budget (volatile:
	// such jobs are never cached by the engine).
	StopOnWallClock = soc.StopOnWallClock
)

// DefaultBattery returns the experiments' battery at the given state of
// charge.
func DefaultBattery(initialSoC float64) BatteryConfig { return soc.DefaultBattery(initialSoC) }

// Scenarios returns the paper's six Table 2 experiments.
func Scenarios(t Tuning) []Scenario { return experiments.All(t) }

// Extensions returns the beyond-the-paper scenarios (per-IP thermal
// network, open-loop arrivals, regulator losses).
func Extensions(t Tuning) []Scenario { return experiments.Extensions(t) }

// ResolveScenario returns the paper scenario or extension a name denotes:
// trimmed, matched case-insensitively, and refused with the ID list
// before anything is built when unknown.
func ResolveScenario(name string, t Tuning) (Scenario, error) { return experiments.Resolve(name, t) }

// ScenarioByID returns one named paper experiment (A1..A4, B, C).
func ScenarioByID(id string, t Tuning) (Scenario, error) { return experiments.ByID(id, t) }

// ExtensionIDs returns the extension scenario IDs, sorted, without
// building any scenario.
func ExtensionIDs() []string { return experiments.ExtensionIDs() }

// DefaultTuning returns the experiments' default workload knobs.
func DefaultTuning() Tuning { return experiments.DefaultTuning() }

// RunScenario executes a scenario and its always-on baseline and computes
// the Table 2 row.
func RunScenario(s Scenario) (Row, error) { return experiments.RunScenario(s) }

// Baseline derives the always-on reference configuration of a scenario.
func Baseline(s Scenario) Config { return experiments.Baseline(s) }

// FormatTable2 renders measured rows next to the paper's numbers.
func FormatTable2(rows []Row) string { return experiments.FormatTable2(rows) }

// Topology renders a scenario's Fig. 1 component graph.
func Topology(s Scenario) string { return experiments.Topology(s) }

// Batch engine: the concurrent, cached execution layer for scenario
// grids, sweeps and replicated runs.
type (
	// Engine shards simulation jobs across a worker pool with result
	// caching.
	Engine = engine.Engine
	// EngineOptions configures workers, cache and progress callbacks.
	EngineOptions = engine.Options
	// EngineStats are the engine's cumulative hit/miss/run counters.
	EngineStats = engine.Stats
	// Plan is an ordered list of simulation jobs.
	Plan = engine.Plan
	// Job is one unit of work: a Config plus optional RunOptions.
	Job = engine.Job
	// JobResult is one job's outcome (result, cache hit, error).
	JobResult = engine.JobResult
	// Cache is one local tier of a TieredCache: memory (LRUCache) or
	// files; the shared remote store's client sits behind them. Records
	// handed out by Cache.Get are shared across jobs, engines and — under
	// dpmserve — HTTP requests: treat them as strictly immutable.
	Cache = engine.Cache
	// CacheStorage is what EngineOptions.Cache and NewBlobServer take: a
	// *TieredCache, or an *LRUCache, which runs as a memory-only store.
	CacheStorage = engine.Storage
	// CacheRecord is the unit every cache tier stores and every server
	// serves: one result's pre-encoded canonical bytes (versioned binary
	// container, compressed body, checksum, cached content digest) plus
	// the lazily-decoded Result. See NewCacheRecord/DecodeCacheRecord.
	CacheRecord = engine.Record
	// CacheCodec identifies a record body's compression (the container's
	// codec byte).
	CacheCodec = engine.Codec
	// LRUCache is the sharded, bounded in-memory cache: a store's memory
	// tier, and the engine's default when EngineOptions.Cache is nil.
	LRUCache = engine.LRU
	// LRUOptions bounds an LRUCache (entry cap, approximate byte cap,
	// shard count).
	LRUOptions = engine.LRUOptions
	// DiskCacheOptions bounds a disk tier (on-disk byte cap with
	// LRU-by-mtime GC, fsync, filesystem seam).
	DiskCacheOptions = engine.DiskOptions
	// TierStats are one store tier's hit/miss/occupancy counters,
	// surfaced in EngineStats.Tiers and BlobServerStats.Tiers.
	TierStats = engine.TierStats
)

// Distributed cache tier: a fleet of processes sharing one dpmremote
// hash-addressed result store, so each distinct simulation happens once
// fleet-wide.
type (
	// RemoteCacheOptions configures a store's client tier for a
	// dpmremote server (base URL, per-op timeout, retries, breaker). The
	// client fails open: a down, slow or corrupt remote degrades to a
	// miss, never to a request failure.
	RemoteCacheOptions = engine.RemoteOptions
	// TieredCache is the result store: memory, then optionally files,
	// then optionally the shared remote store, with read-through
	// promotion and write-behind Puts to the remote tier.
	TieredCache = engine.Store
	// BlobServer is the server side of the dpmremote protocol: an
	// http.Handler serving HEAD/GET/PUT /v1/blob/{fingerprint} and the
	// batched POST /v1/stat over a result store.
	BlobServer = engine.BlobServer
	// BlobServerOptions bounds a BlobServer (max blob bytes, max stat
	// batch).
	BlobServerOptions = engine.BlobServerOptions
	// BlobServerStats are a BlobServer's request counters plus store
	// occupancy.
	BlobServerStats = engine.BlobServerStats
)

// Tier names used in TierStats by the built-in caches.
const (
	TierMemory = engine.TierMemory
	TierDisk   = engine.TierDisk
	TierRemote = engine.TierRemote
)

// Record body codecs (CacheRecord.Encode's argument). Every store writes
// flate; DecodeCacheRecord reads either.
const (
	// CodecRaw stores canonical JSON uncompressed.
	CodecRaw = engine.CodecRaw
	// CodecFlate compresses bodies with DEFLATE.
	CodecFlate = engine.CodecFlate
)

// NewCacheRecord builds a cache record from a computed result,
// marshalling it exactly once; DecodeCacheRecord parses (and checksums)
// an encoded container without decompressing its body.
func NewCacheRecord(key string, r *Result) (*CacheRecord, error) { return engine.NewRecord(key, r) }

// DecodeCacheRecord parses a binary record container (see CacheRecord).
func DecodeCacheRecord(data []byte) (*CacheRecord, error) { return engine.DecodeRecord(data) }

// Deterministic fault injection: seed-driven chaos schedules for proving
// the cache fleet's failure contracts (see internal/chaos).
type (
	// ChaosPlan is a complete seeded fault schedule — one ChaosSpec per
	// seam (cache tier, HTTP transport, disk filesystem). A pure value:
	// hashable, and two equal plans inject bit-identical schedules.
	ChaosPlan = chaos.Plan
	// ChaosSpec sets one seam's fault probabilities (latency, transient/
	// permanent errors, corruption, torn writes, outage window).
	ChaosSpec = chaos.Spec
	// CacheFS is the filesystem seam a disk tier's writes go through
	// (DiskCacheOptions.FS); wrap it to inject filesystem faults.
	CacheFS = engine.FS
)

// DefaultChaosPlan returns the stock chaos schedule the serving
// commands' -chaos-seed flags apply.
func DefaultChaosPlan(seed WorkloadSeed) ChaosPlan { return chaos.DefaultPlan(seed) }

// ErrEngineInternal marks a job error that is a fault of the engine or
// the model (a panic the engine contained), not of the job's config.
var ErrEngineInternal = engine.ErrInternal

// OSCacheFS is the real filesystem for DiskCacheOptions.FS (the default
// when FS is nil); chaos plans wrap it.
var OSCacheFS CacheFS = engine.OSFS

// NewTieredCache builds the result store over the memory tier (an
// LRUCache, or a chaos wrapper of one): a non-empty dir adds a disk tier
// with the given bounds, and a non-nil remote adds a client of the
// dpmremote store at remote.BaseURL. Call Close on the result to flush
// the write-behind queue on shutdown.
func NewTieredCache(memory Cache, dir string, disk DiskCacheOptions, remote *RemoteCacheOptions) (*TieredCache, error) {
	return engine.NewStore(memory, dir, disk, remote)
}

// NewBlobServer builds the dpmremote protocol handler over a result
// store (canonically one with a size-capped disk tier).
func NewBlobServer(store CacheStorage, opts BlobServerOptions) *BlobServer {
	return engine.NewBlobServer(store, opts)
}

// NewEngine builds a batch engine (Workers == 0 means NumCPU).
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// NewLRUCache builds a sharded bounded in-memory result cache; the zero
// LRUOptions selects the defaults the engine itself uses.
func NewLRUCache(opts LRUOptions) *LRUCache { return engine.NewLRU(opts) }

// Fingerprint returns the canonical content hash of a configuration (the
// engine's cache key).
func Fingerprint(cfg Config) (string, error) { return engine.Fingerprint(cfg) }

// ResultDigest hashes the deterministic content of a Result (everything
// except host-timing fields), for determinism checks across runs.
func ResultDigest(r *Result) string { return engine.ResultDigest(r) }

// ScenarioPlan lays scenarios out as dpm/baseline job pairs.
func ScenarioPlan(scenarios []Scenario) Plan { return experiments.Plan(scenarios) }

// ReplicatedScenarioPlan fans scenarios out across workload seeds; rebuild
// regenerates a scenario for one seed.
func ReplicatedScenarioPlan(scenarios []Scenario, seeds []int64, rebuild func(s Scenario, seed int64) Scenario) Plan {
	return experiments.ReplicatedPlan(scenarios, seeds, rebuild)
}

// RunScenarios executes scenarios on the engine and returns Table 2 rows.
func RunScenarios(ctx context.Context, eng *Engine, scenarios []Scenario) ([]Row, error) {
	return experiments.RunScenarios(ctx, eng, scenarios)
}

// Parameter sweeps.
type (
	// Sweep varies one parameter over a base configuration.
	Sweep = sweep.Sweep
	// SweepPoint is one measured sweep sample.
	SweepPoint = sweep.Point
)

// ResolveStudy returns the built-in parameter study (activity, alpha,
// horizon, timeout) a user-supplied name denotes, trimmed and matched
// case-insensitively; only the match is built, and an unknown name is
// refused with the list of names.
func ResolveStudy(name string, seed int64, numTasks int) (Sweep, error) {
	return sweep.Resolve(name, seed, numTasks)
}

// Rule tables (the paper's Table 1 policy language).

// RuleTable is a power-state selection policy table.
type RuleTable = rules.Table

// Table1 returns the paper's power-state selection policy.
func Table1() *RuleTable { return rules.Table1() }

// Table1DSL is the same policy in the natural-language rule form.
const Table1DSL = rules.Table1DSL

// ParseRules parses a policy script in the natural-language rule form.
func ParseRules(script string) (*RuleTable, error) { return rules.Parse(script) }

// Workload generation.
type (
	// WorkloadProfile parameterises a synthetic traffic generator.
	WorkloadProfile = workload.Profile
	// Sequence is a closed-loop workload (task, then idle gap).
	Sequence = workload.Sequence
	// ArrivalSequence is an open-loop workload (absolute request times).
	ArrivalSequence = workload.ArrivalSequence
	// WorkloadSeed is the splittable deterministic PRNG seed driving the
	// stochastic generators; split it per scenario and per IP.
	WorkloadSeed = workload.Seed
	// GenSpec describes a workload generator as pure value data. Placed
	// on IPSpec.Gen it is materialized during normalization and folds
	// into the engine's cache key.
	GenSpec = workload.Spec
	// BurstProfile generates closed-loop geometric ON/OFF bursts.
	BurstProfile = workload.BurstProfile
	// MMPPProfile generates open-loop Markov-modulated (ON/OFF) arrivals.
	MMPPProfile = workload.MMPPProfile
	// PeriodicProfile generates open-loop periodic arrivals with jitter.
	PeriodicProfile = workload.PeriodicProfile
	// HeavyTailProfile generates closed-loop Pareto (heavy-tailed) idle
	// gaps.
	HeavyTailProfile = workload.HeavyTailProfile
)

// HighActivity returns a busy workload profile (short idle gaps).
func HighActivity(seed int64, numTasks int) WorkloadProfile {
	return workload.HighActivity(seed, numTasks)
}

// LowActivity returns an idle-heavy workload profile.
func LowActivity(seed int64, numTasks int) WorkloadProfile {
	return workload.LowActivity(seed, numTasks)
}

// NewSeed wraps a raw value as a splittable workload seed.
func NewSeed(n uint64) WorkloadSeed { return workload.NewSeed(n) }

// DefaultBurst returns the bursty closed-loop profile preset.
func DefaultBurst(seed int64, numTasks int) BurstProfile {
	return workload.DefaultBurst(seed, numTasks)
}

// DefaultMMPP returns the ON/OFF Markov-modulated arrival preset.
func DefaultMMPP(seed WorkloadSeed, numTasks int) MMPPProfile {
	return workload.DefaultMMPP(seed, numTasks)
}

// DefaultPeriodic returns the periodic-with-jitter arrival preset.
func DefaultPeriodic(seed WorkloadSeed, numTasks int) PeriodicProfile {
	return workload.DefaultPeriodic(seed, numTasks)
}

// DefaultHeavyTail returns the Pareto idle-gap preset.
func DefaultHeavyTail(seed WorkloadSeed, numTasks int) HeavyTailProfile {
	return workload.DefaultHeavyTail(seed, numTasks)
}

// Generator spec constructors for IPSpec.Gen.
var (
	// ClosedGen wraps a WorkloadProfile as a generator spec.
	ClosedGen = workload.ClosedSpec
	// BurstGen wraps a BurstProfile as a generator spec.
	BurstGen = workload.BurstSpec
	// MMPPGen wraps an MMPPProfile as a generator spec.
	MMPPGen = workload.MMPPSpec
	// PeriodicGen wraps a PeriodicProfile as a generator spec.
	PeriodicGen = workload.PeriodicSpec
	// HeavyTailGen wraps a HeavyTailProfile as a generator spec.
	HeavyTailGen = workload.HeavyTailSpec
	// TraceGen wraps a literal sequence (e.g. from ImportWorkloadCSV) as
	// a replay spec.
	TraceGen = workload.TraceSpec
)

// ExportWorkloadCSV writes a sequence as CSV for later replay.
func ExportWorkloadCSV(w io.Writer, s Sequence) error { return workload.ExportCSV(w, s) }

// ImportWorkloadCSV reads a sequence written by ExportWorkloadCSV.
func ImportWorkloadCSV(r io.Reader) (Sequence, error) { return workload.ImportCSV(r) }

// Policy tournaments: cross policies × generated scenarios × seeds on the
// batch engine and rank the aggregate leaderboard.
type (
	// Tournament crosses Policies × Scenarios × Seeds.
	Tournament = engine.Tournament
	// TournamentScenario is one named configuration template.
	TournamentScenario = engine.NamedConfig
	// TournamentPolicy is one named entrant transformation.
	TournamentPolicy = engine.PolicyVariant
	// TournamentResult carries cells, the ranked leaderboard and engine
	// counters.
	TournamentResult = engine.TournamentResult
	// TournamentCell is one (scenario, policy) aggregate over seeds.
	TournamentCell = engine.Cell
	// Standing is one ranked leaderboard row.
	Standing = engine.Standing
	// Summary is a replicate aggregate: mean, stddev, 95% CI, extremes.
	Summary = stats.Summary
)

// RunTournament executes the tournament on the engine and aggregates the
// ranked leaderboard.
func RunTournament(ctx context.Context, eng *Engine, t Tournament) (*TournamentResult, error) {
	return engine.RunTournament(ctx, eng, t)
}

// StandardPolicies returns the built-in policy lineup (dpm, alwayson,
// timeout, greedy, oracle) as tournament entrants.
func StandardPolicies() []TournamentPolicy { return engine.StandardPolicies() }

// ArenaScenarios returns the built-in generated-scenario catalog (steady,
// bursty, mmpp, periodic, heavytail), numTasks tasks each.
func ArenaScenarios(numTasks int) []TournamentScenario { return engine.ArenaScenarios(numTasks) }

// TournamentEntrants picks entrants by name from StandardPolicies and
// ArenaScenarios(numTasks): names are trimmed and matched
// case-insensitively, and an empty list selects the whole catalogue.
func TournamentEntrants(policies, scenarios []string, numTasks int) ([]TournamentPolicy, []TournamentScenario, error) {
	return engine.Entrants(policies, scenarios, numTasks)
}

// Summarize aggregates replicate measurements into mean/stddev/95% CI.
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }

// MissedDeadlines counts ledger tasks whose service time exceeds the
// deadline (0 disables).
func MissedDeadlines(l *Ledger, deadline Time) int { return stats.MissedDeadlines(l, deadline) }

// Measurement helpers.
type (
	// Ledger records per-task timings across a run.
	Ledger = stats.Ledger
	// TaskRecord is one executed task's ledger entry.
	TaskRecord = stats.TaskRecord
)

// EnergySavingPct computes the paper's energy-saving metric (% vs the
// baseline energy).
func EnergySavingPct(baseJ, dpmJ float64) (float64, error) {
	return stats.EnergySavingPct(baseJ, dpmJ)
}

// DelayOverheadPct computes the paper's delay-overhead metric from two
// ledgers of the same workload.
func DelayOverheadPct(base, dpm *Ledger) (float64, error) {
	return stats.DelayOverheadPct(base, dpm)
}

// Observability: the HDR-style latency sketch, rolling rate counters and
// the request journal shared by dpmserve, dpmremote, dpmload and the
// dpmtop dashboard (see README "Observability").
type (
	// Histogram is a fixed-memory log-bucketed sketch with lock-free
	// concurrent Record; the zero value is ready to use.
	Histogram = stats.Histogram
	// HistogramSnapshot is a point-in-time, mergeable, JSON-encodable
	// histogram; quantile error is bounded by HistRelError.
	HistogramSnapshot = stats.HistSnapshot
	// LatencySummary is the shared headline-quantile shape (p50/p90/p99/
	// max in milliseconds over microsecond observations).
	LatencySummary = stats.LatencySummary
	// Latency pairs a LatencySummary with the sketch it came from — the
	// per-endpoint /statsz shape aggregators merge exactly.
	Latency = stats.Latency
	// RateWindow rolls one cumulative counter into a per-second rate.
	RateWindow = stats.RateWindow
	// RateSet rolls a named family of cumulative counters (the /statsz
	// "rates_per_s" object).
	RateSet = stats.RateSet

	// JournalRecord is one journaled request.
	JournalRecord = journal.Record
	// JournalWriter appends size-cap-rotated NDJSON journal files.
	JournalWriter = journal.Writer
	// JournalOptions configures OpenJournal.
	JournalOptions = journal.Options
	// JournalReader iterates a journal, skipping torn lines.
	JournalReader = journal.Reader
)

// HistRelError is the histogram sketch's worst-case relative quantile
// value error.
const HistRelError = stats.HistRelError

// Journal endpoint and outcome labels.
const (
	JournalEndpointSimulate   = journal.EndpointSimulate
	JournalEndpointTournament = journal.EndpointTournament
	JournalOutcomeHit         = journal.OutcomeHit
	JournalOutcomeRun         = journal.OutcomeRun
	JournalOutcomeError       = journal.OutcomeError
	JournalOutcomeCanceled    = journal.OutcomeCanceled
	JournalOutcomeThrottled   = journal.OutcomeThrottled
)

// LatencyOf pairs a histogram snapshot with its headline summary.
func LatencyOf(s HistogramSnapshot) Latency { return stats.LatencyOf(s) }

// NewRateSet builds a rate set whose windows span the given duration (≤0
// selects the 60s default).
func NewRateSet(window time.Duration) *RateSet { return stats.NewRateSet(window) }

// OpenJournal creates (or truncates) a request journal at path.
func OpenJournal(path string, opts JournalOptions) (*JournalWriter, error) {
	return journal.Open(path, opts)
}

// NewJournalReader wraps an NDJSON journal stream.
func NewJournalReader(r io.Reader) *JournalReader { return journal.NewReader(r) }

// ReadJournal loads every record of the journal at path, reporting how
// many torn/malformed lines were skipped.
func ReadJournal(path string) (recs []JournalRecord, skipped int, err error) {
	return journal.ReadFile(path)
}
