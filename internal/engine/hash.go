package engine

// Canonical encoding. Cache keys and result digests are SHA-256 sums over
// a canonical byte encoding of the normalized soc.Config and of the
// soc.Result. The encoding is a sequence of labelled fields, "|name=value";
// the label keeps adjacent fields from aliasing ("ab"+"c" vs "a"+"bc").
// Values are rendered the way fmt's %+v verb renders them — structs as
// "{Field:value Field:value}", arrays and slices as "[a b]", floats in
// strconv's shortest 'g' form, integers in decimal, and Stringer fields
// through their type's String — because the keys of every existing store
// were computed that way. The appenders below produce those bytes
// directly into a pooled buffer: no fmt, no reflection, no per-field
// allocation. Stringer fields go through the types' allocation-free
// Append methods (sim.Time, acpi.State, task.Priority, ...), which their
// String methods share. hash_ref_test.go keeps the fmt implementation
// as the reference; a differential test fills every field of Config and
// Result with random values and requires byte equality, so a field added
// to a rendered struct without an appender fails the suite.

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"sync"

	"godpm/internal/bus"
	"godpm/internal/gem"
	"godpm/internal/power"
	"godpm/internal/soc"
	"godpm/internal/stats"
	"godpm/internal/task"
	"godpm/internal/thermal"
	"godpm/internal/workload"
)

// fingerprintVersion is folded into every key so a change to the encoding
// (or to the meaning of a config field) invalidates old cache entries.
// Bump it whenever soc.Config grows a result-affecting field, or when
// soc.Result grows a field (stale disk entries would otherwise deserialise
// with the zero value and masquerade as computed results).
//
// v3: soc.Config lost its TraceVCD/TraceCSV writer fields (instrumentation
// moved to observers, which never affect the Result) and soc.Result gained
// StopReason.
//
// v4: soc.IPSpec gained Gen (a workload generator spec materialized during
// normalization). The spec's parameters are folded into the key alongside
// the expanded workload.
const fingerprintVersion = "godpm-config-v4"

// resultVersion prefixes every ResultDigest input.
const resultVersion = "godpm-result-v3"

// normalizeConfig is the one normalization the engine makes: every key
// derives from it, and every run simulates the config it returns. Tests
// count calls through it.
var normalizeConfig = soc.Config.Normalize

// Fingerprint returns the canonical content hash of a simulation
// configuration, usable as a cache key: two configs hash equally iff they
// describe the same simulation. The config is normalized first, so a field
// left zero and the same field set to its documented default are the same
// key. Config is pure value data — every field affects the Result, so all
// of them are hashed.
func Fingerprint(cfg soc.Config) (string, error) {
	k := keysOf(Job{Config: cfg}, false, materializeSpec)
	return k.key, k.err
}

// jobKeys are a job's content keys, derived from one normalization and
// one encoding of its config.
type jobKeys struct {
	// key is the job's cache key: the config fingerprint, extended with
	// the stop conditions' Reason strings when the job carries any —
	// stopping early changes the Result, so `A1` and `A1 until battery
	// death` must never share a cache slot. Observers are deliberately
	// excluded: they do not affect the Result.
	key string
	// prefix is the fork-prefix key (see fork.go); "" unless requested.
	prefix string
	// norm is the normalized config both keys hash, and the config the
	// job's run simulates.
	norm soc.NormalConfig
	// err is the normalization error; both keys are "" when it is set.
	err error
	// done marks keys that were derived; planUnits leaves a job's keys
	// zero when no plan-wide step needs them, and runUnit derives them on
	// its worker.
	done bool
}

// keysOf computes the job's cache key and, when withPrefix is set, its
// fork-prefix key: the fingerprint of the normalized config with Horizon
// zeroed. Both hash the same encoding — the prefix key replaces only the
// horizon field — so the config is normalized and encoded once, its
// workloads generated by gen.
func keysOf(job Job, withPrefix bool, gen soc.Materializer) jobKeys {
	norm, err := normalizeConfig(job.Config, gen)
	if err != nil {
		return jobKeys{err: err, done: true}
	}
	cfg := norm.Config()
	buf := getBuf()
	defer putBuf(buf)
	b := append((*buf)[:0], fingerprintVersion...)
	b, hz := appendConfig(b, &cfg)
	*buf = b

	k := jobKeys{key: hexSum(sha256.Sum256(b)), norm: norm, done: true}
	if len(job.Options.StopWhen) > 0 {
		var stack [256]byte
		s := append(stack[:0], fingerprintVersion...)
		s = append(label(s, "base"), k.key...)
		s = strconv.AppendInt(label(s, "nstops"), int64(len(job.Options.StopWhen)), 10)
		for _, c := range job.Options.StopWhen {
			s = append(label(s, "stop"), c.Reason...)
		}
		k.key = hexSum(sha256.Sum256(s))
	}
	if withPrefix {
		h := sha256.New()
		h.Write(b[:len(fingerprintVersion)])
		h.Write(forkPrefixTag)
		h.Write(b[len(fingerprintVersion):hz.start])
		h.Write(zeroHorizonField)
		h.Write(b[hz.end:])
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		k.prefix = hexSum(sum)
	}
	return k
}

// forkPrefixTag follows the version in every fork-prefix key's input, and
// zeroHorizonField stands in for the config's horizon field ("any horizon").
var (
	forkPrefixTag    = []byte("|forkprefix")
	zeroHorizonField = []byte("|horizon=0s")
)

// ResultDigest hashes the deterministic content of a Result: everything
// the simulation computed, excluding host-timing fields (WallSeconds).
// Two runs of configs with equal Fingerprints must produce equal digests
// regardless of worker count, host load or cache state — the engine's
// determinism tests are phrased in terms of this digest.
func ResultDigest(r *soc.Result) string {
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendResult(append((*buf)[:0], resultVersion...), r)
	return hexSum(sha256.Sum256(*buf))
}

// encBufs recycles encoding buffers: a Table 2 config encodes to tens of
// kilobytes, and every job of every plan encodes at least once.
var encBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf bounds the buffers kept for reuse, so one huge inline
// config does not pin its encoding's memory.
const maxPooledBuf = 1 << 20

func getBuf() *[]byte { return encBufs.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		encBufs.Put(b)
	}
}

func hexSum(sum [sha256.Size]byte) string {
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], sum[:])
	return string(dst[:])
}

// span locates one field's bytes within an encoding.
type span struct{ start, end int }

// appendConfig appends the encoding of every result-affecting field of a
// normalized config, and returns where its horizon field lies (the fork
// prefix key replaces exactly that field).
func appendConfig(b []byte, c *soc.Config) ([]byte, span) {
	b = append(label(b, "policy"), c.Policy...)
	b = strconv.AppendBool(label(b, "usegem"), c.UseGEM)
	b = appendGEM(label(b, "gem"), &c.GEM)
	b = appendBattery(label(b, "battery"), &c.Battery)
	b = appendThermal(label(b, "thermal"), &c.Thermal)
	b = appendFloat(label(b, "initialtempc"), c.InitialTempC)
	b = strconv.AppendBool(label(b, "periptherm"), c.PerIPThermal)
	b = appendNetwork(label(b, "thermalnet"), &c.ThermalNetwork)
	b = appendBus(label(b, "bus"), &c.Bus)
	b = appendInt(label(b, "buswords"), c.BusWords)
	b = c.Timeout.Append(label(b, "timeout"))
	b = appendInt(label(b, "timeoutsleep"), int(c.TimeoutSleepState))
	b = appendInt(label(b, "greedysleep"), int(c.GreedySleepState))
	b = c.SampleInterval.Append(label(b, "sample"))
	hz := span{start: len(b)}
	b = c.Horizon.Append(label(b, "horizon"))
	hz.end = len(b)
	b = appendFloat(label(b, "baseclock"), c.BaseClockHz)
	if c.Regulator != nil {
		b = appendRegulator(label(b, "regulator"), c.Regulator)
	}

	b = append(label(b, "lem.predictor"), c.LEM.Predictor...)
	b = appendFloat(label(b, "lem.alpha"), c.LEM.Alpha)
	b = strconv.AppendBool(label(b, "lem.nobreakeven"), c.LEM.DisableBreakEven)
	b = strconv.AppendBool(label(b, "lem.softoff"), c.LEM.AllowSoftOff)
	if c.LEM.Table != nil {
		// Format renders every rule row plus the default state; the table
		// has no other behaviour-bearing state.
		b = c.LEM.Table.AppendFormat(label(b, "lem.table"))
	}

	b = appendInt(label(b, "nips"), len(c.IPs))
	for i := range c.IPs {
		spec := &c.IPs[i]
		b = append(label(b, "ip.name"), spec.Name...)
		b = appendInt(label(b, "ip.prio"), spec.StaticPriority)
		b = appendInt(label(b, "ip.init"), int(spec.InitialState))
		b = appendProfile(label(b, "ip.profile"), spec.Profile)
		if spec.Gen.Kind != workload.GenNone {
			// The materialized Sequence/Arrivals below are derived from the
			// spec, but hashing both keeps the key honest if a generator's
			// algorithm ever changes under fixed parameters.
			b = appendSpec(label(b, "ip.gen"), &spec.Gen)
		}
		b = appendInt(label(b, "ip.nseq"), len(spec.Sequence))
		for j := range spec.Sequence {
			b = appendItem(label(b, "s"), &spec.Sequence[j])
		}
		b = appendInt(label(b, "ip.narr"), len(spec.Arrivals))
		for j := range spec.Arrivals {
			a := &spec.Arrivals[j]
			b = appendTask(append(label(b, "a"), "{Task:"...), &a.Task)
			b = append(a.At.Append(append(b, " At:"...)), '}')
		}
	}
	return b, hz
}

// appendResult appends the encoding of a Result's deterministic content.
func appendResult(b []byte, r *soc.Result) []byte {
	b = appendFloat(label(b, "energy"), r.EnergyJ)
	b = strconv.AppendUint(label(b, "deltas"), r.Deltas, 10)
	b = append(label(b, "stopreason"), r.StopReason...)
	b = appendFloatMap(b, "energyby", r.EnergyByIP)
	b = appendFloat(label(b, "busenergy"), r.BusEnergyJ)
	b = appendFloat(label(b, "avgtemp"), r.AvgTempC)
	b = appendFloat(label(b, "peaktemp"), r.PeakTempC)
	b = appendFloat(label(b, "ambient"), r.AmbientC)
	b = r.Duration.Append(label(b, "duration"))
	b = strconv.AppendBool(label(b, "completed"), r.Completed)
	b = appendInt(label(b, "tasks"), r.TasksDone)
	b = appendFloat(label(b, "cycles"), r.Cycles)
	b = appendFloat(label(b, "soc"), r.FinalSoC)
	b = appendInt(label(b, "batt"), int(r.FinalBatteryStatus))
	b = appendInt(label(b, "gemev"), r.GEMEvaluations)
	b = appendInt(label(b, "fan"), r.FanSwitches)
	b = appendFloat(label(b, "busocc"), r.BusOccupancy)
	if r.Ledger != nil {
		recs := r.Ledger.Records()
		b = appendInt(label(b, "nledger"), len(recs))
		for i := range recs {
			b = appendTaskRecord(label(b, "l"), &recs[i])
		}
	}
	for _, name := range sortedKeys(r.LEMStats) {
		s := r.LEMStats[name]
		b = appendIntMap(b, name, ".on", s.OnDecisions)
		b = appendIntMap(b, name, ".sleep", s.SleepEntries)
		b = appendInt(labelParts(b, name, ".park"), s.ParkEvents)
		b = s.ParkedTime.Append(labelParts(b, name, ".parked"))
	}
	return b
}

// label appends a field label, "|name=".
func label(b []byte, name string) []byte {
	b = append(b, '|')
	b = append(b, name...)
	return append(b, '=')
}

// labelParts appends the label of a map entry, "|" + parts... + "=",
// without concatenating the parts.
func labelParts(b []byte, parts ...string) []byte {
	b = append(b, '|')
	for _, p := range parts {
		b = append(b, p...)
	}
	return append(b, '=')
}

func appendInt(b []byte, n int) []byte { return strconv.AppendInt(b, int64(n), 10) }

func appendFloat(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// appendFloats appends an array of floats as "[a b c]".
func appendFloats(b []byte, fs []float64) []byte {
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendFloat(b, f)
	}
	return append(b, ']')
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendFloatMap appends one field per entry, "|name.key=value", in key
// order.
func appendFloatMap(b []byte, name string, m map[string]float64) []byte {
	for _, k := range sortedKeys(m) {
		b = appendFloat(labelParts(b, name, ".", k), m[k])
	}
	return b
}

// appendIntMap appends one field per entry, "|name+suffix.key=value", in
// key order.
func appendIntMap(b []byte, name, suffix string, m map[string]int) []byte {
	for _, k := range sortedKeys(m) {
		b = appendInt(labelParts(b, name, suffix, ".", k), m[k])
	}
	return b
}

func appendGEM(b []byte, g *gem.Config) []byte {
	b = appendInt(append(b, "{HighPriorityCutoff:"...), g.HighPriorityCutoff)
	b = appendFloat(append(b, " BusOccupancyLimit:"...), g.BusOccupancyLimit)
	return append(b, '}')
}

func appendBattery(b []byte, c *soc.BatteryConfig) []byte {
	b = append(append(b, "{Kind:"...), c.Kind...)
	b = appendFloat(append(b, " CapacityJ:"...), c.CapacityJ)
	b = appendFloat(append(b, " InitialSoC:"...), c.InitialSoC)
	b = strconv.AppendBool(append(b, " Mains:"...), c.Mains)
	b = appendFloat(append(b, " RateK:"...), c.RateK)
	b = appendFloat(append(b, " RefPower:"...), c.RefPower)
	b = appendFloat(append(b, " KiBaMC:"...), c.KiBaMC)
	b = appendFloat(append(b, " KiBaMK:"...), c.KiBaMK)
	b = appendFloat(append(b, " PeukertExponent:"...), c.PeukertExponent)
	b = appendFloat(append(b, " PeukertRefPower:"...), c.PeukertRefPower)
	return append(b, '}')
}

func appendThermal(b []byte, p *thermal.Params) []byte {
	b = appendFloat(append(b, "{AmbientC:"...), p.AmbientC)
	b = appendFloat(append(b, " RthKperW:"...), p.RthKperW)
	b = appendFloat(append(b, " CthJperK:"...), p.CthJperK)
	b = appendFloat(append(b, " FanFactor:"...), p.FanFactor)
	b = appendFloat(append(b, " MediumAboveC:"...), p.MediumAboveC)
	b = appendFloat(append(b, " HighAboveC:"...), p.HighAboveC)
	b = appendFloat(append(b, " HysteresisC:"...), p.HysteresisC)
	return append(b, '}')
}

func appendNetwork(b []byte, p *thermal.NetworkParams) []byte {
	b = appendFloat(append(b, "{AmbientC:"...), p.AmbientC)
	b = appendFloat(append(b, " NodeRthKperW:"...), p.NodeRthKperW)
	b = appendFloat(append(b, " NodeCthJperK:"...), p.NodeCthJperK)
	b = appendFloat(append(b, " SpreaderRthKperW:"...), p.SpreaderRthKperW)
	b = appendFloat(append(b, " SpreaderCthJperK:"...), p.SpreaderCthJperK)
	b = appendFloat(append(b, " FanFactor:"...), p.FanFactor)
	return append(b, '}')
}

func appendBus(b []byte, c *bus.Config) []byte {
	b = appendFloat(append(b, "{FreqHz:"...), c.FreqHz)
	b = appendFloat(append(b, " EnergyPerWord:"...), c.EnergyPerWord)
	b = appendInt(append(b, " Arbitration:"...), int(c.Arbitration))
	return append(b, '}')
}

func appendRegulator(b []byte, r *power.Regulator) []byte {
	b = appendFloat(append(b, "{FixedLossW:"...), r.FixedLossW)
	b = appendFloat(append(b, " CondLossPerW:"...), r.CondLossPerW)
	b = appendFloat(append(b, " RatioPenalty:"...), r.RatioPenalty)
	b = appendFloat(append(b, " SweetRatio:"...), r.SweetRatio)
	b = appendFloat(append(b, " VinNominal:"...), r.VinNominal)
	return append(b, '}')
}

func appendProfile(b []byte, p *power.Profile) []byte {
	b = appendFloat(append(b, "{CeffF:"...), p.CeffF)
	b = appendFloat(append(b, " LeakWPerV:"...), p.LeakWPerV)
	b = appendFloat(append(b, " IdleFactor:"...), p.IdleFactor)
	b = appendFloat(append(b, " CyclesPerInstr:"...), p.CyclesPerInstr)
	b = appendFloats(append(b, " InstrWeight:"...), p.InstrWeight[:])
	b = append(b, " On:["...)
	for i := range p.On {
		if i > 0 {
			b = append(b, ' ')
		}
		op := &p.On[i]
		b = append(append(b, "{Name:"...), op.Name...)
		b = appendFloat(append(b, " FreqHz:"...), op.FreqHz)
		b = appendFloat(append(b, " Vdd:"...), op.Vdd)
		b = append(b, '}')
	}
	b = append(b, "] Sleep:["...)
	for i := range p.Sleep {
		if i > 0 {
			b = append(b, ' ')
		}
		s := &p.Sleep[i]
		b = append(append(b, "{Name:"...), s.Name...)
		b = appendFloat(append(b, " Power:"...), s.Power)
		b = s.EnterLatency.Append(append(b, " EnterLatency:"...))
		b = appendFloat(append(b, " EnterEnergy:"...), s.EnterEnergy)
		b = s.WakeLatency.Append(append(b, " WakeLatency:"...))
		b = appendFloat(append(b, " WakeEnergy:"...), s.WakeEnergy)
		b = strconv.AppendBool(append(b, " LosesContext:"...), s.LosesContext)
		b = append(b, '}')
	}
	b = p.VScaleLatency.Append(append(b, "] VScaleLatency:"...))
	b = appendFloat(append(b, " VScaleEnergy:"...), p.VScaleEnergy)
	return append(b, '}')
}

func appendTask(b []byte, t *task.Task) []byte {
	b = appendInt(append(b, "{ID:"...), t.ID)
	b = strconv.AppendInt(append(b, " Instructions:"...), t.Instructions, 10)
	b = t.Class.Append(append(b, " Class:"...))
	b = t.Priority.Append(append(b, " Priority:"...))
	b = t.Release.Append(append(b, " Release:"...))
	return append(b, '}')
}

func appendItem(b []byte, it *workload.Item) []byte {
	b = appendTask(append(b, "{Task:"...), &it.Task)
	b = it.IdleAfter.Append(append(b, " IdleAfter:"...))
	return append(b, '}')
}

// appendSizing appends the task-sizing fields the generator profiles
// share, in their common declaration order.
func appendSizing(b []byte, numTasks int, meanInstr int64, jitter float64, class, prio *[4]float64) []byte {
	b = appendInt(append(b, " NumTasks:"...), numTasks)
	b = strconv.AppendInt(append(b, " MeanInstructions:"...), meanInstr, 10)
	b = appendFloat(append(b, " InstrJitter:"...), jitter)
	b = appendFloats(append(b, " ClassWeights:"...), class[:])
	return appendFloats(append(b, " PriorityWeights:"...), prio[:])
}

func appendSpec(b []byte, s *workload.Spec) []byte {
	b = append(append(b, "{Kind:"...), s.Kind...)

	c := &s.Closed
	b = strconv.AppendInt(append(b, " Closed:{Seed:"...), c.Seed, 10)
	b = appendSizing(b, c.NumTasks, c.MeanInstructions, c.InstrJitter, &c.ClassWeights, &c.PriorityWeights)
	b = c.MeanIdle.Append(append(b, " MeanIdle:"...))
	b = c.IdleDist.Append(append(b, " IdleDist:"...))

	bp := &s.Burst
	b = strconv.AppendInt(append(b, "} Burst:{Seed:"...), bp.Seed, 10)
	b = appendInt(append(b, " NumTasks:"...), bp.NumTasks)
	b = appendFloat(append(b, " TasksPerBurst:"...), bp.TasksPerBurst)
	b = strconv.AppendInt(append(b, " MeanInstructions:"...), bp.MeanInstructions, 10)
	b = appendFloat(append(b, " InstrJitter:"...), bp.InstrJitter)
	b = bp.ShortIdle.Append(append(b, " ShortIdle:"...))
	b = bp.LongIdle.Append(append(b, " LongIdle:"...))
	b = appendFloats(append(b, " PriorityWeights:"...), bp.PriorityWeights[:])
	b = appendFloats(append(b, " ClassWeights:"...), bp.ClassWeights[:])

	m := &s.MMPP
	b = strconv.AppendUint(append(b, "} MMPP:{Seed:"...), uint64(m.Seed), 10)
	b = appendSizing(b, m.NumTasks, m.MeanInstructions, m.InstrJitter, &m.ClassWeights, &m.PriorityWeights)
	b = appendFloat(append(b, " BusyRate:"...), m.BusyRate)
	b = appendFloat(append(b, " QuietRate:"...), m.QuietRate)
	b = m.MeanBusy.Append(append(b, " MeanBusy:"...))
	b = m.MeanQuiet.Append(append(b, " MeanQuiet:"...))

	p := &s.Periodic
	b = strconv.AppendUint(append(b, "} Periodic:{Seed:"...), uint64(p.Seed), 10)
	b = appendSizing(b, p.NumTasks, p.MeanInstructions, p.InstrJitter, &p.ClassWeights, &p.PriorityWeights)
	b = p.Period.Append(append(b, " Period:"...))
	b = appendFloat(append(b, " JitterFrac:"...), p.JitterFrac)

	h := &s.HeavyTail
	b = strconv.AppendUint(append(b, "} HeavyTail:{Seed:"...), uint64(h.Seed), 10)
	b = appendSizing(b, h.NumTasks, h.MeanInstructions, h.InstrJitter, &h.ClassWeights, &h.PriorityWeights)
	b = h.MeanIdle.Append(append(b, " MeanIdle:"...))
	b = appendFloat(append(b, " Shape:"...), h.Shape)
	b = appendFloat(append(b, " TailCap:"...), h.TailCap)

	b = append(b, "} Trace:["...)
	for i := range s.Trace {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendItem(b, &s.Trace[i])
	}
	return append(b, "]}"...)
}

func appendTaskRecord(b []byte, r *stats.TaskRecord) []byte {
	b = append(append(b, "{IP:"...), r.IP...)
	b = appendInt(append(b, " TaskID:"...), r.TaskID)
	b = r.Request.Append(append(b, " Request:"...))
	b = r.Start.Append(append(b, " Start:"...))
	b = r.Done.Append(append(b, " Done:"...))
	b = append(append(b, " State:"...), r.State...)
	return append(b, '}')
}
