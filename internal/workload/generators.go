package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/task"
)

// taskSampler draws task bodies (size, instruction class, priority) from
// two independent random streams, so the size jitter and the class/priority
// mix can be perturbed independently of the timing streams.
type taskSampler struct {
	size, mix *rand.Rand
	mean      int64
	jitter    float64
	classes   [power.NumInstrClasses]float64
	prios     [task.NumPriorities]float64
}

func newTaskSampler(seed Seed, mean int64, jitter float64,
	classes [power.NumInstrClasses]float64, prios [task.NumPriorities]float64) taskSampler {
	if sumWeights(classes[:]) == 0 {
		classes[power.InstrALU] = 1
	}
	if sumWeights(prios[:]) == 0 {
		prios[task.Medium] = 1
	}
	return taskSampler{
		size:    seed.Split("size").RNG(),
		mix:     seed.Split("mix").RNG(),
		mean:    mean,
		jitter:  jitter,
		classes: classes,
		prios:   prios,
	}
}

func (ts *taskSampler) draw(id int) task.Task {
	jitter := 1 + ts.jitter*(2*ts.size.Float64()-1)
	instr := int64(float64(ts.mean) * jitter)
	if instr < 1 {
		instr = 1
	}
	return task.Task{
		ID:           id,
		Instructions: instr,
		Class:        power.InstructionClass(weightedPick(ts.mix, ts.classes[:])),
		Priority:     task.Priority(weightedPick(ts.mix, ts.prios[:])),
	}
}

// MaxTasks caps a generator's NumTasks and a trace's length. A workload
// above it is refused before anything is allocated for it, so no config
// can ask a generator for an allocation the process cannot make. It sits
// far above every shipped scenario, study and benchmark workload.
const MaxTasks = 1 << 20

// checkNumTasks refuses a task count outside [1, MaxTasks].
func checkNumTasks(n int) error {
	if n <= 0 {
		return fmt.Errorf("workload: NumTasks must be positive")
	}
	if n > MaxTasks {
		return fmt.Errorf("workload: NumTasks %d exceeds the cap of %d", n, MaxTasks)
	}
	return nil
}

func validateTaskParams(numTasks int, mean int64, jitter float64) error {
	if err := checkNumTasks(numTasks); err != nil {
		return err
	}
	if mean <= 0 {
		return fmt.Errorf("workload: MeanInstructions must be positive")
	}
	if jitter < 0 || jitter >= 1 {
		return fmt.Errorf("workload: InstrJitter %v outside [0,1)", jitter)
	}
	return nil
}

// MMPPProfile generates open-loop arrivals from a two-state Markov-
// modulated Poisson process: the source alternates between a Busy phase
// (high arrival rate) and a Quiet phase (low rate), with exponentially
// distributed phase sojourns. Unlike BurstProfile's closed-loop bursts,
// MMPP arrivals keep coming while the IP is still serving — a slow power
// state builds a queue during a busy phase, exactly the overload/recovery
// pattern that separates timeout policies from predictive LEMs.
//
// Phase changes, inter-arrival gaps and task bodies draw from independent
// split streams of Seed, so tuning one rate never perturbs the others.
type MMPPProfile struct {
	Seed     Seed
	NumTasks int
	// MeanInstructions / InstrJitter size the tasks as in Profile.
	MeanInstructions int64
	InstrJitter      float64
	ClassWeights     [power.NumInstrClasses]float64
	PriorityWeights  [task.NumPriorities]float64
	// BusyRate / QuietRate are the mean arrival rates (tasks per second)
	// in each phase; BusyRate must exceed QuietRate.
	BusyRate  float64
	QuietRate float64
	// MeanBusy / MeanQuiet are the mean phase sojourn times.
	MeanBusy  sim.Time
	MeanQuiet sim.Time
}

// DefaultMMPP returns an ON/OFF source: 200 req/s bursts of ~40 ms
// separated by ~160 ms lulls at 10 req/s.
func DefaultMMPP(seed Seed, numTasks int) MMPPProfile {
	return MMPPProfile{
		Seed:             seed,
		NumTasks:         numTasks,
		MeanInstructions: 2_000_000,
		InstrJitter:      0.5,
		ClassWeights:     [power.NumInstrClasses]float64{4, 2, 1, 1},
		PriorityWeights:  [task.NumPriorities]float64{1, 2, 2, 1},
		BusyRate:         200,
		QuietRate:        10,
		MeanBusy:         40 * sim.Ms,
		MeanQuiet:        160 * sim.Ms,
	}
}

// Validate checks the parameters.
func (p MMPPProfile) Validate() error {
	if err := validateTaskParams(p.NumTasks, p.MeanInstructions, p.InstrJitter); err != nil {
		return err
	}
	if p.QuietRate <= 0 || p.BusyRate <= p.QuietRate {
		return fmt.Errorf("workload: want 0 < QuietRate < BusyRate")
	}
	if p.MeanBusy <= 0 || p.MeanQuiet <= 0 {
		return fmt.Errorf("workload: MeanBusy and MeanQuiet must be positive")
	}
	return nil
}

// Generate produces the deterministic arrival sequence.
func (p MMPPProfile) Generate() (ArrivalSequence, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ts := newTaskSampler(p.Seed, p.MeanInstructions, p.InstrJitter, p.ClassWeights, p.PriorityWeights)
	phase := p.Seed.Split("phase").RNG()
	gaps := p.Seed.Split("gap").RNG()

	arr := make(ArrivalSequence, p.NumTasks)
	busy := true
	now := sim.Time(0)
	phaseEnd := sim.Time(phase.ExpFloat64() * float64(p.MeanBusy))
	for i := range arr {
		// A doubly-stochastic Poisson process: draw one unit-rate
		// exponential and consume it at the phase rate in effect, so a
		// gap that spans a phase boundary is rescaled to the new rate for
		// its remainder (memorylessness makes this exact) — busy phases
		// inside a long quiet gap still burst instead of being skipped.
		e := gaps.ExpFloat64()
		for {
			rate := p.BusyRate
			if !busy {
				rate = p.QuietRate
			}
			dt := sim.Time(e / rate * float64(sim.Sec))
			if now+dt < phaseEnd {
				now += dt
				break
			}
			e -= (phaseEnd - now).Seconds() * rate
			if e < 0 {
				e = 0
			}
			now = phaseEnd
			busy = !busy
			mean := p.MeanBusy
			if !busy {
				mean = p.MeanQuiet
			}
			phaseEnd += sim.Time(phase.ExpFloat64() * float64(mean))
		}
		tk := ts.draw(i)
		tk.Release = now
		arr[i] = Arrival{Task: tk, At: now}
	}
	return arr, nil
}

// MustGenerate is Generate that panics on error.
func (p MMPPProfile) MustGenerate() ArrivalSequence {
	s, err := p.Generate()
	if err != nil {
		panic(err)
	}
	return s
}

// PeriodicProfile generates open-loop arrivals on a fixed period with
// bounded uniform jitter — the sensor-sampling / media-frame workload
// class. Arrival i lands at i·Period + U(−Jitter, +Jitter)·Period/2, so
// for JitterFrac < 1 arrivals never reorder. Periodic gaps are the
// best case for history predictors and the worst case for policies that
// pay a wake-up penalty every period.
type PeriodicProfile struct {
	Seed             Seed
	NumTasks         int
	MeanInstructions int64
	InstrJitter      float64
	ClassWeights     [power.NumInstrClasses]float64
	PriorityWeights  [task.NumPriorities]float64
	// Period is the nominal inter-arrival spacing.
	Period sim.Time
	// JitterFrac in [0,1) bounds the uniform arrival jitter to
	// ±JitterFrac·Period/2 around each nominal instant.
	JitterFrac float64
}

// DefaultPeriodic returns a 25 ms period (40 Hz frame rate) with 20%
// arrival jitter.
func DefaultPeriodic(seed Seed, numTasks int) PeriodicProfile {
	return PeriodicProfile{
		Seed:             seed,
		NumTasks:         numTasks,
		MeanInstructions: 2_000_000,
		InstrJitter:      0.3,
		ClassWeights:     [power.NumInstrClasses]float64{4, 2, 1, 1},
		PriorityWeights:  [task.NumPriorities]float64{1, 2, 2, 1},
		Period:           25 * sim.Ms,
		JitterFrac:       0.2,
	}
}

// Validate checks the parameters.
func (p PeriodicProfile) Validate() error {
	if err := validateTaskParams(p.NumTasks, p.MeanInstructions, p.InstrJitter); err != nil {
		return err
	}
	if p.Period <= 0 {
		return fmt.Errorf("workload: Period must be positive")
	}
	if p.JitterFrac < 0 || p.JitterFrac >= 1 {
		return fmt.Errorf("workload: JitterFrac %v outside [0,1)", p.JitterFrac)
	}
	return nil
}

// Generate produces the deterministic arrival sequence.
func (p PeriodicProfile) Generate() (ArrivalSequence, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ts := newTaskSampler(p.Seed, p.MeanInstructions, p.InstrJitter, p.ClassWeights, p.PriorityWeights)
	jit := p.Seed.Split("jitter").RNG()

	arr := make(ArrivalSequence, p.NumTasks)
	half := p.JitterFrac * float64(p.Period) / 2
	for i := range arr {
		at := sim.Time(i)*p.Period + sim.Time(half*(2*jit.Float64()-1))
		if at < 0 {
			at = 0
		}
		tk := ts.draw(i)
		tk.Release = at
		arr[i] = Arrival{Task: tk, At: at}
	}
	return arr, nil
}

// HeavyTailProfile generates a closed-loop sequence whose idle gaps are
// Pareto distributed with a configurable tail exponent — the self-similar
// "mostly short gaps, occasionally enormous ones" statistic measured on
// real interactive traffic. The heavy tail is the adversarial case for
// break-even gating: most gaps don't pay for sleeping, but the rare long
// ones dominate the idle energy.
type HeavyTailProfile struct {
	Seed             Seed
	NumTasks         int
	MeanInstructions int64
	InstrJitter      float64
	ClassWeights     [power.NumInstrClasses]float64
	PriorityWeights  [task.NumPriorities]float64
	// MeanIdle is the (clamped) mean idle gap.
	MeanIdle sim.Time
	// Shape is the Pareto tail exponent; must exceed 1 so the mean exists
	// (0 selects the default 1.5 — lower means a heavier tail).
	Shape float64
	// TailCap clamps draws at TailCap×MeanIdle to keep runs bounded
	// (0 selects the default 50).
	TailCap float64
}

// DefaultHeavyTail returns a Pareto(1.5) gap source with 20 ms mean idle.
func DefaultHeavyTail(seed Seed, numTasks int) HeavyTailProfile {
	return HeavyTailProfile{
		Seed:             seed,
		NumTasks:         numTasks,
		MeanInstructions: 2_000_000,
		InstrJitter:      0.5,
		ClassWeights:     [power.NumInstrClasses]float64{4, 2, 1, 1},
		PriorityWeights:  [task.NumPriorities]float64{1, 2, 2, 1},
		MeanIdle:         20 * sim.Ms,
		Shape:            1.5,
		TailCap:          50,
	}
}

// Validate checks the parameters.
func (p HeavyTailProfile) Validate() error {
	if err := validateTaskParams(p.NumTasks, p.MeanInstructions, p.InstrJitter); err != nil {
		return err
	}
	if p.MeanIdle <= 0 {
		return fmt.Errorf("workload: MeanIdle must be positive")
	}
	if p.Shape != 0 && p.Shape <= 1 {
		return fmt.Errorf("workload: Pareto Shape %v must exceed 1", p.Shape)
	}
	if p.TailCap < 0 {
		return fmt.Errorf("workload: negative TailCap")
	}
	return nil
}

// Generate produces the deterministic heavy-tailed sequence.
func (p HeavyTailProfile) Generate() (Sequence, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ts := newTaskSampler(p.Seed, p.MeanInstructions, p.InstrJitter, p.ClassWeights, p.PriorityWeights)
	gaps := p.Seed.Split("gap").RNG()
	shape := p.Shape
	if shape == 0 {
		shape = 1.5
	}
	tailCap := p.TailCap
	if tailCap == 0 {
		tailCap = 50
	}
	mean := float64(p.MeanIdle)
	xm := mean * (shape - 1) / shape

	seq := make(Sequence, p.NumTasks)
	for i := range seq {
		u := gaps.Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		v := xm / math.Pow(u, 1/shape)
		if v > tailCap*mean {
			v = tailCap * mean
		}
		seq[i] = Item{Task: ts.draw(i), IdleAfter: sim.Time(v)}
	}
	return seq, nil
}

// ExportCSV writes the sequence as CSV with a header:
// id,instructions,class,priority,idle_ps. The format round-trips through
// ImportCSV, so measured traces can be replayed as scenarios.
func ExportCSV(w io.Writer, s Sequence) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "instructions", "class", "priority", "idle_ps"}); err != nil {
		return err
	}
	for _, it := range s {
		rec := []string{
			strconv.Itoa(it.Task.ID),
			strconv.FormatInt(it.Task.Instructions, 10),
			it.Task.Class.String(),
			it.Task.Priority.String(),
			strconv.FormatInt(int64(it.IdleAfter), 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ImportCSV reads a sequence written by ExportCSV (the header row is
// optional). The result validates like any generated sequence.
func ImportCSV(r io.Reader) (Sequence, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 5
	var seq Sequence
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: csv: %v", err)
		}
		line++
		if line == 1 && rec[0] == "id" {
			continue // header
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("workload: csv line %d: bad id %q", line, rec[0])
		}
		instr, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: csv line %d: bad instructions %q", line, rec[1])
		}
		class, err := parseClass(rec[2])
		if err != nil {
			return nil, fmt.Errorf("workload: csv line %d: %v", line, err)
		}
		prio, err := task.ParsePriority(rec[3])
		if err != nil {
			return nil, fmt.Errorf("workload: csv line %d: %v", line, err)
		}
		idle, err := strconv.ParseInt(rec[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: csv line %d: bad idle %q", line, rec[4])
		}
		seq = append(seq, Item{
			Task:      task.Task{ID: id, Instructions: instr, Class: class, Priority: prio},
			IdleAfter: sim.Time(idle),
		})
	}
	if err := seq.Validate(); err != nil {
		return nil, err
	}
	return seq, nil
}

// GenKind tags the generator variant a Spec selects.
type GenKind string

// Generator kinds.
const (
	// GenNone marks an unset Spec (the IP carries an explicit workload).
	GenNone GenKind = ""
	// GenClosed is the seed's Profile: closed-loop with Fixed /
	// Exponential / Pareto idle gaps.
	GenClosed GenKind = "closed"
	// GenBurst is BurstProfile: closed-loop geometric ON/OFF bursts.
	GenBurst GenKind = "burst"
	// GenMMPP is MMPPProfile: open-loop Markov-modulated arrivals.
	GenMMPP GenKind = "mmpp"
	// GenPeriodic is PeriodicProfile: open-loop period-with-jitter.
	GenPeriodic GenKind = "periodic"
	// GenHeavyTail is HeavyTailProfile: closed-loop Pareto idle gaps.
	GenHeavyTail GenKind = "heavytail"
	// GenTrace replays an inline sequence (e.g. loaded with ImportCSV).
	GenTrace GenKind = "trace"
)

// Spec is a workload generator as pure value data: a tagged union of the
// generator profiles, holding only scalars, weight arrays and (for traces)
// the literal sequence. A Spec placed on a soc.IPSpec is materialized
// during config normalization and — because it is value data — folds into
// the engine's content-addressed cache key: two configs with equal Specs
// are the same simulation, bit for bit.
type Spec struct {
	Kind GenKind
	// Exactly the field matching Kind is consulted; the rest stay zero.
	Closed    Profile
	Burst     BurstProfile
	MMPP      MMPPProfile
	Periodic  PeriodicProfile
	HeavyTail HeavyTailProfile
	// Trace is the inline sequence for GenTrace.
	Trace Sequence
}

// ClosedSpec wraps a Profile.
func ClosedSpec(p Profile) Spec { return Spec{Kind: GenClosed, Closed: p} }

// BurstSpec wraps a BurstProfile.
func BurstSpec(p BurstProfile) Spec { return Spec{Kind: GenBurst, Burst: p} }

// MMPPSpec wraps an MMPPProfile.
func MMPPSpec(p MMPPProfile) Spec { return Spec{Kind: GenMMPP, MMPP: p} }

// PeriodicSpec wraps a PeriodicProfile.
func PeriodicSpec(p PeriodicProfile) Spec { return Spec{Kind: GenPeriodic, Periodic: p} }

// HeavyTailSpec wraps a HeavyTailProfile.
func HeavyTailSpec(p HeavyTailProfile) Spec { return Spec{Kind: GenHeavyTail, HeavyTail: p} }

// TraceSpec wraps a literal sequence for replay.
func TraceSpec(s Sequence) Spec { return Spec{Kind: GenTrace, Trace: s} }

// Validate checks the selected generator's parameters.
func (s Spec) Validate() error {
	switch s.Kind {
	case GenNone:
		return nil
	case GenClosed:
		return s.Closed.Validate()
	case GenBurst:
		return s.Burst.Validate()
	case GenMMPP:
		return s.MMPP.Validate()
	case GenPeriodic:
		return s.Periodic.Validate()
	case GenHeavyTail:
		return s.HeavyTail.Validate()
	case GenTrace:
		if len(s.Trace) == 0 {
			return fmt.Errorf("workload: empty trace")
		}
		if len(s.Trace) > MaxTasks {
			return fmt.Errorf("workload: trace of %d tasks exceeds the cap of %d", len(s.Trace), MaxTasks)
		}
		return s.Trace.Validate()
	default:
		return fmt.Errorf("workload: unknown generator kind %q", s.Kind)
	}
}

// Materialize runs the generator: closed-loop kinds fill seq, open-loop
// kinds fill arr. A GenNone spec returns nothing.
func (s Spec) Materialize() (seq Sequence, arr ArrivalSequence, err error) {
	switch s.Kind {
	case GenNone:
		return nil, nil, nil
	case GenClosed:
		seq, err = s.Closed.Generate()
	case GenBurst:
		seq, err = s.Burst.Generate()
	case GenMMPP:
		arr, err = s.MMPP.Generate()
	case GenPeriodic:
		arr, err = s.Periodic.Generate()
	case GenHeavyTail:
		seq, err = s.HeavyTail.Generate()
	case GenTrace:
		if err = s.Validate(); err == nil {
			seq = s.Trace
		}
	default:
		err = fmt.Errorf("workload: unknown generator kind %q", s.Kind)
	}
	return seq, arr, err
}

// NumTasks returns how many tasks the spec generates: the selected
// profile's NumTasks, or the trace's length. It reads the parameter only,
// so a size can be checked before anything is generated.
func (s Spec) NumTasks() int {
	switch s.Kind {
	case GenClosed:
		return s.Closed.NumTasks
	case GenBurst:
		return s.Burst.NumTasks
	case GenMMPP:
		return s.MMPP.NumTasks
	case GenPeriodic:
		return s.Periodic.NumTasks
	case GenHeavyTail:
		return s.HeavyTail.NumTasks
	case GenTrace:
		return len(s.Trace)
	}
	return 0
}

// Normalized returns the spec with every defaultable parameter filled in
// exactly as generation will interpret it: all-zero class/priority
// weights become the documented ALU-only/Medium-only defaults, and the
// heavy-tail Shape/TailCap zero values become 1.5/50. A field left zero
// and the same field set to its default therefore describe the identical
// workload AND hash identically — soc.Config normalization applies this
// before the engine fingerprints the spec.
func (s Spec) Normalized() Spec {
	defaultWeights := func(classes *[power.NumInstrClasses]float64, prios *[task.NumPriorities]float64) {
		if sumWeights(classes[:]) == 0 {
			classes[power.InstrALU] = 1
		}
		if sumWeights(prios[:]) == 0 {
			prios[task.Medium] = 1
		}
	}
	switch s.Kind {
	case GenClosed:
		defaultWeights(&s.Closed.ClassWeights, &s.Closed.PriorityWeights)
	case GenBurst:
		defaultWeights(&s.Burst.ClassWeights, &s.Burst.PriorityWeights)
	case GenMMPP:
		defaultWeights(&s.MMPP.ClassWeights, &s.MMPP.PriorityWeights)
	case GenPeriodic:
		defaultWeights(&s.Periodic.ClassWeights, &s.Periodic.PriorityWeights)
	case GenHeavyTail:
		defaultWeights(&s.HeavyTail.ClassWeights, &s.HeavyTail.PriorityWeights)
		if s.HeavyTail.Shape == 0 {
			s.HeavyTail.Shape = 1.5
		}
		if s.HeavyTail.TailCap == 0 {
			s.HeavyTail.TailCap = 50
		}
	}
	return s
}

// Reseed returns a copy of the spec with the generator's seed replaced —
// the replicate fan-out primitive. Traces have no randomness, so a trace
// spec reseeds to itself.
func (s Spec) Reseed(seed Seed) Spec {
	switch s.Kind {
	case GenClosed:
		s.Closed.Seed = int64(seed)
	case GenBurst:
		s.Burst.Seed = int64(seed)
	case GenMMPP:
		s.MMPP.Seed = seed
	case GenPeriodic:
		s.Periodic.Seed = seed
	case GenHeavyTail:
		s.HeavyTail.Seed = seed
	}
	return s
}
