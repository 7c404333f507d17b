// Package workload generates the task sequences the functional IPs execute.
// The paper's IPs are "pure traffic generators" running sequences in which
// "the IP is often busy" or "often in idle state"; this package produces
// such sequences deterministically from a seed, with configurable task
// sizes, instruction mixes, priorities and idle-gap statistics, and can
// export/import sequences as text for replay.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/task"
)

// Distribution selects the idle-gap distribution.
type Distribution int

// Supported idle-gap distributions.
const (
	// Fixed uses the mean verbatim ("remains in idle state for a fixed
	// time", as in the paper).
	Fixed Distribution = iota
	// Exponential draws exponentially distributed gaps around the mean.
	Exponential
	// Pareto draws heavy-tailed gaps (shape 1.5) scaled to the mean; it
	// stresses idle-time predictors.
	Pareto
)

// distributionNames name the distributions, indexed by Distribution.
var distributionNames = [...]string{Fixed: "Fixed", Exponential: "Exponential", Pareto: "Pareto"}

// String names the distribution.
func (d Distribution) String() string {
	if d >= 0 && int(d) < len(distributionNames) {
		return distributionNames[d]
	}
	var buf [40]byte
	return string(d.Append(buf[:0]))
}

// Append appends String's rendering of d to b; out-of-range values render
// as "Distribution(n)".
func (d Distribution) Append(b []byte) []byte {
	if d >= 0 && int(d) < len(distributionNames) {
		return append(b, distributionNames[d]...)
	}
	b = strconv.AppendInt(append(b, "Distribution("...), int64(d), 10)
	return append(b, ')')
}

// Item is one step of a sequence: execute the task, then stay idle for
// IdleAfter.
type Item struct {
	Task      task.Task
	IdleAfter sim.Time
}

// Sequence is an IP's complete workload.
type Sequence []Item

// TotalInstructions sums the instruction counts of all tasks.
func (s Sequence) TotalInstructions() int64 {
	var n int64
	for _, it := range s {
		n += it.Task.Instructions
	}
	return n
}

// Validate checks every task in the sequence.
func (s Sequence) Validate() error {
	for i, it := range s {
		if err := it.Task.Validate(); err != nil {
			return fmt.Errorf("workload: item %d: %w", i, err)
		}
		if it.IdleAfter < 0 {
			return fmt.Errorf("workload: item %d: negative idle gap", i)
		}
	}
	return nil
}

// Profile parameterises a generator.
type Profile struct {
	// Seed makes generation deterministic; two Profiles with equal fields
	// produce identical sequences.
	Seed int64
	// NumTasks is the sequence length.
	NumTasks int
	// MeanInstructions is the average task size; individual tasks are
	// uniform in [Mean·(1−Jitter), Mean·(1+Jitter)].
	MeanInstructions int64
	InstrJitter      float64
	// ClassWeights weights the instruction classes; zero-value uses ALU
	// only.
	ClassWeights [power.NumInstrClasses]float64
	// PriorityWeights weights task priorities; zero-value uses Medium only.
	PriorityWeights [task.NumPriorities]float64
	// MeanIdle and IdleDist shape the idle gaps after each task. High
	// activity = short gaps, low activity = long gaps.
	MeanIdle sim.Time
	IdleDist Distribution
}

// HighActivity returns a profile whose IP is busy about half the time:
// idle gaps average the nominal task duration.
func HighActivity(seed int64, numTasks int) Profile {
	return Profile{
		Seed:             seed,
		NumTasks:         numTasks,
		MeanInstructions: 2_000_000, // 10 ms at 200 MHz
		InstrJitter:      0.5,
		ClassWeights:     [power.NumInstrClasses]float64{4, 2, 1, 1},
		PriorityWeights:  [task.NumPriorities]float64{1, 2, 2, 1},
		MeanIdle:         10 * sim.Ms,
		IdleDist:         Exponential,
	}
}

// LowActivity returns a profile whose IP idles most of the time: gaps
// average five times the nominal task duration.
func LowActivity(seed int64, numTasks int) Profile {
	p := HighActivity(seed, numTasks)
	p.MeanIdle = 50 * sim.Ms
	return p
}

// Validate checks the profile parameters.
func (p Profile) Validate() error {
	if err := checkNumTasks(p.NumTasks); err != nil {
		return err
	}
	if p.MeanInstructions <= 0 {
		return fmt.Errorf("workload: MeanInstructions must be positive")
	}
	if p.InstrJitter < 0 || p.InstrJitter >= 1 {
		return fmt.Errorf("workload: InstrJitter %v outside [0,1)", p.InstrJitter)
	}
	if p.MeanIdle < 0 {
		return fmt.Errorf("workload: negative MeanIdle")
	}
	for _, w := range p.ClassWeights {
		if w < 0 {
			return fmt.Errorf("workload: negative class weight")
		}
	}
	for _, w := range p.PriorityWeights {
		if w < 0 {
			return fmt.Errorf("workload: negative priority weight")
		}
	}
	return nil
}

// Generate produces the deterministic sequence for the profile.
func (p Profile) Generate() (Sequence, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	classes := p.ClassWeights
	if sumWeights(classes[:]) == 0 {
		classes[power.InstrALU] = 1
	}
	prios := p.PriorityWeights
	if sumWeights(prios[:]) == 0 {
		prios[task.Medium] = 1
	}
	seq := make(Sequence, p.NumTasks)
	for i := range seq {
		jitter := 1 + p.InstrJitter*(2*rng.Float64()-1)
		instr := int64(float64(p.MeanInstructions) * jitter)
		if instr < 1 {
			instr = 1
		}
		seq[i] = Item{
			Task: task.Task{
				ID:           i,
				Instructions: instr,
				Class:        power.InstructionClass(weightedPick(rng, classes[:])),
				Priority:     task.Priority(weightedPick(rng, prios[:])),
			},
			IdleAfter: p.drawIdle(rng),
		}
	}
	return seq, nil
}

// MustGenerate is Generate that panics on error, for tests and examples.
func (p Profile) MustGenerate() Sequence {
	s, err := p.Generate()
	if err != nil {
		panic(err)
	}
	return s
}

func (p Profile) drawIdle(rng *rand.Rand) sim.Time {
	if p.MeanIdle == 0 {
		return 0
	}
	mean := float64(p.MeanIdle)
	switch p.IdleDist {
	case Fixed:
		return p.MeanIdle
	case Exponential:
		return sim.Time(rng.ExpFloat64() * mean)
	case Pareto:
		// Pareto with shape a=1.5, scaled so the mean is MeanIdle:
		// mean = a·xm/(a−1) → xm = mean·(a−1)/a.
		const a = 1.5
		xm := mean * (a - 1) / a
		u := rng.Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		v := xm / math.Pow(u, 1/a)
		// Clamp the heavy tail at 50× the mean to keep runs bounded.
		if v > 50*mean {
			v = 50 * mean
		}
		return sim.Time(v)
	default:
		return p.MeanIdle
	}
}

func sumWeights(ws []float64) float64 {
	var s float64
	for _, w := range ws {
		s += w
	}
	return s
}

func weightedPick(rng *rand.Rand, ws []float64) int {
	total := sumWeights(ws)
	x := rng.Float64() * total
	for i, w := range ws {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(ws) - 1
}

// parseClass converts an instruction class name back to its value.
func parseClass(s string) (power.InstructionClass, error) {
	for c := power.InstructionClass(0); c < power.NumInstrClasses; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown instruction class %q", s)
}
