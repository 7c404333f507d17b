package workload

import (
	"fmt"
	"math/rand"

	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/task"
)

// BurstProfile generates Markov-modulated ON/OFF workloads: the source
// alternates between a busy phase (several tasks with short gaps) and a
// quiet phase (one long gap), matching the paper's description that "in
// some sequences the IP is often busy, in some it is often in idle state" —
// within a single sequence. Bursty idle statistics are the hardest case
// for the LEM's idle predictor: the short intra-burst gaps teach it to
// stay awake exactly when the long inter-burst gap would pay for deep
// sleep.
type BurstProfile struct {
	Seed int64
	// NumTasks is the total task count across all bursts.
	NumTasks int
	// TasksPerBurst is the mean burst length (geometric distribution).
	TasksPerBurst float64
	// MeanInstructions / InstrJitter size the tasks as in Profile.
	MeanInstructions int64
	InstrJitter      float64
	// ShortIdle is the mean gap inside a burst, LongIdle between bursts
	// (both exponential).
	ShortIdle sim.Time
	LongIdle  sim.Time
	// PriorityWeights as in Profile (zero value → Medium only).
	PriorityWeights [task.NumPriorities]float64
	// ClassWeights as in Profile (zero value → ALU only).
	ClassWeights [power.NumInstrClasses]float64
}

// DefaultBurst returns a bursty workload: ~6-task bursts of 10 ms tasks
// separated by 2 ms gaps, with 100 ms quiet phases.
func DefaultBurst(seed int64, numTasks int) BurstProfile {
	return BurstProfile{
		Seed:             seed,
		NumTasks:         numTasks,
		TasksPerBurst:    6,
		MeanInstructions: 2_000_000,
		InstrJitter:      0.5,
		ShortIdle:        2 * sim.Ms,
		LongIdle:         100 * sim.Ms,
		PriorityWeights:  [task.NumPriorities]float64{1, 2, 2, 1},
		ClassWeights:     [power.NumInstrClasses]float64{4, 2, 1, 1},
	}
}

// Validate checks the parameters.
func (p BurstProfile) Validate() error {
	if err := checkNumTasks(p.NumTasks); err != nil {
		return err
	}
	if p.TasksPerBurst < 1 {
		return fmt.Errorf("workload: TasksPerBurst must be >= 1")
	}
	if p.MeanInstructions <= 0 {
		return fmt.Errorf("workload: MeanInstructions must be positive")
	}
	if p.InstrJitter < 0 || p.InstrJitter >= 1 {
		return fmt.Errorf("workload: InstrJitter %v outside [0,1)", p.InstrJitter)
	}
	if p.ShortIdle < 0 || p.LongIdle <= p.ShortIdle {
		return fmt.Errorf("workload: want 0 <= ShortIdle < LongIdle")
	}
	return nil
}

// Generate produces the deterministic bursty sequence.
func (p BurstProfile) Generate() (Sequence, error) {
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
	// Geometric continuation probability for a mean burst length L:
	// P(continue) = 1 − 1/L.
	pCont := 1 - 1/p.TasksPerBurst

	seq := make(Sequence, p.NumTasks)
	for i := range seq {
		jitter := 1 + p.InstrJitter*(2*rng.Float64()-1)
		instr := int64(float64(p.MeanInstructions) * jitter)
		if instr < 1 {
			instr = 1
		}
		var gap sim.Time
		if rng.Float64() < pCont {
			gap = sim.Time(rng.ExpFloat64() * float64(p.ShortIdle))
		} else {
			gap = sim.Time(rng.ExpFloat64() * float64(p.LongIdle))
		}
		seq[i] = Item{
			Task: task.Task{
				ID:           i,
				Instructions: instr,
				Class:        power.InstructionClass(weightedPick(rng, classes[:])),
				Priority:     task.Priority(weightedPick(rng, prios[:])),
			},
			IdleAfter: gap,
		}
	}
	return seq, nil
}
