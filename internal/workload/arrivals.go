package workload

import (
	"fmt"
	"math/rand"

	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/task"
)

// Arrival is an open-loop service request: a task plus the absolute time it
// arrives at the IP. Unlike the closed-loop Sequence (where the next task
// is generated only after the previous one finishes plus an idle gap),
// arrivals keep coming regardless of how slowly the IP runs — a slow power
// state builds up a queue, exactly what an external request source does to
// the paper's IPs.
type Arrival struct {
	Task task.Task
	At   sim.Time
}

// ArrivalSequence is a time-ordered open-loop workload.
type ArrivalSequence []Arrival

// Validate checks ordering and task validity.
func (s ArrivalSequence) Validate() error {
	last := sim.Time(-1)
	for i, a := range s {
		if err := a.Task.Validate(); err != nil {
			return fmt.Errorf("workload: arrival %d: %w", i, err)
		}
		if a.At < 0 {
			return fmt.Errorf("workload: arrival %d: negative time", i)
		}
		if a.At < last {
			return fmt.Errorf("workload: arrival %d: not time-ordered", i)
		}
		last = a.At
	}
	return nil
}

// GenerateArrivals produces an open-loop workload from the profile: the
// inter-arrival gap after each task is the task's nominal duration at the
// reference frequency plus the profile's idle-gap draw, so the offered
// load matches what the closed-loop sequence generates when the IP runs at
// full speed. refFreqHz is the frequency the nominal durations assume
// (typically the profile's ON1 clock).
func (p Profile) GenerateArrivals(refFreqHz float64) (ArrivalSequence, error) {
	if refFreqHz <= 0 {
		return nil, fmt.Errorf("workload: refFreqHz must be positive")
	}
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
	arr := make(ArrivalSequence, p.NumTasks)
	at := sim.Time(0)
	for i := range arr {
		jitter := 1 + p.InstrJitter*(2*rng.Float64()-1)
		instr := int64(float64(p.MeanInstructions) * jitter)
		if instr < 1 {
			instr = 1
		}
		arr[i] = Arrival{
			Task: task.Task{
				ID:           i,
				Instructions: instr,
				Class:        power.InstructionClass(weightedPick(rng, classes[:])),
				Priority:     task.Priority(weightedPick(rng, prios[:])),
				Release:      at,
			},
			At: at,
		}
		nominal := sim.Time(float64(instr)/refFreqHz*float64(sim.Sec) + 0.5)
		at += nominal + p.drawIdle(rng)
	}
	return arr, nil
}

// MustGenerateArrivals is GenerateArrivals that panics on error.
func (p Profile) MustGenerateArrivals(refFreqHz float64) ArrivalSequence {
	s, err := p.GenerateArrivals(refFreqHz)
	if err != nil {
		panic(err)
	}
	return s
}
