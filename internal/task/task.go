// Package task defines the unit of work a functional IP executes — the
// paper groups instructions into "tasks" issued on external service
// requests — and the four-class task priority the LEM receives.
package task

import (
	"fmt"
	"strconv"

	"godpm/internal/power"
	"godpm/internal/sim"
)

// Priority is the task priority, coded in the paper's four classes.
type Priority int

// Priorities in increasing urgency.
const (
	Low Priority = iota
	Medium
	High
	VeryHigh
	NumPriorities = int(VeryHigh) + 1
)

// priorityNames are the paper's names, indexed by Priority.
var priorityNames = [NumPriorities]string{"Low", "Medium", "High", "VeryHigh"}

// String returns the paper's name for the priority.
func (p Priority) String() string {
	if p >= 0 && int(p) < NumPriorities {
		return priorityNames[p]
	}
	var buf [32]byte
	return string(p.Append(buf[:0]))
}

// Append appends String's rendering of p to b; out-of-range values render
// as "Priority(n)".
func (p Priority) Append(b []byte) []byte {
	if p >= 0 && int(p) < NumPriorities {
		return append(b, priorityNames[p]...)
	}
	b = strconv.AppendInt(append(b, "Priority("...), int64(p), 10)
	return append(b, ')')
}

// ParsePriority converts a name (as in Table 1: "Low", "Medium", "High",
// "VeryHigh") to a Priority.
func ParsePriority(name string) (Priority, error) {
	for p := Priority(0); int(p) < NumPriorities; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("task: unknown priority %q", name)
}

// Task is one sequence of instructions the IP executes on a service request.
type Task struct {
	ID           int
	Instructions int64
	Class        power.InstructionClass
	Priority     Priority
	// Release is when the service request arrives at the IP.
	Release sim.Time
}

// Validate checks the task is executable.
func (t Task) Validate() error {
	if t.Instructions <= 0 {
		return fmt.Errorf("task %d: non-positive instruction count", t.ID)
	}
	if t.Class < 0 || t.Class >= power.NumInstrClasses {
		return fmt.Errorf("task %d: invalid instruction class %d", t.ID, int(t.Class))
	}
	if t.Priority < 0 || Priority(int(t.Priority)) > VeryHigh {
		return fmt.Errorf("task %d: invalid priority %d", t.ID, int(t.Priority))
	}
	return nil
}
