// Package acpi defines the ACPI-style power states of the paper's Power
// State Machine (PSM) — soft-off, four sleep states SL1..SL4 and four
// execution states ON1..ON4 with decreasing speed and power — and the PSM
// component that owns the state, enforces transition costs and reports the
// actual state to the functional block.
package acpi

import (
	"fmt"
	"strconv"
)

// State is one ACPI power state. Ordering is by increasing capability:
// SoftOff < SL4 < ... < SL1 < ON4 < ... < ON1.
type State int

// The ten states of the paper's PSM.
const (
	SoftOff State = iota
	SL4
	SL3
	SL2
	SL1
	ON4
	ON3
	ON2
	ON1
	NumStates = int(ON1) + 1
)

// stateNames are the paper's names, indexed by State.
var stateNames = [NumStates]string{"SoftOff", "SL4", "SL3", "SL2", "SL1", "ON4", "ON3", "ON2", "ON1"}

// String returns the paper's name for the state.
func (s State) String() string {
	if s >= 0 && int(s) < NumStates {
		return stateNames[s]
	}
	var buf [32]byte
	return string(s.Append(buf[:0]))
}

// Append appends String's rendering of s to b; out-of-range values render
// as "State(n)".
func (s State) Append(b []byte) []byte {
	if s >= 0 && int(s) < NumStates {
		return append(b, stateNames[s]...)
	}
	b = strconv.AppendInt(append(b, "State("...), int64(s), 10)
	return append(b, ')')
}

// IsOn reports whether the state is an execution state.
func (s State) IsOn() bool { return s >= ON4 && s <= ON1 }

// IsSleep reports whether the state is one of SL1..SL4.
func (s State) IsSleep() bool { return s >= SL4 && s <= SL1 }

// OnIndex returns 0..3 for ON1..ON4; it panics for non-ON states.
func (s State) OnIndex() int {
	if !s.IsOn() {
		panic("acpi: OnIndex on non-ON state " + s.String())
	}
	return int(ON1) - int(s)
}

// SleepIndex returns 0..4 for SL1..SL4 and soft-off (matching
// power.Profile.Sleep); it panics for ON states.
func (s State) SleepIndex() int {
	switch {
	case s.IsSleep():
		return int(SL1) - int(s)
	case s == SoftOff:
		return 4
	default:
		panic("acpi: SleepIndex on ON state " + s.String())
	}
}

// SleepStateByIndex returns SL1..SL4 for 0..3 and SoftOff for 4.
func SleepStateByIndex(index int) State {
	switch {
	case index >= 0 && index <= 3:
		return State(int(SL1) - index)
	case index == 4:
		return SoftOff
	default:
		panic(fmt.Sprintf("acpi: SleepStateByIndex %d out of range", index))
	}
}
