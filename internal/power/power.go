// Package power models the energy/performance characterisation of an IP
// block: the variable-voltage operating points behind the ACPI execution
// states ON1..ON4, the sleep-state power and transition costs behind
// SL1..SL4 and soft-off, and the break-even-time analysis the LEM uses to
// decide whether entering a sleep state pays off.
//
// The paper's IPs are characterised by "an average energy dissipation
// associated to each power state and type of instruction"; this package is
// the Go equivalent of that characterisation, parameterised by standard
// CMOS scaling laws (dynamic power C·V²·f, alpha-power-law delay).
package power

import (
	"fmt"
	"strconv"

	"godpm/internal/sim"
)

// OperatingPoint is one (frequency, supply voltage) pair of the
// variable-voltage technique: ON1 is fastest/hungriest, ON4 slowest/most
// frugal.
type OperatingPoint struct {
	Name   string
	FreqHz float64 // clock frequency at this point
	Vdd    float64 // supply voltage in volts
}

// SleepState characterises one ACPI sleep (or soft-off) state: residual
// power, and the latency/energy costs of entering and leaving it.
type SleepState struct {
	Name         string
	Power        float64  // residual power while asleep, watts
	EnterLatency sim.Time // time to reach the state from an ON state
	EnterEnergy  float64  // joules dissipated entering
	WakeLatency  sim.Time // time to return to an ON state
	WakeEnergy   float64  // joules dissipated waking
	LosesContext bool     // true for soft-off: state must be restored
}

// InstructionClass weights the per-cycle energy by the kind of instruction
// executing, mirroring the paper's per-instruction-type characterisation.
type InstructionClass int

// Instruction classes ordered by increasing energy weight.
const (
	InstrALU InstructionClass = iota
	InstrMemory
	InstrMultiply
	InstrIO
	NumInstrClasses
)

// instrClassNames are the mnemonics, indexed by InstructionClass.
var instrClassNames = [NumInstrClasses]string{"ALU", "MEM", "MUL", "IO"}

// String returns the mnemonic for the class.
func (c InstructionClass) String() string {
	if c >= 0 && c < NumInstrClasses {
		return instrClassNames[c]
	}
	var buf [40]byte
	return string(c.Append(buf[:0]))
}

// Append appends String's rendering of c to b; out-of-range values render
// as "InstructionClass(n)".
func (c InstructionClass) Append(b []byte) []byte {
	if c >= 0 && c < NumInstrClasses {
		return append(b, instrClassNames[c]...)
	}
	b = strconv.AppendInt(append(b, "InstructionClass("...), int64(c), 10)
	return append(b, ')')
}

// Profile is the complete power characterisation of one IP block.
type Profile struct {
	// CeffF is the effective switched capacitance per clock cycle (farads);
	// dynamic power is CeffF·Vdd²·f.
	CeffF float64
	// LeakWPerV is the leakage coefficient: leakage power = LeakWPerV·Vdd.
	LeakWPerV float64
	// IdleFactor is the fraction of dynamic power burned while clocked but
	// idle (imperfect clock gating).
	IdleFactor float64
	// CyclesPerInstr converts instructions to clock cycles.
	CyclesPerInstr float64
	// InstrWeight scales per-cycle energy by instruction class.
	InstrWeight [NumInstrClasses]float64
	// On holds the execution points ON1..ON4 (index 0 = ON1).
	On [4]OperatingPoint
	// Sleep holds SL1..SL4 then soft-off (index 0 = SL1, 4 = soft-off).
	Sleep [5]SleepState
	// VScaleLatency and VScaleEnergy cost one ON↔ON voltage/frequency step.
	VScaleLatency sim.Time
	VScaleEnergy  float64
}

// DefaultProfile returns the reference characterisation used throughout the
// experiments: a 200 MHz, 1.8 V core with four voltage-scaled execution
// points (the ON4 clock is 4× slower than ON1, so ON4-dominated runs show
// the ≈300% delay overheads of the paper's Table 2) and five sleep states
// of decreasing residual power and increasing wake cost.
func DefaultProfile() *Profile {
	return &Profile{
		CeffF:          1e-9,
		LeakWPerV:      5.5e-3,
		IdleFactor:     0.50,
		CyclesPerInstr: 1.0,
		InstrWeight:    [NumInstrClasses]float64{1.0, 1.2, 1.35, 1.5},
		On: [4]OperatingPoint{
			{Name: "ON1", FreqHz: 200e6, Vdd: 1.8},
			{Name: "ON2", FreqHz: 150e6, Vdd: 1.5},
			{Name: "ON3", FreqHz: 100e6, Vdd: 1.2},
			{Name: "ON4", FreqHz: 50e6, Vdd: 0.9},
		},
		Sleep: [5]SleepState{
			{Name: "SL1", Power: 5e-3, EnterLatency: 1 * sim.Us, EnterEnergy: 0.5e-6, WakeLatency: 2 * sim.Us, WakeEnergy: 1e-6},
			{Name: "SL2", Power: 1e-3, EnterLatency: 5 * sim.Us, EnterEnergy: 1e-6, WakeLatency: 20 * sim.Us, WakeEnergy: 4e-6},
			{Name: "SL3", Power: 0.2e-3, EnterLatency: 20 * sim.Us, EnterEnergy: 2e-6, WakeLatency: 200 * sim.Us, WakeEnergy: 20e-6},
			{Name: "SL4", Power: 0.05e-3, EnterLatency: 100 * sim.Us, EnterEnergy: 5e-6, WakeLatency: 2 * sim.Ms, WakeEnergy: 100e-6},
			{Name: "SoftOff", Power: 0, EnterLatency: 1 * sim.Ms, EnterEnergy: 10e-6, WakeLatency: 20 * sim.Ms, WakeEnergy: 1e-3, LosesContext: true},
		},
		VScaleLatency: 10 * sim.Us,
		VScaleEnergy:  0.2e-6,
	}
}

// Validate checks internal consistency (monotonic frequencies and voltages,
// positive coefficients, sleep states ordered by decreasing power).
func (p *Profile) Validate() error {
	if p.CeffF <= 0 || p.CyclesPerInstr <= 0 {
		return fmt.Errorf("power: non-positive CeffF or CyclesPerInstr")
	}
	if p.IdleFactor < 0 || p.IdleFactor > 1 {
		return fmt.Errorf("power: IdleFactor %v outside [0,1]", p.IdleFactor)
	}
	for i := 0; i < 3; i++ {
		if p.On[i].FreqHz <= p.On[i+1].FreqHz {
			return fmt.Errorf("power: ON%d freq not greater than ON%d", i+1, i+2)
		}
		if p.On[i].Vdd <= p.On[i+1].Vdd {
			return fmt.Errorf("power: ON%d vdd not greater than ON%d", i+1, i+2)
		}
	}
	for i := 0; i < 4; i++ {
		if p.Sleep[i].Power < p.Sleep[i+1].Power {
			return fmt.Errorf("power: sleep state %s less frugal than %s",
				p.Sleep[i+1].Name, p.Sleep[i].Name)
		}
	}
	for c := InstructionClass(0); c < NumInstrClasses; c++ {
		if p.InstrWeight[c] <= 0 {
			return fmt.Errorf("power: non-positive instruction weight for %s", c)
		}
	}
	return nil
}

// DynamicPower returns C·V²·f at the given point, in watts.
func (p *Profile) DynamicPower(op OperatingPoint) float64 {
	return p.CeffF * op.Vdd * op.Vdd * op.FreqHz
}

// LeakagePower returns the leakage power at the given supply voltage.
func (p *Profile) LeakagePower(vdd float64) float64 { return p.LeakWPerV * vdd }

// IdlePower is the power while clocked but idle at op.
func (p *Profile) IdlePower(op OperatingPoint) float64 {
	return p.IdleFactor*p.DynamicPower(op) + p.LeakagePower(op.Vdd)
}

// TaskDuration returns the wall-clock time to execute `instructions`
// instructions at op.
func (p *Profile) TaskDuration(instructions int64, op OperatingPoint) sim.Time {
	cycles := float64(instructions) * p.CyclesPerInstr
	return sim.Time(cycles/op.FreqHz*float64(sim.Sec) + 0.5)
}

// BreakEven returns the minimum idle duration for which entering sleep state
// s (from an ON point with idle power pIdle) reduces total energy, and
// whether such a duration exists at all (it does not when the sleep state's
// residual power exceeds the idle power).
//
// Derivation: staying idle for T costs pIdle·T; sleeping costs
// EnterEnergy + WakeEnergy + s.Power·(T − EnterLatency − WakeLatency).
// The break-even is where the two are equal, clamped to at least the total
// transition latency.
func (p *Profile) BreakEven(pIdle float64, s SleepState) (sim.Time, bool) {
	if pIdle <= s.Power {
		return 0, false
	}
	etr := s.EnterEnergy + s.WakeEnergy
	ttr := s.EnterLatency + s.WakeLatency
	num := etr - s.Power*ttr.Seconds()
	tbe := sim.FromSeconds(num / (pIdle - s.Power))
	if tbe < ttr {
		tbe = ttr
	}
	return tbe, true
}
