package power

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"godpm/internal/sim"
)

func TestDefaultProfileValidates(t *testing.T) {
	if err := DefaultProfile().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	mut := []func(*Profile){
		func(p *Profile) { p.CeffF = 0 },
		func(p *Profile) { p.IdleFactor = 1.5 },
		func(p *Profile) { p.On[1].FreqHz = p.On[0].FreqHz },
		func(p *Profile) { p.On[3].Vdd = p.On[2].Vdd },
		func(p *Profile) { p.Sleep[1].Power = p.Sleep[0].Power + 1 },
		func(p *Profile) { p.InstrWeight[InstrALU] = 0 },
	}
	for i, m := range mut {
		p := DefaultProfile()
		m(p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
}

// activePower is the total power while executing at op: dynamic plus
// leakage.
func activePower(p *Profile, op OperatingPoint) float64 {
	return p.DynamicPower(op) + p.LeakagePower(op.Vdd)
}

// energyPerCycle is the dynamic energy of one clock cycle of class c at op:
// the class weight times C·V².
func energyPerCycle(p *Profile, op OperatingPoint, c InstructionClass) float64 {
	return p.InstrWeight[c] * p.CeffF * op.Vdd * op.Vdd
}

// taskEnergy is the closed-form energy of executing instructions of class
// c at op: dynamic energy per cycle over every cycle, plus leakage over the
// task's duration.
func taskEnergy(p *Profile, instructions int64, c InstructionClass, op OperatingPoint) float64 {
	cycles := float64(instructions) * p.CyclesPerInstr
	return cycles*energyPerCycle(p, op, c) + p.LeakagePower(op.Vdd)*p.TaskDuration(instructions, op).Seconds()
}

// alphaPowerFreq estimates the maximum frequency at supply voltage vdd with
// the alpha-power law f ∝ (Vdd−Vt)^alpha / Vdd (vdd above vt), normalised
// so that p's ON1 point runs at its nominal frequency.
func alphaPowerFreq(p *Profile, vdd, vt, alpha float64) float64 {
	ref := p.On[0]
	norm := ref.FreqHz / (math.Pow(ref.Vdd-vt, alpha) / ref.Vdd)
	return norm * math.Pow(vdd-vt, alpha) / vdd
}

func TestPowerOrdering(t *testing.T) {
	p := DefaultProfile()
	for i := 0; i < 3; i++ {
		if activePower(p, p.On[i]) <= activePower(p, p.On[i+1]) {
			t.Errorf("activePower(ON%d) <= activePower(ON%d)", i+1, i+2)
		}
		if p.IdlePower(p.On[i]) <= p.IdlePower(p.On[i+1]) {
			t.Errorf("IdlePower(ON%d) <= IdlePower(ON%d)", i+1, i+2)
		}
	}
	for i := range p.On {
		if p.IdlePower(p.On[i]) >= activePower(p, p.On[i]) {
			t.Errorf("IdlePower >= activePower at ON%d", i+1)
		}
	}
}

func TestDynamicPowerFormula(t *testing.T) {
	p := DefaultProfile()
	op := OperatingPoint{Name: "X", FreqHz: 100e6, Vdd: 1.0}
	want := 1e-9 * 1.0 * 1.0 * 100e6 // C·V²·f = 0.1 W
	if got := p.DynamicPower(op); math.Abs(got-want) > 1e-12 {
		t.Fatalf("DynamicPower = %v, want %v", got, want)
	}
}

func TestTaskDurationScalesWithFrequency(t *testing.T) {
	p := DefaultProfile()
	d1 := p.TaskDuration(1000, p.On[0])
	d4 := p.TaskDuration(1000, p.On[3])
	ratio := float64(d4) / float64(d1)
	if math.Abs(ratio-4.0) > 0.01 {
		t.Fatalf("ON4/ON1 duration ratio = %v, want 4 (paper's ≈300%% delay overhead)", ratio)
	}
}

func TestTaskEnergyLowerAtLowerVoltage(t *testing.T) {
	p := DefaultProfile()
	e1 := taskEnergy(p, 100000, InstrALU, p.On[0])
	e4 := taskEnergy(p, 100000, InstrALU, p.On[3])
	if e4 >= e1 {
		t.Fatalf("taskEnergy ON4 (%v) >= ON1 (%v): voltage scaling must save energy", e4, e1)
	}
	// Dynamic part scales with V²: (0.9/1.8)² = 0.25.
	if e4 > 0.5*e1 {
		t.Fatalf("ON4 energy %v should be well under half of ON1's %v", e4, e1)
	}
}

func TestInstructionClassWeights(t *testing.T) {
	p := DefaultProfile()
	prev := 0.0
	for c := InstructionClass(0); c < NumInstrClasses; c++ {
		e := energyPerCycle(p, p.On[0], c)
		if e <= prev {
			t.Fatalf("energy per cycle not increasing with class %s", c)
		}
		prev = e
	}
}

func TestInstructionClassString(t *testing.T) {
	want := map[InstructionClass]string{
		InstrALU: "ALU", InstrMemory: "MEM", InstrMultiply: "MUL", InstrIO: "IO",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
	if InstructionClass(99).String() != "InstructionClass(99)" {
		t.Errorf("out-of-range String() = %q", InstructionClass(99).String())
	}
}

func TestBreakEvenOrdering(t *testing.T) {
	// Deeper sleep states must have larger break-even times against the
	// same idle power: that's the whole point of having several.
	p := DefaultProfile()
	pIdle := p.IdlePower(p.On[0])
	prev := sim.Time(0)
	for i := 0; i < 5; i++ {
		tbe, ok := p.BreakEven(pIdle, p.Sleep[i])
		if !ok {
			t.Fatalf("no break-even for %s against idle power %v", p.Sleep[i].Name, pIdle)
		}
		if tbe <= prev {
			t.Fatalf("break-even for %s (%v) not greater than shallower state's (%v)",
				p.Sleep[i].Name, tbe, prev)
		}
		prev = tbe
	}
}

func TestBreakEvenAtLeastTransitionLatency(t *testing.T) {
	p := DefaultProfile()
	for i := range p.Sleep {
		s := p.Sleep[i]
		tbe, ok := p.BreakEven(10.0 /* huge idle power */, s)
		if !ok {
			t.Fatalf("no break-even for %s", s.Name)
		}
		if tbe < s.EnterLatency+s.WakeLatency {
			t.Fatalf("%s break-even %v below transition latency %v",
				s.Name, tbe, s.EnterLatency+s.WakeLatency)
		}
	}
}

func TestBreakEvenNearlyIdlePowerIsNeverReached(t *testing.T) {
	// A sleep state that saves a relative 1e-12 of the idle power pays its
	// transition energy back only after ~10⁶ s or more; at the slower
	// operating points that is beyond sim.Time's ~9.2e6 s range. The
	// break-even must then saturate at MaxTime rather than overflow to a
	// negative time, which the transition-latency clamp would turn into
	// "sleep on any idle of a few µs".
	p := DefaultProfile()
	saturated := 0
	for _, op := range p.On {
		pIdle := p.IdlePower(op)
		for _, s := range p.Sleep {
			s.Power = pIdle * (1 - 1e-12)
			ttr := s.EnterLatency + s.WakeLatency
			exact := (s.EnterEnergy + s.WakeEnergy - s.Power*ttr.Seconds()) / (pIdle - s.Power)
			tbe, ok := p.BreakEven(pIdle, s)
			switch {
			case !ok:
				t.Errorf("%s/%s: no break-even", op.Name, s.Name)
			case exact >= float64(sim.MaxTime)/float64(sim.Sec):
				saturated++
				if tbe != sim.MaxTime {
					t.Errorf("%s/%s: BreakEven = %v for an exact %gs, want MaxTime", op.Name, s.Name, tbe, exact)
				}
			case exact <= ttr.Seconds():
				// Sleeping through the transitions already beats idling.
				if tbe != ttr {
					t.Errorf("%s/%s: BreakEven = %v, want the transition latency %v", op.Name, s.Name, tbe, ttr)
				}
			case tbe != sim.FromSeconds(exact) || tbe.Seconds() < 1e5:
				t.Errorf("%s/%s: BreakEven = %v, want %gs", op.Name, s.Name, tbe, exact)
			}
		}
	}
	if saturated == 0 {
		t.Fatal("no case exceeded sim.Time's range: the test no longer covers saturation")
	}
}

func TestBreakEvenImpossibleWhenSleepHungrier(t *testing.T) {
	p := DefaultProfile()
	s := SleepState{Name: "bogus", Power: 1.0}
	if _, ok := p.BreakEven(0.5, s); ok {
		t.Fatal("break-even reported for a sleep state hungrier than idle")
	}
}

func TestBreakEvenEnergyInequality(t *testing.T) {
	// Property: for T > Tbe, sleeping costs strictly less energy than
	// idling; for Ttr <= T < Tbe it costs at least as much.
	p := DefaultProfile()
	pIdle := p.IdlePower(p.On[0])
	for i := range p.Sleep {
		s := p.Sleep[i]
		tbe, ok := p.BreakEven(pIdle, s)
		if !ok {
			t.Fatalf("no break-even for %s", s.Name)
		}
		sleepCost := func(T sim.Time) float64 {
			return s.EnterEnergy + s.WakeEnergy + s.Power*(T-s.EnterLatency-s.WakeLatency).Seconds()
		}
		idleCost := func(T sim.Time) float64 { return pIdle * T.Seconds() }
		above := tbe * 2
		if sleepCost(above) >= idleCost(above) {
			t.Errorf("%s: sleeping for 2×Tbe not cheaper than idling", s.Name)
		}
		ttr := s.EnterLatency + s.WakeLatency
		if tbe > ttr {
			below := ttr + (tbe-ttr)/2
			if sleepCost(below) < idleCost(below)-1e-12 {
				t.Errorf("%s: sleeping below Tbe already cheaper — Tbe too conservative", s.Name)
			}
		}
	}
}

func TestAlphaPowerLawPlausibility(t *testing.T) {
	// The default profile's lower operating points must not exceed what the
	// alpha-power law permits at their voltage (alpha=1.6, Vt=0.4V).
	p := DefaultProfile()
	for i := 1; i < 4; i++ {
		fmax := alphaPowerFreq(p, p.On[i].Vdd, 0.4, 1.6)
		if p.On[i].FreqHz > fmax*1.05 {
			t.Errorf("%s at %.2gHz exceeds alpha-power bound %.3g",
				p.On[i].Name, p.On[i].FreqHz, fmax)
		}
	}
}

// Property: task energy is monotonically non-decreasing in instruction count
// and duration is exactly linear in instruction count.
func TestTaskEnergyProperty(t *testing.T) {
	p := DefaultProfile()
	f := func(a, b uint16) bool {
		na, nb := int64(a)+1, int64(a)+1+int64(b)
		for i := range p.On {
			if taskEnergy(p, nb, InstrALU, p.On[i]) < taskEnergy(p, na, InstrALU, p.On[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refInstructionClassString is String as first written with fmt; the table-driven
// String and its Append must render every value exactly like it.
func refInstructionClassString(c InstructionClass) string {
	switch c {
	case InstrALU:
		return "ALU"
	case InstrMemory:
		return "MEM"
	case InstrMultiply:
		return "MUL"
	case InstrIO:
		return "IO"
	default:
		return fmt.Sprintf("InstructionClass(%d)", int(c))
	}
}

func TestInstructionClassAppendMatchesString(t *testing.T) {
	for v := InstructionClass(-40); v <= 40; v++ {
		want := refInstructionClassString(v)
		if got := v.String(); got != want {
			t.Errorf("InstructionClass(%d).String() = %q, want %q", int(v), got, want)
		}
		if got := string(v.Append([]byte("x="))); got != "x="+want {
			t.Errorf("InstructionClass(%d).Append = %q, want %q", int(v), got, "x="+want)
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = InstructionClass(1).Append(buf[:0]); _ = InstructionClass(2).String() }); n != 0 {
		t.Errorf("Append/String of an in-range value allocate %.0f times, want 0", n)
	}
}
