package acpi

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"godpm/internal/power"
	"godpm/internal/sim"
)

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		SoftOff: "SoftOff",
		SL4:     "SL4", SL3: "SL3", SL2: "SL2", SL1: "SL1",
		ON4: "ON4", ON3: "ON3", ON2: "ON2", ON1: "ON1",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), name)
		}
	}
}

func TestParseStateRoundTrip(t *testing.T) {
	for _, s := range AllStates() {
		got, err := ParseState(s.String())
		if err != nil || got != s {
			t.Errorf("ParseState(%q) = %v,%v", s.String(), got, err)
		}
	}
	if _, err := ParseState("ON9"); err == nil {
		t.Error("ParseState accepted bogus name")
	}
}

func TestStateClassification(t *testing.T) {
	for _, s := range AllStates() {
		if s.IsOn() && s.IsSleep() {
			t.Errorf("%s both on and sleep", s)
		}
	}
	if !ON1.IsOn() || !ON4.IsOn() || SL1.IsOn() || SoftOff.IsOn() {
		t.Error("IsOn misclassifies")
	}
	if !SL1.IsSleep() || !SL4.IsSleep() || ON1.IsSleep() || SoftOff.IsSleep() {
		t.Error("IsSleep misclassifies")
	}
}

func TestIndexRoundTrips(t *testing.T) {
	for i := 0; i < 4; i++ {
		if OnState(i).OnIndex() != i {
			t.Errorf("OnState(%d).OnIndex() = %d", i, OnState(i).OnIndex())
		}
	}
	for i := 0; i < 5; i++ {
		if SleepStateByIndex(i).SleepIndex() != i {
			t.Errorf("SleepStateByIndex(%d).SleepIndex() = %d", i, SleepStateByIndex(i).SleepIndex())
		}
	}
	if OnState(0) != ON1 || OnState(3) != ON4 {
		t.Error("OnState mapping wrong")
	}
	if SleepStateByIndex(0) != SL1 || SleepStateByIndex(4) != SoftOff {
		t.Error("SleepStateByIndex mapping wrong")
	}
}

func TestOnIndexPanicsForSleep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SL1.OnIndex()
}

func TestSleepIndexPanicsForOn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ON2.SleepIndex()
}

func newTestPSM(t *testing.T) (*sim.Kernel, *PSM) {
	t.Helper()
	k := sim.NewKernel()
	return k, NewPSM(k, "ip0", power.DefaultProfile(), ON1)
}

func TestPSMInitialState(t *testing.T) {
	_, p := newTestPSM(t)
	if p.State() != ON1 {
		t.Fatalf("initial state %v, want ON1", p.State())
	}
	if p.Transitioning().Read() {
		t.Fatal("new PSM should not be transitioning")
	}
}

func TestPSMTransitionLatencyAndState(t *testing.T) {
	k, p := newTestPSM(t)
	lat, err := p.Request(SL2)
	if err != nil {
		t.Fatal(err)
	}
	want := power.DefaultProfile().Sleep[SL2.SleepIndex()].EnterLatency
	if lat != want {
		t.Fatalf("latency %v, want %v", lat, want)
	}
	if err := k.Run(lat - 1); err != nil {
		t.Fatal(err)
	}
	if p.State() != ON1 || !p.Transitioning().Read() {
		t.Fatalf("mid-transition: state=%v transitioning=%v", p.State(), p.Transitioning().Read())
	}
	if err := k.Run(lat + 1); err != nil {
		t.Fatal(err)
	}
	if p.State() != SL2 || p.Transitioning().Read() {
		t.Fatalf("after transition: state=%v transitioning=%v", p.State(), p.Transitioning().Read())
	}
	if p.TransitionCount() != 1 {
		t.Fatalf("TransitionCount = %d", p.TransitionCount())
	}
}

func TestPSMRequestWhileTransitioningFails(t *testing.T) {
	k, p := newTestPSM(t)
	if _, err := p.Request(SL3); err != nil {
		t.Fatal(err)
	}
	// Before the transition completes, a second request must fail. The
	// check happens inside a process at a time strictly before completion.
	var second error
	e := k.NewEvent("probe")
	k.Method("probe", func() { _, second = p.Request(ON2) }).Sensitive(e).DontInitialize()
	e.Notify(1 * sim.Ns)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if second == nil {
		t.Fatal("Request during transition did not fail")
	}
}

func TestPSMRequestSameStateCompletesImmediately(t *testing.T) {
	k, p := newTestPSM(t)
	doneFired := false
	k.Method("w", func() { doneFired = true }).Sensitive(p.Done()).DontInitialize()
	lat, err := p.Request(ON1)
	if err != nil || lat != 0 {
		t.Fatalf("Request(same) = %v,%v", lat, err)
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if !doneFired {
		t.Fatal("Done did not fire for degenerate request")
	}
	if p.TransitionCount() != 0 {
		t.Fatal("degenerate request counted as transition")
	}
}

func TestPSMInvalidTargetFails(t *testing.T) {
	_, p := newTestPSM(t)
	if _, err := p.Request(State(99)); err == nil {
		t.Fatal("invalid state accepted")
	}
}

func TestTransitionCostSymmetryAndClasses(t *testing.T) {
	_, p := newTestPSM(t)
	prof := power.DefaultProfile()

	// ON↔ON: per-step scaling cost, symmetric.
	lat12, e12 := p.TransitionCost(ON1, ON2)
	lat21, e21 := p.TransitionCost(ON2, ON1)
	if lat12 != lat21 || e12 != e21 {
		t.Error("ON↔ON cost not symmetric")
	}
	lat14, _ := p.TransitionCost(ON1, ON4)
	if lat14 != 3*prof.VScaleLatency {
		t.Errorf("ON1→ON4 latency %v, want 3 scaling steps", lat14)
	}

	// ON→sleep uses enter cost; sleep→ON uses wake cost.
	latEnter, eEnter := p.TransitionCost(ON1, SL3)
	if latEnter != prof.Sleep[2].EnterLatency || eEnter != prof.Sleep[2].EnterEnergy {
		t.Error("ON→SL3 cost mismatch")
	}
	latWake, eWake := p.TransitionCost(SL3, ON2)
	if latWake != prof.Sleep[2].WakeLatency || eWake != prof.Sleep[2].WakeEnergy {
		t.Error("SL3→ON cost mismatch")
	}

	// sleep→sleep passes through ON.
	latSS, eSS := p.TransitionCost(SL1, SL4)
	if latSS != prof.Sleep[0].WakeLatency+prof.Sleep[3].EnterLatency {
		t.Errorf("SL1→SL4 latency %v", latSS)
	}
	if eSS != prof.Sleep[0].WakeEnergy+prof.Sleep[3].EnterEnergy {
		t.Errorf("SL1→SL4 energy %v", eSS)
	}

	// Identity is free.
	if l, e := p.TransitionCost(ON3, ON3); l != 0 || e != 0 {
		t.Error("identity transition not free")
	}
}

func TestPSMEnergyAccounting(t *testing.T) {
	k, p := newTestPSM(t)
	var sunk float64
	p.OnEnergy(func(j float64) { sunk += j })
	if _, err := p.Request(SL1); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	wantE := power.DefaultProfile().Sleep[0].EnterEnergy
	if p.TransitionEnergy() != wantE || sunk != wantE {
		t.Fatalf("energy accounted %v / sunk %v, want %v", p.TransitionEnergy(), sunk, wantE)
	}
}

func TestPSMContextLossThroughSoftOff(t *testing.T) {
	k, p := newTestPSM(t)
	if _, err := p.Request(SoftOff); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if !p.ContextLost() {
		t.Fatal("soft-off did not set ContextLost")
	}
	p.ClearContextLost()
	if p.ContextLost() {
		t.Fatal("ClearContextLost did not clear")
	}
}

func TestPSMStatePower(t *testing.T) {
	k, p := newTestPSM(t)
	prof := power.DefaultProfile()
	if p.StatePower() != prof.IdlePower(prof.On[0]) {
		t.Fatal("ON1 state power should be ON1 idle power")
	}
	if _, err := p.Request(SL4); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if p.StatePower() != prof.Sleep[3].Power {
		t.Fatal("SL4 state power mismatch")
	}
}

func TestPSMOperatingPoint(t *testing.T) {
	_, p := newTestPSM(t)
	if p.OperatingPoint().Name != "ON1" {
		t.Fatalf("OperatingPoint = %v", p.OperatingPoint().Name)
	}
}

// Property: any random walk over valid states keeps the PSM consistent —
// after each completed transition the state equals the request, the
// transitioning flag is clear, and accumulated energy equals the sum of the
// per-transition costs.
func TestPSMPropertyRandomWalk(t *testing.T) {
	f := func(steps []uint8) bool {
		if len(steps) > 30 {
			steps = steps[:30]
		}
		k := sim.NewKernel()
		p := NewPSM(k, "ip", power.DefaultProfile(), ON1)
		var wantEnergy float64
		cur := ON1
		ok := true
		k.Thread("driver", func(c *sim.Ctx) {
			for _, s := range steps {
				target := State(int(s) % NumStates)
				_, e := p.TransitionCost(cur, target)
				if _, err := p.Request(target); err != nil {
					ok = false
					return
				}
				c.Wait(p.Done())
				if p.State() != target || p.Transitioning().Read() {
					ok = false
					return
				}
				if target != cur {
					wantEnergy += e
				}
				cur = target
			}
		})
		if err := k.Run(sim.MaxTime); err != nil {
			return false
		}
		diff := p.TransitionEnergy() - wantEnergy
		if diff < 0 {
			diff = -diff
		}
		return ok && diff < 1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTransitionTableComplete(t *testing.T) {
	prof := power.DefaultProfile()
	entries := TransitionTable(prof)
	if len(entries) != NumStates*NumStates {
		t.Fatalf("entries = %d, want %d", len(entries), NumStates*NumStates)
	}
	seen := map[[2]State]bool{}
	for _, e := range entries {
		key := [2]State{e.From, e.To}
		if seen[key] {
			t.Fatalf("duplicate entry %v→%v", e.From, e.To)
		}
		seen[key] = true
		if e.From == e.To {
			if e.Latency != 0 || e.EnergyJ != 0 {
				t.Errorf("identity %v not free", e.From)
			}
			continue
		}
		if e.Latency <= 0 {
			t.Errorf("%v→%v has non-positive latency", e.From, e.To)
		}
		if e.EnergyJ <= 0 {
			t.Errorf("%v→%v has non-positive energy", e.From, e.To)
		}
	}
}

func TestTransitionTableDeeperSleepCostsMoreToWake(t *testing.T) {
	prof := power.DefaultProfile()
	entries := TransitionTable(prof)
	cost := func(from, to State) sim.Time {
		for _, e := range entries {
			if e.From == from && e.To == to {
				return e.Latency
			}
		}
		t.Fatalf("missing %v→%v", from, to)
		return 0
	}
	if !(cost(SL1, ON1) < cost(SL2, ON1) && cost(SL2, ON1) < cost(SL3, ON1) &&
		cost(SL3, ON1) < cost(SL4, ON1) && cost(SL4, ON1) < cost(SoftOff, ON1)) {
		t.Fatal("wake latency not increasing with sleep depth")
	}
}

func TestFormatTransitionMatrix(t *testing.T) {
	out := FormatTransitionMatrix(power.DefaultProfile())
	for _, want := range []string{"from\\to", "SoftOff", "ON1", "SL4"} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix missing %q", want)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != NumStates+1 {
		t.Errorf("matrix has %d lines, want %d", lines, NumStates+1)
	}
}

// refStateString is String as first written with fmt; the table-driven
// String and its Append must render every value exactly like it.
func refStateString(s State) string {
	switch s {
	case SoftOff:
		return "SoftOff"
	case SL4, SL3, SL2, SL1:
		return fmt.Sprintf("SL%d", 5-int(s))
	case ON4, ON3, ON2, ON1:
		return fmt.Sprintf("ON%d", int(ON1)-int(s)+1)
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

func TestStateAppendMatchesString(t *testing.T) {
	for v := State(-40); v <= 40; v++ {
		want := refStateString(v)
		if got := v.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(v), got, want)
		}
		if got := string(v.Append([]byte("x="))); got != "x="+want {
			t.Errorf("State(%d).Append = %q, want %q", int(v), got, "x="+want)
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = State(1).Append(buf[:0]); _ = State(2).String() }); n != 0 {
		t.Errorf("Append/String of an in-range value allocate %.0f times, want 0", n)
	}
}
