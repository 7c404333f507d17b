package acpi

import (
	"fmt"
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

// allStates is every state in capability order (SoftOff first).
func allStates() []State {
	out := make([]State, NumStates)
	for i := range out {
		out[i] = State(i)
	}
	return out
}

// countTransitions counts the transitions p starts from now on, as rising
// edges of its transitioning signal.
func countTransitions(p *PSM) *int {
	n := new(int)
	p.Transitioning().OnChange(func(_ sim.Time, on bool) {
		if on {
			*n++
		}
	})
	return n
}

func TestStateClassification(t *testing.T) {
	for _, s := range allStates() {
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
	for i, s := range []State{ON1, ON2, ON3, ON4} {
		if s.OnIndex() != i {
			t.Errorf("%v.OnIndex() = %d, want %d", s, s.OnIndex(), i)
		}
	}
	for i := 0; i < 5; i++ {
		if SleepStateByIndex(i).SleepIndex() != i {
			t.Errorf("SleepStateByIndex(%d).SleepIndex() = %d", i, SleepStateByIndex(i).SleepIndex())
		}
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
	transitions := countTransitions(p)
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
	if *transitions != 1 {
		t.Fatalf("%d transitions, want 1", *transitions)
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
	transitions := countTransitions(p)
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
	if *transitions != 0 || p.State() != ON1 {
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
	if sunk != wantE {
		t.Fatalf("energy sunk %v, want %v", sunk, wantE)
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
		var gotEnergy, wantEnergy float64
		p.OnEnergy(func(j float64) { gotEnergy += j })
		cur := ON1
		ok := true
		// The driver requests each step's target, then checks it on the
		// activation the done event brings.
		i := 0
		var drv *sim.Proc
		drv = k.Method("driver", func() {
			if i > 0 {
				target := State(int(steps[i-1]) % NumStates)
				if p.State() != target || p.Transitioning().Read() {
					ok = false
					return
				}
				cur = target
			}
			if i == len(steps) {
				return
			}
			target := State(int(steps[i]) % NumStates)
			i++
			if _, e := p.TransitionCost(cur, target); target != cur {
				wantEnergy += e
			}
			if _, err := p.Request(target); err != nil {
				ok = false
				return
			}
			drv.NextTrigger(p.Done())
		})
		if err := k.Run(sim.MaxTime); err != nil {
			return false
		}
		diff := gotEnergy - wantEnergy
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
	p := NewPSM(sim.NewKernel(), "ip", power.DefaultProfile(), ON1)
	for _, from := range allStates() {
		for _, to := range allStates() {
			lat, e := p.TransitionCost(from, to)
			if from == to {
				if lat != 0 || e != 0 {
					t.Errorf("identity %v not free", from)
				}
				continue
			}
			if lat <= 0 {
				t.Errorf("%v→%v has non-positive latency", from, to)
			}
			if e <= 0 {
				t.Errorf("%v→%v has non-positive energy", from, to)
			}
		}
	}
}

func TestTransitionTableDeeperSleepCostsMoreToWake(t *testing.T) {
	p := NewPSM(sim.NewKernel(), "ip", power.DefaultProfile(), ON1)
	cost := func(from, to State) sim.Time {
		lat, _ := p.TransitionCost(from, to)
		return lat
	}
	if !(cost(SL1, ON1) < cost(SL2, ON1) && cost(SL2, ON1) < cost(SL3, ON1) &&
		cost(SL3, ON1) < cost(SL4, ON1) && cost(SL4, ON1) < cost(SoftOff, ON1)) {
		t.Fatal("wake latency not increasing with sleep depth")
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
