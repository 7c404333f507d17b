package thermal

import (
	"math"
	"testing"
	"testing/quick"

	"godpm/internal/sim"
)

func newNet(t *testing.T, names ...string) *Network {
	t.Helper()
	k := sim.NewKernel()
	return NewNetwork(k, "net", DefaultNetworkParams(), names, 45)
}

// netSteadyStateC is the closed-form equilibrium of node i of a network
// under constant per-node powers: the spreader settles at Tamb + Rsa·ΣP
// (Rsa scaled by FanFactor while the fan runs) and node i at Ts + Ri·Pi.
func netSteadyStateC(p NetworkParams, fan bool, i int, powers []float64) float64 {
	rsa := p.SpreaderRthKperW
	if fan {
		rsa *= p.FanFactor
	}
	var total float64
	for _, pw := range powers {
		total += max(pw, 0)
	}
	return p.AmbientC + rsa*total + p.NodeRthKperW*max(powers[i], 0)
}

func TestNetworkParamsValidate(t *testing.T) {
	if err := DefaultNetworkParams().Validate(); err != nil {
		t.Fatal(err)
	}
	mut := []func(*NetworkParams){
		func(p *NetworkParams) { p.NodeRthKperW = 0 },
		func(p *NetworkParams) { p.NodeCthJperK = -1 },
		func(p *NetworkParams) { p.SpreaderRthKperW = 0 },
		func(p *NetworkParams) { p.SpreaderCthJperK = 0 },
		func(p *NetworkParams) { p.FanFactor = 1 },
	}
	for i, m := range mut {
		p := DefaultNetworkParams()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNetworkConstructionErrors(t *testing.T) {
	k := sim.NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero nodes")
		}
	}()
	NewNetwork(k, "net", DefaultNetworkParams(), nil, 45)
}

func TestNetworkSteadyState(t *testing.T) {
	n := newNet(t, "a", "b")
	powers := []float64{0.5, 0.1}
	want0 := netSteadyStateC(DefaultNetworkParams(), false, 0, powers)
	want1 := netSteadyStateC(DefaultNetworkParams(), false, 1, powers)
	for i := 0; i < 500; i++ {
		n.StepSecs(powers, sim.Ms.Seconds())
	}
	if math.Abs(n.NodeTempC(0)-want0) > 0.5 {
		t.Fatalf("node 0 at %v, want ≈%v", n.NodeTempC(0), want0)
	}
	if math.Abs(n.NodeTempC(1)-want1) > 0.5 {
		t.Fatalf("node 1 at %v, want ≈%v", n.NodeTempC(1), want1)
	}
	// The loaded node must be hotter.
	idx, hot := n.Hottest()
	if idx != 0 || hot != n.NodeTempC(0) {
		t.Fatalf("Hottest = %d,%v", idx, hot)
	}
}

func TestNetworkNeighbourHeating(t *testing.T) {
	// An unloaded node must still heat up through the spreader when its
	// neighbour burns power — the effect the single-node model can't show.
	n := newNet(t, "hot", "cold")
	for i := 0; i < 300; i++ {
		n.StepSecs([]float64{1.0, 0}, sim.Ms.Seconds())
	}
	cold := n.NodeTempC(1)
	if cold <= 46 {
		t.Fatalf("cold node stayed at %v despite neighbour load", cold)
	}
	if cold >= n.NodeTempC(0) {
		t.Fatalf("cold node %v not cooler than loaded node %v", cold, n.NodeTempC(0))
	}
	// The cold node settles at the spreader temperature (no own load).
	if math.Abs(cold-n.SpreaderTempC()) > 0.5 {
		t.Fatalf("cold node %v far from spreader %v", cold, n.SpreaderTempC())
	}
}

func TestNetworkFanCoolsEverything(t *testing.T) {
	a := newNet(t, "x", "y")
	b := newNet(t, "x", "y")
	b.SetFan(true)
	if !b.FanOn() {
		t.Fatal("fan not reported")
	}
	powers := []float64{0.5, 0.5}
	for i := 0; i < 300; i++ {
		a.StepSecs(powers, sim.Ms.Seconds())
		b.StepSecs(powers, sim.Ms.Seconds())
	}
	if b.NodeTempC(0) >= a.NodeTempC(0) {
		t.Fatalf("fan did not cool: %v vs %v", b.NodeTempC(0), a.NodeTempC(0))
	}
}

func TestNetworkCoolsToAmbient(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, "net", DefaultNetworkParams(), []string{"a"}, 90)
	for i := 0; i < 1000; i++ {
		n.StepSecs([]float64{0}, sim.Ms.Seconds())
	}
	if math.Abs(n.NodeTempC(0)-45) > 0.5 || math.Abs(n.SpreaderTempC()-45) > 0.5 {
		t.Fatalf("did not cool to ambient: node %v spreader %v", n.NodeTempC(0), n.SpreaderTempC())
	}
}

func TestNetworkNodeLookup(t *testing.T) {
	n := newNet(t, "cpu", "dsp")
	if n.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", n.NumNodes())
	}
}

func TestNetworkStepPowerCountMismatchPanics(t *testing.T) {
	n := newNet(t, "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.StepSecs([]float64{1}, sim.Ms.Seconds())
}

func TestNetworkHottestSignalUpdates(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k, "net", DefaultNetworkParams(), []string{"a"}, 45)
	e := k.NewEvent("tick")
	i := 0
	k.Method("drv", func() {
		n.StepSecs([]float64{2.0}, sim.Ms.Seconds())
		i++
		if i < 50 {
			e.Notify(sim.Ms)
		}
	}).Sensitive(e)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if _, hot := n.Hottest(); hot <= 46 {
		t.Fatalf("hottest node %v did not track heating", hot)
	}
}

// Property: node temperatures stay within [ambient, steady-state] bounds
// under constant load from an ambient start.
func TestNetworkBoundedProperty(t *testing.T) {
	f := func(p1, p2 uint8) bool {
		k := sim.NewKernel()
		n := NewNetwork(k, "net", DefaultNetworkParams(), []string{"a", "b"}, 45)
		powers := []float64{float64(p1%30) / 10, float64(p2%30) / 10}
		hi0 := netSteadyStateC(DefaultNetworkParams(), false, 0, powers) + 1e-6
		hi1 := netSteadyStateC(DefaultNetworkParams(), false, 1, powers) + 1e-6
		for i := 0; i < 100; i++ {
			n.StepSecs(powers, sim.Ms.Seconds())
			if n.NodeTempC(0) < 45-1e-6 || n.NodeTempC(0) > hi0 {
				return false
			}
			if n.NodeTempC(1) < 45-1e-6 || n.NodeTempC(1) > hi1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
