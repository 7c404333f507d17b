package thermal

import (
	"fmt"
	"math"

	"godpm/internal/sim"
)

// NetworkParams describes a star-shaped compact thermal model: one die
// node per IP block, each coupled through its own resistance to a shared
// heat spreader, which couples to ambient (the fan reduces the
// spreader-to-ambient resistance). This is the natural extension of the
// paper's single sensor once per-IP temperatures matter — neighbouring
// blocks heat each other through the spreader.
type NetworkParams struct {
	AmbientC float64
	// NodeRthKperW / NodeCthJperK characterise each die node's coupling
	// to the spreader.
	NodeRthKperW float64
	NodeCthJperK float64
	// SpreaderRthKperW / SpreaderCthJperK characterise the spreader's
	// coupling to ambient.
	SpreaderRthKperW float64
	SpreaderCthJperK float64
	// FanFactor multiplies the spreader-to-ambient resistance while the
	// fan runs (0 < FanFactor < 1).
	FanFactor float64
}

// DefaultNetworkParams matches DefaultParams in aggregate: with all nodes
// equally loaded the total junction-to-ambient resistance is comparable to
// the single-node model's 25 K/W.
func DefaultNetworkParams() NetworkParams {
	return NetworkParams{
		AmbientC:         45,
		NodeRthKperW:     15,
		NodeCthJperK:     2.5e-5,
		SpreaderRthKperW: 10,
		SpreaderCthJperK: 4e-4,
		FanFactor:        0.4,
	}
}

// Validate checks the parameters.
func (p NetworkParams) Validate() error {
	if p.NodeRthKperW <= 0 || p.NodeCthJperK <= 0 ||
		p.SpreaderRthKperW <= 0 || p.SpreaderCthJperK <= 0 {
		return fmt.Errorf("thermal: network resistances and capacitances must be positive")
	}
	if p.FanFactor <= 0 || p.FanFactor >= 1 {
		return fmt.Errorf("thermal: FanFactor %v outside (0,1)", p.FanFactor)
	}
	return nil
}

// Network is the multi-node thermal component.
type Network struct {
	p        NetworkParams
	nodes    []float64
	spreader float64
	fanOn    bool
	// hottest carries the hottest node temperature. Nothing reads it, but
	// its change notifications are delta cycles that Result.Deltas counts
	// and every result digest pins, so StepSecs keeps writing it.
	hottest *sim.Signal[float64]

	// onStep, when set (AttachSensors), refreshes the quantising sensors
	// after every integration step.
	onStep func()
}

// NewNetwork creates a network with one node per name, all starting at
// initialC (as is the spreader).
func NewNetwork(k *sim.Kernel, name string, p NetworkParams, names []string, initialC float64) *Network {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if len(names) == 0 {
		panic("thermal: network needs at least one node")
	}
	n := &Network{
		p:        p,
		nodes:    make([]float64, len(names)),
		spreader: initialC,
		hottest:  sim.NewSignal(k, name+".hottest", initialC),
	}
	for i := range n.nodes {
		n.nodes[i] = initialC
	}
	return n
}

// integrate runs the sub-stepped Euler solution over secs, mutating the
// given node/spreader state in place. StepSecs passes the live state;
// PeekStepHottest passes copies — sharing the core keeps the two paths
// bit-identical.
func (n *Network) integrate(nodes []float64, spreader *float64, powers []float64, secs float64) {
	rsa := n.p.SpreaderRthKperW
	if n.fanOn {
		rsa *= n.p.FanFactor
	}
	// Sub-step at a tenth of the fastest time constant for stability.
	tauNode := n.p.NodeRthKperW * n.p.NodeCthJperK
	tauSpreader := rsa * n.p.SpreaderCthJperK
	maxStep := math.Min(tauNode, tauSpreader) / 10
	remaining := secs
	for remaining > 1e-15 {
		h := remaining
		if h > maxStep {
			h = maxStep
		}
		var intoSpreader float64
		for i := range nodes {
			p := powers[i]
			if p < 0 {
				p = 0
			}
			flow := (nodes[i] - *spreader) / n.p.NodeRthKperW
			nodes[i] += (p - flow) / n.p.NodeCthJperK * h
			intoSpreader += flow
		}
		out := (*spreader - n.p.AmbientC) / rsa
		*spreader += (intoSpreader - out) / n.p.SpreaderCthJperK * h
		remaining -= h
	}
}

// StepSecs integrates the network for secs seconds with the given per-node
// powers (one entry per node, watts).
func (n *Network) StepSecs(powers []float64, secs float64) {
	if len(powers) != len(n.nodes) {
		panic(fmt.Sprintf("thermal: StepSecs with %d powers for %d nodes", len(powers), len(n.nodes)))
	}
	n.integrate(n.nodes, &n.spreader, powers, secs)
	_, hot := n.Hottest()
	n.hottest.Write(hot)
	if n.onStep != nil {
		n.onStep()
	}
}

// PeekStepHottest returns the hottest node temperature StepSecs over dt
// would reach, without mutating the network, its sensors or signals: the
// identical sub-stepped arithmetic on copies. Run snapshots close the
// final partial interval through it. It allocates (one copy of the node
// state) and so belongs on snapshot paths, not the per-tick one.
func (n *Network) PeekStepHottest(powers []float64, dt sim.Time) float64 {
	if len(powers) != len(n.nodes) {
		panic(fmt.Sprintf("thermal: PeekStepHottest with %d powers for %d nodes", len(powers), len(n.nodes)))
	}
	nodes := append([]float64(nil), n.nodes...)
	spreader := n.spreader
	n.integrate(nodes, &spreader, powers, dt.Seconds())
	hot := nodes[0]
	for _, t := range nodes {
		if t > hot {
			hot = t
		}
	}
	return hot
}

// NodeTempC returns a node's temperature by index.
func (n *Network) NodeTempC(i int) float64 { return n.nodes[i] }

// SpreaderTempC returns the spreader temperature.
func (n *Network) SpreaderTempC() float64 { return n.spreader }

// Hottest returns the hottest node's index and temperature.
func (n *Network) Hottest() (int, float64) {
	idx, hot := 0, n.nodes[0]
	for i, t := range n.nodes {
		if t > hot {
			idx, hot = i, t
		}
	}
	return idx, hot
}

// SetFan switches the spreader fan.
func (n *Network) SetFan(on bool) { n.fanOn = on }

// FanOn reports the fan state.
func (n *Network) FanOn() bool { return n.fanOn }

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return len(n.nodes) }
