// Package gem implements the Global Energy Manager: it receives resource
// requests from every IP block, assigns each a static priority, grants or
// revokes execution permission from the SoC-level view (battery status and
// chip temperature), reports to each LEM the power requested by the other
// IPs, can force low-priority PSMs into Sleep1 when resources are limited,
// and switches the supplementary fan when the chip overheats.
//
// The algorithm is the paper's, verbatim:
//
//	if (battery is Medium or High or Full) and (temperature is Low or Medium):
//	    enable every IP
//	else if (battery is Empty or Low) and (temperature is Low or Medium):
//	    enable IPs with high priority
//	else:
//	    do not enable any IP; switch on a supplementary fan
//
// Mains power is treated like a full battery. "High priority" means a
// static priority of at most HighPriorityCutoff (1 = highest).
package gem

import (
	"fmt"

	"godpm/internal/battery"
	"godpm/internal/sim"
	"godpm/internal/thermal"
)

// Config parameterises the GEM.
type Config struct {
	// HighPriorityCutoff: IPs with static priority <= cutoff count as
	// "high priority" in the limited-resources branch. Default 2.
	HighPriorityCutoff int
	// BusOccupancyLimit, when positive, adds the paper's "bus occupation"
	// resource: while the observed occupancy exceeds the limit, the GEM
	// treats the SoC as resource-limited (only high-priority IPs run)
	// even with a healthy battery. Requires SetBusProbe.
	BusOccupancyLimit float64
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig() Config { return Config{HighPriorityCutoff: 2} }

type ipEntry struct {
	name     string
	priority int // static, 1 = highest
	powerNow func() float64
	enabled  bool
	requests int
}

// GEM is the global energy manager component.
type GEM struct {
	k       *sim.Kernel
	name    string
	cfg     Config
	pack    *battery.Pack
	node    thermal.FanSource
	ips     []*ipEntry
	changed *sim.Event
	sealed  bool

	evaluations int
	fanSwitches int

	busProbe func() float64
}

// New creates a GEM observing the given battery pack and thermal node. IPs
// are registered before the simulation starts; the GEM re-evaluates its
// enable decisions whenever the battery or temperature class changes.
func New(k *sim.Kernel, name string, cfg Config, pack *battery.Pack, node thermal.FanSource) *GEM {
	if cfg.HighPriorityCutoff <= 0 {
		cfg.HighPriorityCutoff = DefaultConfig().HighPriorityCutoff
	}
	g := &GEM{
		k: k, name: name, cfg: cfg, pack: pack, node: node,
		changed: k.NewEvent(name + ".changed"),
	}
	k.Method(name+".policy", g.evaluate).
		Sensitive(pack.StatusSignal().Changed(), node.ClassSignal().Changed())
	return g
}

// Register adds an IP with its static priority (1 = highest) and a probe
// returning the IP's current power draw. It returns the IP's GEM id.
// Registration must precede the first evaluation (simulation start).
func (g *GEM) Register(name string, staticPriority int, powerNow func() float64) (int, error) {
	if g.sealed {
		return 0, fmt.Errorf("gem: %s: registration after simulation start", g.name)
	}
	if staticPriority < 1 {
		return 0, fmt.Errorf("gem: %s: static priority must be >= 1", g.name)
	}
	if powerNow == nil {
		powerNow = func() float64 { return 0 }
	}
	g.ips = append(g.ips, &ipEntry{name: name, priority: staticPriority, powerNow: powerNow})
	return len(g.ips) - 1, nil
}

// evaluate recomputes the enable set; it runs once at simulation start and
// then on every battery/temperature class change.
func (g *GEM) evaluate() {
	g.sealed = true
	g.evaluations++
	batt := g.pack.Status()
	temp := g.node.Class()

	battOK := batt == battery.Medium || batt == battery.High || batt == battery.Full || batt == battery.Mains
	battLow := batt == battery.Empty || batt == battery.Low
	tempOK := temp == thermal.LowTemp || temp == thermal.MediumTemp
	busCongested := g.cfg.BusOccupancyLimit > 0 && g.busProbe != nil &&
		g.busProbe() > g.cfg.BusOccupancyLimit

	wantFan := false
	decide := func(e *ipEntry) bool {
		switch {
		case battOK && tempOK && !busCongested:
			return true
		case (battLow || busCongested) && tempOK:
			return e.priority <= g.cfg.HighPriorityCutoff
		default:
			wantFan = true
			return false
		}
	}
	anyChange := false
	for _, e := range g.ips {
		en := decide(e)
		if en != e.enabled {
			e.enabled = en
			anyChange = true
		}
	}
	if g.node.FanOn() != wantFan {
		g.node.SetFan(wantFan)
		g.fanSwitches++
	}
	if anyChange {
		g.changed.NotifyDelta()
	}
}

// SetBusProbe attaches the bus-occupancy source for Config.
// BusOccupancyLimit. The probe is read on every policy evaluation.
func (g *GEM) SetBusProbe(probe func() float64) { g.busProbe = probe }

// Reevaluate forces a policy evaluation outside the class-change
// sensitivity, e.g. from a periodic process when a bus probe is attached
// (occupancy changes continuously, not via class events).
func (g *GEM) Reevaluate() { g.evaluate() }

// Enabled reports whether the IP may execute. LEMs consult this before
// granting a task and park their PSM in SL1 when disabled.
func (g *GEM) Enabled(id int) bool { return g.ips[id].enabled }

// Changed fires whenever at least one IP's enable decision flips.
func (g *GEM) Changed() *sim.Event { return g.changed }

// NotifyRequest records that an IP's LEM forwarded a task request (the
// paper's "the LEM forwards the request to the GEM").
func (g *GEM) NotifyRequest(id int) { g.ips[id].requests++ }

// OtherPower returns the current total power drawn by all IPs except id —
// the "energy requested by the other IP blocks" the LEM folds into its
// battery/temperature predictions.
func (g *GEM) OtherPower(id int) float64 {
	var sum float64
	for i, e := range g.ips {
		if i != id {
			sum += e.powerNow()
		}
	}
	return sum
}

// Evaluations returns how many times the policy ran.
func (g *GEM) Evaluations() int { return g.evaluations }

// FanSwitches returns how many times the fan was toggled.
func (g *GEM) FanSwitches() int { return g.fanSwitches }
