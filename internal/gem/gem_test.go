package gem

import (
	"testing"

	"godpm/internal/battery"
	"godpm/internal/sim"
	"godpm/internal/thermal"
)

// rig bundles a GEM with a controllable battery and thermal node.
type rig struct {
	k     *sim.Kernel
	model *battery.Linear
	pack  *battery.Pack
	node  *thermal.Node
	gem   *GEM
	ids   []int
}

func newRig(t *testing.T, soc, tempC float64, prios ...int) *rig {
	t.Helper()
	k := sim.NewKernel()
	model := battery.NewLinear(100, soc)
	pack := battery.NewPack(k, "bat", model, battery.DefaultThresholds(), false)
	node := thermal.NewNode(k, "die", thermal.DefaultParams(), tempC)
	g := New(k, "gem", DefaultConfig(), pack, node)
	r := &rig{k: k, model: model, pack: pack, node: node, gem: g}
	for i, p := range prios {
		id, err := g.Register(nameOf(i), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.ids = append(r.ids, id)
	}
	return r
}

func nameOf(i int) string { return string(rune('a' + i)) }

// settle runs the kernel one instant so pending evaluations apply.
func (r *rig) settle(t *testing.T) {
	t.Helper()
	if err := r.k.Run(r.k.Now() + 1); err != nil {
		t.Fatal(err)
	}
}

func TestEnableAllWhenHealthy(t *testing.T) {
	r := newRig(t, 0.95, 50, 1, 2, 3, 4)
	r.settle(t)
	for _, id := range r.ids {
		if !r.gem.Enabled(id) {
			t.Fatalf("IP %d disabled despite full battery and low temp", id)
		}
	}
	if r.node.FanOn() {
		t.Fatal("fan on in the healthy branch")
	}
}

func TestEnableHighPriorityOnlyWhenBatteryLow(t *testing.T) {
	r := newRig(t, 0.2, 50, 1, 2, 3, 4)
	r.settle(t)
	want := []bool{true, true, false, false} // cutoff 2
	for i, id := range r.ids {
		if r.gem.Enabled(id) != want[i] {
			t.Fatalf("IP prio %d enabled=%v, want %v", i+1, r.gem.Enabled(id), want[i])
		}
	}
}

func TestDisableAllAndFanWhenHot(t *testing.T) {
	r := newRig(t, 0.95, 90, 1, 2)
	r.settle(t)
	for _, id := range r.ids {
		if r.gem.Enabled(id) {
			t.Fatal("IP enabled despite high temperature")
		}
	}
	if !r.node.FanOn() {
		t.Fatal("fan not switched on in the limited-resources branch")
	}
	if r.gem.FanSwitches() != 1 {
		t.Fatalf("FanSwitches = %d", r.gem.FanSwitches())
	}
}

func TestMainsTreatedAsHealthy(t *testing.T) {
	k := sim.NewKernel()
	pack := battery.NewPack(k, "psu", battery.NewLinear(100, 0.1), battery.DefaultThresholds(), true)
	node := thermal.NewNode(k, "die", thermal.DefaultParams(), 50)
	g := New(k, "gem", DefaultConfig(), pack, node)
	id, err := g.Register("a", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	if !g.Enabled(id) {
		t.Fatal("mains-powered SoC should enable everyone")
	}
}

func TestReevaluationOnClassChange(t *testing.T) {
	r := newRig(t, 0.95, 50, 1, 4)
	r.settle(t)
	if !r.gem.Enabled(r.ids[1]) {
		t.Fatal("setup: all enabled")
	}
	changes := 0
	r.k.Method("watch", func() { changes++ }).Sensitive(r.gem.Changed()).DontInitialize()

	// Battery collapses to Low: the pack steps and the class change must
	// re-run the GEM policy, disabling priority 4.
	drain := r.k.NewEvent("drain")
	r.k.Method("drainer", func() {
		r.model.SetWells(battery.Wells{Available: 0.2 * r.model.CapacityJ()})
		r.pack.Refresh(r.model.Wells())
	}).Sensitive(drain).DontInitialize()
	drain.Notify(sim.Ms)
	if err := r.k.Run(10 * sim.Ms); err != nil {
		t.Fatal(err)
	}
	if r.gem.Enabled(r.ids[1]) {
		t.Fatal("priority 4 still enabled after battery dropped to Low")
	}
	if !r.gem.Enabled(r.ids[0]) {
		t.Fatal("priority 1 must stay enabled")
	}
	if changes != 1 {
		t.Fatalf("Changed fired %d times, want 1", changes)
	}
	if r.gem.Evaluations() < 2 {
		t.Fatalf("Evaluations = %d, want >= 2", r.gem.Evaluations())
	}
}

func TestFanRecoveryReenables(t *testing.T) {
	r := newRig(t, 0.95, 90, 1)
	r.settle(t)
	if r.gem.Enabled(r.ids[0]) {
		t.Fatal("setup: disabled when hot")
	}
	// The fan (now on) cools the die below the hysteresis band.
	cool := r.k.NewEvent("cool")
	r.k.Method("cooler", func() {
		r.node.Set(r.node.Advance(r.node.TempC(), 0, (5 * sim.Ms).Seconds()))
		if r.node.Class() == thermal.HighTemp {
			cool.Notify(sim.Ms)
		}
	}).Sensitive(cool).DontInitialize()
	cool.Notify(sim.Ms)
	if err := r.k.Run(100 * sim.Ms); err != nil {
		t.Fatal(err)
	}
	if !r.gem.Enabled(r.ids[0]) {
		t.Fatal("IP not re-enabled after cooling")
	}
	if r.node.FanOn() {
		t.Fatal("fan still on after recovery")
	}
}

func TestOtherPowerExcludesSelf(t *testing.T) {
	k := sim.NewKernel()
	pack := battery.NewPack(k, "bat", battery.NewLinear(100, 0.95), battery.DefaultThresholds(), false)
	node := thermal.NewNode(k, "die", thermal.DefaultParams(), 50)
	g := New(k, "gem", DefaultConfig(), pack, node)
	p0, p1 := 0.5, 0.25
	id0, _ := g.Register("a", 1, func() float64 { return p0 })
	id1, _ := g.Register("b", 2, func() float64 { return p1 })
	if got := g.OtherPower(id0); got != p1 {
		t.Fatalf("OtherPower(0) = %v, want %v", got, p1)
	}
	if got := g.OtherPower(id1); got != p0 {
		t.Fatalf("OtherPower(1) = %v, want %v", got, p0)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := newRig(t, 0.95, 50, 1)
	if _, err := r.gem.Register("bad", 0, nil); err == nil {
		t.Fatal("priority 0 accepted")
	}
	r.settle(t)
	if _, err := r.gem.Register("late", 1, nil); err == nil {
		t.Fatal("registration after start accepted")
	}
}

func TestRequestsCounted(t *testing.T) {
	r := newRig(t, 0.95, 50, 1)
	r.gem.NotifyRequest(r.ids[0])
	r.gem.NotifyRequest(r.ids[0])
	if r.gem.Requests(r.ids[0]) != 2 {
		t.Fatalf("Requests = %d", r.gem.Requests(r.ids[0]))
	}
	if len(r.gem.ips) != 1 || r.gem.Priority(r.ids[0]) != 1 {
		t.Fatal("registry accessors wrong")
	}
}

func TestCutoffConfigurable(t *testing.T) {
	k := sim.NewKernel()
	pack := battery.NewPack(k, "bat", battery.NewLinear(100, 0.2), battery.DefaultThresholds(), false)
	node := thermal.NewNode(k, "die", thermal.DefaultParams(), 50)
	g := New(k, "gem", Config{HighPriorityCutoff: 3}, pack, node)
	id3, _ := g.Register("c", 3, nil)
	id4, _ := g.Register("d", 4, nil)
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	if !g.Enabled(id3) || g.Enabled(id4) {
		t.Fatalf("cutoff 3: enabled(3)=%v enabled(4)=%v", g.Enabled(id3), g.Enabled(id4))
	}
}

func TestBusCongestionLimitsEnables(t *testing.T) {
	k := sim.NewKernel()
	pack := battery.NewPack(k, "bat", battery.NewLinear(100, 0.95), battery.DefaultThresholds(), false)
	node := thermal.NewNode(k, "die", thermal.DefaultParams(), 50)
	cfg := DefaultConfig()
	cfg.BusOccupancyLimit = 0.5
	g := New(k, "gem", cfg, pack, node)
	occupancy := 0.2
	g.SetBusProbe(func() float64 { return occupancy })
	id1, _ := g.Register("a", 1, nil)
	id4, _ := g.Register("d", 4, nil)
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	if !g.Enabled(id1) || !g.Enabled(id4) {
		t.Fatal("uncongested bus should enable everyone")
	}
	// Congest the bus and force a re-evaluation.
	occupancy = 0.9
	g.Reevaluate()
	if !g.Enabled(id1) {
		t.Fatal("high priority must survive congestion")
	}
	if g.Enabled(id4) {
		t.Fatal("low priority should be disabled under congestion")
	}
	// Clearing congestion restores everyone.
	occupancy = 0.1
	g.Reevaluate()
	if !g.Enabled(id4) {
		t.Fatal("low priority not restored after congestion cleared")
	}
}

func TestBusLimitWithoutProbeIgnored(t *testing.T) {
	k := sim.NewKernel()
	pack := battery.NewPack(k, "bat", battery.NewLinear(100, 0.95), battery.DefaultThresholds(), false)
	node := thermal.NewNode(k, "die", thermal.DefaultParams(), 50)
	cfg := DefaultConfig()
	cfg.BusOccupancyLimit = 0.5
	g := New(k, "gem", cfg, pack, node)
	id, _ := g.Register("a", 4, nil)
	if err := k.Run(1); err != nil {
		t.Fatal(err)
	}
	if !g.Enabled(id) {
		t.Fatal("limit without probe must not disable anyone")
	}
}
