package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"godpm/internal/sim"
)

// step advances n by dt at power the way the SoC's accountant does:
// Advance from the live temperature, then Set.
func step(n *Node, power float64, dt sim.Time) {
	n.Set(n.Advance(n.TempC(), power, dt.Seconds()))
}

// steadyStateC is the closed-form equilibrium of the single-node RC model
// under a constant power draw: Tamb + P·Rth, with Rth scaled by FanFactor
// while the fan runs.
func steadyStateC(p Params, fan bool, power float64) float64 {
	rth := p.RthKperW
	if fan {
		rth *= p.FanFactor
	}
	return p.AmbientC + power*rth
}

func TestDefaultParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	mut := []func(*Params){
		func(p *Params) { p.RthKperW = 0 },
		func(p *Params) { p.CthJperK = -1 },
		func(p *Params) { p.FanFactor = 1.0 },
		func(p *Params) { p.MediumAboveC = p.AmbientC },
		func(p *Params) { p.HighAboveC = p.MediumAboveC },
		func(p *Params) { p.HysteresisC = 100 },
	}
	for i, m := range mut {
		p := DefaultParams()
		m(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestHeatingTowardsSteadyState(t *testing.T) {
	k := sim.NewKernel()
	n := NewNode(k, "die", DefaultParams(), 45)
	want := steadyStateC(DefaultParams(), false, 0.648) // ≈ 45 + 0.648·50 = 77.4
	for i := 0; i < 100; i++ {
		step(n, 0.648, sim.Ms) // 100 ms >> tau of 5 ms
	}
	if math.Abs(n.TempC()-want) > 0.5 {
		t.Fatalf("TempC = %v, want ≈%v", n.TempC(), want)
	}
}

func TestCoolingTowardsAmbient(t *testing.T) {
	k := sim.NewKernel()
	n := NewNode(k, "die", DefaultParams(), 90)
	for i := 0; i < 100; i++ {
		step(n, 0, sim.Ms)
	}
	if math.Abs(n.TempC()-45) > 0.5 {
		t.Fatalf("TempC = %v, want ambient 45", n.TempC())
	}
}

func TestFanLowersSteadyState(t *testing.T) {
	k := sim.NewKernel()
	a := NewNode(k, "a", DefaultParams(), 45)
	n := NewNode(k, "die", DefaultParams(), 45)
	n.SetFan(true)
	for i := 0; i < 100; i++ { // 100 ms >> tau of 5 ms
		step(a, 1.0, sim.Ms)
		step(n, 1.0, sim.Ms)
	}
	noFan, withFan := a.TempC(), n.TempC()
	if withFan >= noFan {
		t.Fatalf("fan did not lower steady state: %v vs %v", withFan, noFan)
	}
	if want := steadyStateC(DefaultParams(), true, 1.0); math.Abs(withFan-want) > 0.5 {
		t.Fatalf("fan-cooled node settled at %v, want ≈%v", withFan, want)
	}
	if !n.FanOn() {
		t.Fatal("FanOn not reported")
	}
}

func TestFanSpeedsCooling(t *testing.T) {
	k := sim.NewKernel()
	a := NewNode(k, "a", DefaultParams(), 90)
	b := NewNode(k, "b", DefaultParams(), 90)
	b.SetFan(true)
	for i := 0; i < 3; i++ {
		step(a, 0, sim.Ms)
		step(b, 0, sim.Ms)
	}
	if b.TempC() >= a.TempC() {
		t.Fatalf("fan-cooled node %v not cooler than %v", b.TempC(), a.TempC())
	}
}

func TestSensorClasses(t *testing.T) {
	k := sim.NewKernel()
	cases := []struct {
		temp float64
		want Class
	}{
		{45, LowTemp}, {67.9, LowTemp}, {68, MediumTemp},
		{79.9, MediumTemp}, {80, HighTemp}, {120, HighTemp},
	}
	for _, c := range cases {
		n := NewNode(k, "die", DefaultParams(), c.temp)
		if got := n.Class(); got != c.want {
			t.Errorf("class at %v°C = %v, want %v", c.temp, got, c.want)
		}
	}
}

// settle applies pending signal updates (step called outside a process
// schedules the class write; the kernel must run to apply it).
func settle(t *testing.T, k *sim.Kernel) {
	t.Helper()
	if err := k.Run(k.Now() + 1); err != nil {
		t.Fatal(err)
	}
}

func TestSensorHysteresis(t *testing.T) {
	k := sim.NewKernel()
	n := NewNode(k, "die", DefaultParams(), 85) // High
	if n.Class() != HighTemp {
		t.Fatal("setup: want HighTemp")
	}
	// Cool to just below the High threshold but within hysteresis: stays High.
	n.tempC = 79
	step(n, 0, sim.Time(1)) // negligible dt, just to reclassify
	settle(t, k)
	if n.Class() != HighTemp {
		t.Fatalf("class at 79°C falling = %v, want HighTemp (hysteresis)", n.Class())
	}
	// Below threshold minus hysteresis: drops to Medium.
	n.tempC = 77
	step(n, 0, sim.Time(1))
	settle(t, k)
	if n.Class() != MediumTemp {
		t.Fatalf("class at 77°C falling = %v, want MediumTemp", n.Class())
	}
	// Rising again needs to reach the full threshold.
	n.tempC = 79
	step(n, 0, sim.Time(1))
	settle(t, k)
	if n.Class() != MediumTemp {
		t.Fatalf("class at 79°C rising = %v, want MediumTemp", n.Class())
	}
}

func TestClassSignalFiresOnChange(t *testing.T) {
	k := sim.NewKernel()
	n := NewNode(k, "die", DefaultParams(), 45)
	var classes []Class
	n.ClassSignal().OnChange(func(_ sim.Time, c Class) { classes = append(classes, c) })
	e := k.NewEvent("tick")
	i := 0
	k.Method("heat", func() {
		step(n, 2.0, sim.Ms) // strong heating
		i++
		if i < 20 {
			e.Notify(sim.Ms)
		}
	}).Sensitive(e)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(classes) < 2 {
		t.Fatalf("classes observed %v, want Low→Medium→High ramp", classes)
	}
	if classes[len(classes)-1] != HighTemp {
		t.Fatalf("final class %v, want HighTemp", classes[len(classes)-1])
	}
}

func TestPredictClassMatchesStepping(t *testing.T) {
	k := sim.NewKernel()
	n := NewNode(k, "die", DefaultParams(), 50)
	predicted := n.PredictClass(1.5, 20*sim.Ms)
	// Actually run it.
	m := NewNode(k, "die2", DefaultParams(), 50)
	for i := 0; i < 20; i++ {
		step(m, 1.5, sim.Ms)
	}
	settle(t, k)
	if got := m.Class(); got != predicted {
		t.Fatalf("predicted %v, stepping gave %v (T=%v)", predicted, got, m.TempC())
	}
	// Prediction must not mutate.
	if n.TempC() != 50 {
		t.Fatalf("prediction mutated temperature to %v", n.TempC())
	}
}

func TestNegativePowerIgnored(t *testing.T) {
	k := sim.NewKernel()
	n := NewNode(k, "die", DefaultParams(), 45)
	step(n, -10, sim.Ms)
	if n.TempC() < 44.9 {
		t.Fatalf("negative power cooled below ambient: %v", n.TempC())
	}
}

// Property: temperature never overshoots the band spanned by the initial
// temperature and the steady state, for any power level.
func TestTemperatureBoundedProperty(t *testing.T) {
	f := func(p uint8, t0 uint8) bool {
		k := sim.NewKernel()
		power := float64(p) / 100 // 0..2.55 W
		start := 45 + float64(t0%60)
		n := NewNode(k, "die", DefaultParams(), start)
		ss := steadyStateC(DefaultParams(), false, power)
		lo, hi := math.Min(start, ss)-1e-6, math.Max(start, ss)+1e-6
		for i := 0; i < 50; i++ {
			step(n, power, sim.Ms)
			if n.TempC() < lo || n.TempC() > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refClassString is String as first written with fmt; the table-driven
// String and its Append must render every value exactly like it.
func refClassString(c Class) string {
	switch c {
	case LowTemp:
		return "Low"
	case MediumTemp:
		return "Medium"
	case HighTemp:
		return "High"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

func TestClassAppendMatchesString(t *testing.T) {
	for v := Class(-40); v <= 40; v++ {
		want := refClassString(v)
		if got := v.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", int(v), got, want)
		}
		if got := string(v.Append([]byte("x="))); got != "x="+want {
			t.Errorf("Class(%d).Append = %q, want %q", int(v), got, "x="+want)
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = Class(1).Append(buf[:0]); _ = Class(2).String() }); n != 0 {
		t.Errorf("Append/String of an in-range value allocate %.0f times, want 0", n)
	}
}

// TestClassRangeMatchesClassify: a temperature lies in keeps(cur) exactly
// when classify keeps class cur, at the shipped thresholds and at random
// ones, on every threshold and its float64 neighbours and at random
// temperatures.
func TestClassRangeMatchesClassify(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	check := func(th SensorThresholds) {
		temps := []float64{-math.MaxFloat64, math.MaxFloat64}
		for _, x := range []float64{th.MediumAboveC, th.HighAboveC,
			th.MediumAboveC - th.HysteresisC, th.HighAboveC - th.HysteresisC} {
			temps = append(temps, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
		}
		for i := 0; i < 50; i++ {
			temps = append(temps, r.Float64()*400-100)
		}
		for cur := Class(-1); cur <= Class(NumClasses); cur++ {
			lo, hi := th.keeps(cur)
			for _, tc := range temps {
				if in, keep := lo <= tc && tc < hi, th.classify(tc, cur) == cur; in != keep {
					t.Fatalf("%+v: %v°C in keeps(%v) = [%v, %v) is %v, classify keeps it: %v",
						th, tc, cur, lo, hi, in, keep)
				}
			}
		}
	}
	p := DefaultParams()
	check(SensorThresholds{MediumAboveC: p.MediumAboveC, HighAboveC: p.HighAboveC, HysteresisC: p.HysteresisC})
	for i := 0; i < 300; i++ {
		med := r.Float64()*200 - 50
		check(SensorThresholds{MediumAboveC: med, HighAboveC: med + 0.5 + r.Float64()*100, HysteresisC: r.Float64() * 5})
	}
}
