package lem

import (
	"testing"

	"godpm/internal/sim"
)

func TestAdaptiveUnseenPredictsZero(t *testing.T) {
	p := NewAdaptive(0.8, 0.2, 0.3)
	if p.Predict(99*sim.Sec) != 0 {
		t.Fatal("unseen adaptive predictor should predict 0")
	}
}

func TestAdaptiveTracksStepChange(t *testing.T) {
	// After a regime change, the fast filter's error shrinks faster and
	// the adaptive predictor must converge towards the new level quicker
	// than the slow filter alone.
	p := NewAdaptive(0.9, 0.1, 0.5)
	slow := NewEWMA(0.1)
	for i := 0; i < 20; i++ {
		p.Observe(10 * sim.Ms)
		slow.Observe(10 * sim.Ms)
	}
	for i := 0; i < 5; i++ {
		p.Observe(100 * sim.Ms)
		slow.Observe(100 * sim.Ms)
	}
	ad := p.Predict(0)
	sl := slow.Predict(0)
	if ad <= sl {
		t.Fatalf("adaptive %v not faster than slow filter %v after step change", ad, sl)
	}
	if !(p.errFast <= p.errSlow) {
		t.Fatal("adaptive should have switched to the fast filter")
	}
}

func TestAdaptivePrefersSlowOnNoise(t *testing.T) {
	// Alternating extremes punish the fast filter (it chases every sample),
	// while the slow filter sits near the mean.
	p := NewAdaptive(0.99, 0.05, 0.3)
	for i := 0; i < 60; i++ {
		if i%2 == 0 {
			p.Observe(2 * sim.Ms)
		} else {
			p.Observe(18 * sim.Ms)
		}
	}
	if p.errFast <= p.errSlow {
		t.Fatal("adaptive should prefer the slow filter on alternating noise")
	}
}

func TestAdaptiveValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewAdaptive(0.2, 0.8, 0.5) }, // fast <= slow
		func() { NewAdaptive(0.8, 0.2, 0) },   // decay
		func() { NewAdaptive(0.8, 0.2, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAdaptiveName(t *testing.T) {
	if NewAdaptive(0.8, 0.2, 0.5).Name() != "adaptive(0.80/0.20)" {
		t.Fatal("name format changed")
	}
}

func TestWindowQuantileBasics(t *testing.T) {
	p := NewWindowQuantile(4, 0.25)
	if p.Predict(0) != 0 {
		t.Fatal("empty window should predict 0")
	}
	for _, d := range []sim.Time{40 * sim.Ms, 10 * sim.Ms, 30 * sim.Ms, 20 * sim.Ms} {
		p.Observe(d)
	}
	// Sorted: 10,20,30,40; idx = 0.25*3 = 0 → 10ms.
	if got := p.Predict(0); got != 10*sim.Ms {
		t.Fatalf("Predict = %v, want 10ms", got)
	}
}

func TestWindowQuantileSlides(t *testing.T) {
	p := NewWindowQuantile(3, 1.0) // max of window
	for _, d := range []sim.Time{1 * sim.Ms, 2 * sim.Ms, 3 * sim.Ms} {
		p.Observe(d)
	}
	if p.Predict(0) != 3*sim.Ms {
		t.Fatalf("max = %v", p.Predict(0))
	}
	// Push out the 1ms sample; new window {9,2,3}ms (ring replaces oldest).
	p.Observe(9 * sim.Ms)
	if p.Predict(0) != 9*sim.Ms {
		t.Fatalf("max after slide = %v", p.Predict(0))
	}
}

func TestWindowQuantileMedian(t *testing.T) {
	p := NewWindowQuantile(5, 0.5)
	for _, d := range []sim.Time{50, 10, 30, 20, 40} {
		p.Observe(d * sim.Ms)
	}
	if got := p.Predict(0); got != 30*sim.Ms {
		t.Fatalf("median = %v, want 30ms", got)
	}
}

func TestWindowQuantileConservative(t *testing.T) {
	// A low quantile must never exceed the mean of a spread-out history.
	p := NewWindowQuantile(10, 0.25)
	var sum sim.Time
	for i := 1; i <= 10; i++ {
		d := sim.Time(i) * sim.Ms
		p.Observe(d)
		sum += d
	}
	mean := sum / 10
	if p.Predict(0) >= mean {
		t.Fatalf("quantile %v not below mean %v", p.Predict(0), mean)
	}
}

func TestWindowQuantileValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewWindowQuantile(0, 0.5) },
		func() { NewWindowQuantile(5, -0.1) },
		func() { NewWindowQuantile(5, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestWindowQuantileIgnoresHint(t *testing.T) {
	p := NewWindowQuantile(3, 0.5)
	p.Observe(5 * sim.Ms)
	if p.Predict(123*sim.Sec) != p.Predict(0) {
		t.Fatal("honest predictor used the hint")
	}
}
