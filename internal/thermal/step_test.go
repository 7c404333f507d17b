package thermal

import (
	"math"
	"math/rand"
	"testing"

	"godpm/internal/sim"
)

// refAdvance is Node.Advance as the sub-step loop alone: a step within the
// stability bound runs the loop once. Step, and Advance's one-sub-step
// shortcut through it, must reproduce it bit for bit.
func refAdvance(n *Node, tempC, power, secs float64) float64 {
	if power < 0 {
		power = 0
	}
	tau, maxStep := n.tau, n.maxStep
	if n.fanOn {
		tau, maxStep = n.tauFan, n.maxStepFan
	}
	for remaining := secs; remaining > 1e-15; {
		h := remaining
		if h > maxStep {
			h = maxStep
		}
		tempC += (power/n.p.CthJperK - (tempC-n.p.AmbientC)/tau) * h
		remaining -= h
	}
	return tempC
}

// TestNodeStepMatchesAdvance: with the fan off and on, OneStep accepts
// exactly the steps the sub-step loop takes in one sub-step, and for those
// Step and Advance equal the loop bit for bit — at random temperatures,
// negative, zero and positive power, and steps at and around both fan
// states' bounds. The accountant's steady loop calls Step in place of
// Advance on that promise.
func TestNodeStepMatchesAdvance(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	k := sim.NewKernel()
	for trial := 0; trial < 200; trial++ {
		p := DefaultParams()
		if trial > 0 {
			p.AmbientC = -20 + 60*r.Float64()
			p.RthKperW = 1 + 50*r.Float64()
			p.CthJperK = math.Pow(10, -6+4*r.Float64())
			p.FanFactor = 0.05 + 0.9*r.Float64()
			p.MediumAboveC = p.AmbientC + 10 + 20*r.Float64()
			p.HighAboveC = p.MediumAboveC + 5 + 20*r.Float64()
		}
		n := NewNode(k, "die", p, p.AmbientC)
		temps := []float64{0, p.AmbientC, p.HighAboveC, p.AmbientC + 100*r.Float64(), -40 + 200*r.Float64()}
		powers := []float64{-1, 0, math.Copysign(0, -1), r.Float64(), 10 * r.Float64()}
		for _, fan := range []bool{false, true} {
			n.SetFan(fan)
			maxStep := n.maxStep
			if fan {
				maxStep = n.maxStepFan
			}
			secs := []float64{0, 1e-15, math.Nextafter(1e-15, 0), math.Nextafter(1e-15, 1),
				maxStep, math.Nextafter(maxStep, 0), math.Nextafter(maxStep, 1), 2 * maxStep,
				n.maxStep, math.Nextafter(n.maxStep, 1), n.maxStepFan, math.Nextafter(n.maxStepFan, 1), 1e-4}
			for i := 0; i < 20; i++ {
				secs = append(secs, r.Float64()*3*maxStep)
			}
			for _, s := range secs {
				one := s > 1e-15 && s <= maxStep
				if n.OneStep(s) != one {
					t.Fatalf("fan %v, maxStep %v: OneStep(%v) = %v, want %v", fan, maxStep, s, !one, one)
				}
				for _, tempC := range temps {
					for _, pw := range powers {
						want := refAdvance(n, tempC, pw, s)
						if got := n.Advance(tempC, pw, s); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("fan %v: Advance(%v, %v, %v) = %v, want %v", fan, tempC, pw, s, got, want)
						}
						if !one {
							continue
						}
						if got := n.Step(tempC, pw, s); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("fan %v: Step(%v, %v, %v) = %v, want %v", fan, tempC, pw, s, got, want)
						}
					}
				}
			}
		}
	}
}
