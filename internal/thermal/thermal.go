// Package thermal models the chip's temperature and the quantised thermal
// sensor the energy managers observe. The paper codes temperature in three
// classes (Low, Medium, High) and lets the GEM "switch on a supplementary
// fan" when resources run out; we model the die as a first-order RC thermal
// network whose resistance to ambient drops when the fan runs, and a sensor
// with hysteresis so the class signal does not chatter at a threshold.
package thermal

import (
	"fmt"
	"math"
	"strconv"

	"godpm/internal/sim"
)

// Class is the quantised temperature level.
type Class int

// Temperature classes.
const (
	LowTemp Class = iota
	MediumTemp
	HighTemp
	NumClasses = int(HighTemp) + 1
)

// classNames name the classes, indexed by Class.
var classNames = [NumClasses]string{"Low", "Medium", "High"}

// String returns the class name.
func (c Class) String() string {
	if c >= 0 && int(c) < NumClasses {
		return classNames[c]
	}
	var buf [32]byte
	return string(c.Append(buf[:0]))
}

// Append appends String's rendering of c to b; out-of-range values render
// as "Class(n)".
func (c Class) Append(b []byte) []byte {
	if c >= 0 && int(c) < NumClasses {
		return append(b, classNames[c]...)
	}
	b = strconv.AppendInt(append(b, "Class("...), int64(c), 10)
	return append(b, ')')
}

// Params describes the RC thermal network and the sensor.
type Params struct {
	AmbientC float64 // ambient temperature, °C
	RthKperW float64 // junction-to-ambient thermal resistance, K/W
	CthJperK float64 // thermal capacitance, J/K
	// FanFactor multiplies Rth while the fan runs (0 < FanFactor < 1).
	FanFactor float64
	// MediumAboveC / HighAboveC are the rising class thresholds in °C.
	MediumAboveC float64
	HighAboveC   float64
	// HysteresisC is subtracted from a threshold when falling back.
	HysteresisC float64
}

// DefaultParams returns the characterisation used in the experiments: a die
// that settles ≈0.65 W of sustained load around 61 °C over a 45 °C ambient
// (comfortably "Low"), crosses into "Medium" under the hottest
// single-IP instruction mixes, and reaches "High" only under multi-IP
// load or an externally heated start. The time constant of a few
// milliseconds lets the temperature track the workload at the simulated
// time scales.
func DefaultParams() Params {
	return Params{
		AmbientC:     45,
		RthKperW:     25,
		CthJperK:     1e-4, // tau = Rth·Cth = 2.5 ms
		FanFactor:    0.4,
		MediumAboveC: 68,
		HighAboveC:   80,
		HysteresisC:  2,
	}
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	if p.RthKperW <= 0 || p.CthJperK <= 0 {
		return fmt.Errorf("thermal: non-positive Rth or Cth")
	}
	if p.FanFactor <= 0 || p.FanFactor >= 1 {
		return fmt.Errorf("thermal: FanFactor %v outside (0,1)", p.FanFactor)
	}
	if p.MediumAboveC <= p.AmbientC || p.HighAboveC <= p.MediumAboveC {
		return fmt.Errorf("thermal: thresholds must satisfy ambient < medium < high")
	}
	if p.HysteresisC < 0 || p.HysteresisC >= p.HighAboveC-p.MediumAboveC {
		return fmt.Errorf("thermal: hysteresis %v out of range", p.HysteresisC)
	}
	return nil
}

// Node is the simulation component: die temperature plus the quantised
// sensor class exposed as a signal.
type Node struct {
	p     Params
	th    SensorThresholds
	tempC float64
	fanOn bool
	class *sim.Signal[Class]

	// Per-fan-state integration constants, precomputed so the accountant's
	// per-sample Advance costs no divisions for them. The values are the
	// exact same expressions Advance historically evaluated per call, so
	// results are bit-identical.
	tau, tauFan         float64 // Rth·Cth and Rth·FanFactor·Cth
	maxStep, maxStepFan float64 // tau/10 Euler stability bounds
}

// NewNode creates a thermal node at the given initial temperature.
func NewNode(k *sim.Kernel, name string, p Params, initialC float64) *Node {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	th := SensorThresholds{MediumAboveC: p.MediumAboveC, HighAboveC: p.HighAboveC, HysteresisC: p.HysteresisC}
	n := &Node{p: p, th: th, tempC: initialC}
	n.tau = p.RthKperW * p.CthJperK
	n.tauFan = p.RthKperW * p.FanFactor * p.CthJperK
	n.maxStep = n.tau / 10
	n.maxStepFan = n.tauFan / 10
	n.class = sim.NewSignal(k, name+".class", th.classify(initialC, LowTemp))
	return n
}

// Advance returns the temperature the node reaches from tempC after
// dissipating power for secs seconds under the current fan setting: the
// explicit-Euler sub-stepped solution of dT/dt = P/Cth − (T − Tamb)/tau;
// a step within the stability bound is one sub-step. It does not touch
// the node, so run snapshots can close a final partial interval with it
// and the power accountant can carry the temperature in a local across
// samples, storing it back with Set; every path shares this arithmetic.
func (n *Node) Advance(tempC, power, secs float64) float64 {
	if power < 0 {
		power = 0
	}
	tau, maxStep := n.tau, n.maxStep
	if n.fanOn {
		tau, maxStep = n.tauFan, n.maxStepFan
	}
	if secs > 1e-15 && secs <= maxStep {
		return tempC + (power/n.p.CthJperK-(tempC-n.p.AmbientC)/tau)*secs
	}
	remaining := secs
	for remaining > 1e-15 {
		h := remaining
		if h > maxStep {
			h = maxStep
		}
		tempC += (power/n.p.CthJperK - (tempC-n.p.AmbientC)/tau) * h
		remaining -= h
	}
	return tempC
}

// Set stores a die temperature reached through Advance and refreshes the
// sensor class. It must be called from a kernel process.
func (n *Node) Set(tempC float64) {
	n.tempC = tempC
	n.class.Write(n.th.classify(tempC, n.class.Read()))
}

// ClassRange returns the temperatures [lo, hi) at which the sensor keeps
// its current class: Set(t) keeps the class whenever lo <= t < hi, and for
// no other finite t.
func (n *Node) ClassRange() (lo, hi float64) { return n.th.keeps(n.class.Read()) }

// TempC returns the current die temperature.
func (n *Node) TempC() float64 { return n.tempC }

// Class returns the current sensor class.
func (n *Node) Class() Class { return n.class.Read() }

// ClassSignal exposes the sensor class for sensitivity and tracing.
func (n *Node) ClassSignal() *sim.Signal[Class] { return n.class }

// SetFan switches the supplementary fan (GEM control).
func (n *Node) SetFan(on bool) { n.fanOn = on }

// FanOn reports the fan state.
func (n *Node) FanOn() bool { return n.fanOn }

// PredictClass estimates the sensor class after running at `power` for dt,
// without mutating the node — the LEM's end-of-task temperature estimate.
// It uses the exact exponential solution of the RC ODE.
func (n *Node) PredictClass(power float64, dt sim.Time) Class {
	rth := n.p.RthKperW
	if n.fanOn {
		rth *= n.p.FanFactor
	}
	tau := rth * n.p.CthJperK
	tInf := n.p.AmbientC + power*rth
	x := dt.Seconds() / tau
	t := tInf + (n.tempC-tInf)*math.Exp(-x)
	return n.th.classify(t, n.class.Read())
}
