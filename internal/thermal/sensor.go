package thermal

import (
	"fmt"
	"math"

	"godpm/internal/sim"
)

// Source is what the energy managers observe: a quantised temperature
// class, its change signal, and an end-of-task prediction. The single-die
// Node implements it directly; NetworkSensor adapts one node of a thermal
// Network.
type Source interface {
	// Class returns the current sensor class.
	Class() Class
	// ClassSignal exposes the class for sensitivity and tracing.
	ClassSignal() *sim.Signal[Class]
	// PredictClass estimates the class after running at power for dt,
	// without mutating the model.
	PredictClass(power float64, dt sim.Time) Class
}

// FanSource is a Source with a controllable fan (what the GEM needs).
type FanSource interface {
	Source
	SetFan(on bool)
	FanOn() bool
}

// Compile-time checks.
var (
	_ FanSource = (*Node)(nil)
	_ Source    = (*NetworkSensor)(nil)
	_ FanSource = (*NetworkHottest)(nil)
)

// SensorThresholds quantise a temperature for the network sensors, reusing
// the Node parameterisation's threshold fields.
type SensorThresholds struct {
	MediumAboveC float64
	HighAboveC   float64
	HysteresisC  float64
}

// classify applies thresholds with hysteresis relative to the current
// class (shared by all sensors).
func (th SensorThresholds) classify(t float64, cur Class) Class {
	med, high := th.MediumAboveC, th.HighAboveC
	switch cur {
	case HighTemp:
		if t >= high-th.HysteresisC {
			return HighTemp
		}
		if t >= med {
			return MediumTemp
		}
		return LowTemp
	case MediumTemp:
		if t >= high {
			return HighTemp
		}
		if t >= med-th.HysteresisC {
			return MediumTemp
		}
		return LowTemp
	default:
		if t >= high {
			return HighTemp
		}
		if t >= med {
			return MediumTemp
		}
		return LowTemp
	}
}

// keeps returns the temperatures [lo, hi) at which classify keeps class
// cur: classify(t, cur) == cur whenever lo <= t < hi, and for no other
// finite t. A class classify never keeps gets an empty range.
func (th SensorThresholds) keeps(cur Class) (lo, hi float64) {
	med, high := th.MediumAboveC, th.HighAboveC
	switch cur {
	case HighTemp:
		return high - th.HysteresisC, math.Inf(1)
	case MediumTemp:
		return med - th.HysteresisC, high
	case LowTemp:
		return math.Inf(-1), math.Min(med, high)
	default:
		return 0, 0
	}
}

// NetworkSensor is the per-IP view of one node of a thermal Network.
type NetworkSensor struct {
	net   *Network
	index int
	th    SensorThresholds
	class *sim.Signal[Class]
}

// NewNetworkSensor attaches a quantising sensor to node `index` of net.
// refresh() must be called after each network StepSecs (the Network does this
// for sensors created via AttachSensors).
func NewNetworkSensor(k *sim.Kernel, name string, net *Network, index int, th SensorThresholds) *NetworkSensor {
	if index < 0 || index >= net.NumNodes() {
		panic(fmt.Sprintf("thermal: sensor index %d out of range", index))
	}
	s := &NetworkSensor{net: net, index: index, th: th}
	s.class = sim.NewSignal(k, name+".class", th.classify(net.NodeTempC(index), LowTemp))
	return s
}

// refresh reclassifies after a network step.
func (s *NetworkSensor) refresh() {
	s.class.Write(s.th.classify(s.net.NodeTempC(s.index), s.class.Read()))
}

// Class implements Source.
func (s *NetworkSensor) Class() Class { return s.class.Read() }

// ClassSignal implements Source.
func (s *NetworkSensor) ClassSignal() *sim.Signal[Class] { return s.class }

// TempC implements Source.
func (s *NetworkSensor) TempC() float64 { return s.net.NodeTempC(s.index) }

// PredictClass implements Source. The prediction treats the spreader
// temperature as frozen over the horizon — a first-order local view: the
// node relaxes towards spreader + Rnode·P with time constant Rnode·Cnode.
func (s *NetworkSensor) PredictClass(power float64, dt sim.Time) Class {
	if power < 0 {
		power = 0
	}
	p := s.net.p
	tau := p.NodeRthKperW * p.NodeCthJperK
	tInf := s.net.SpreaderTempC() + p.NodeRthKperW*power
	x := dt.Seconds() / tau
	t := tInf + (s.TempC()-tInf)*expNeg(x)
	return s.th.classify(t, s.class.Read())
}

// NetworkHottest is the SoC-level view a GEM observes when per-IP sensors
// are in use: the class of the hottest node, with fan control forwarded to
// the network.
type NetworkHottest struct {
	net     *Network
	sensors []*NetworkSensor
	th      SensorThresholds
	class   *sim.Signal[Class]
}

// AttachSensors builds one sensor per network node plus the hottest-node
// aggregate, and hooks them so every Network.StepSecs refreshes all classes.
func AttachSensors(k *sim.Kernel, name string, net *Network, th SensorThresholds) (*NetworkHottest, []*NetworkSensor) {
	sensors := make([]*NetworkSensor, net.NumNodes())
	for i := range sensors {
		sensors[i] = NewNetworkSensor(k, fmt.Sprintf("%s.node%d", name, i), net, i, th)
	}
	_, hot := net.Hottest()
	h := &NetworkHottest{
		net: net, sensors: sensors, th: th,
		class: sim.NewSignal(k, name+".hottest_class", th.classify(hot, LowTemp)),
	}
	net.onStep = func() {
		for _, s := range sensors {
			s.refresh()
		}
		_, hotNow := net.Hottest()
		h.class.Write(h.th.classify(hotNow, h.class.Read()))
	}
	return h, sensors
}

// Class implements Source.
func (h *NetworkHottest) Class() Class { return h.class.Read() }

// ClassSignal implements Source.
func (h *NetworkHottest) ClassSignal() *sim.Signal[Class] { return h.class }

// PredictClass implements Source: the aggregate prediction applies the
// power to the currently hottest node's sensor.
func (h *NetworkHottest) PredictClass(power float64, dt sim.Time) Class {
	idx, _ := h.net.Hottest()
	return h.sensors[idx].PredictClass(power, dt)
}

// SetFan implements FanSource.
func (h *NetworkHottest) SetFan(on bool) { h.net.SetFan(on) }

// FanOn implements FanSource.
func (h *NetworkHottest) FanOn() bool { return h.net.FanOn() }

// expNeg is a clamped e^(-x) for x >= 0.
func expNeg(x float64) float64 {
	if x > 700 {
		return 0
	}
	return math.Exp(-x)
}
