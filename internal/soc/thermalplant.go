package soc

import (
	"godpm/internal/sim"
	"godpm/internal/thermal"
)

// thermalPlant abstracts over the two thermal configurations: the paper's
// single die node, or a per-IP network on a shared spreader.
type thermalPlant struct {
	single  *thermal.Node
	network *thermal.Network
	sensors []*thermal.NetworkSensor
	hot     *thermal.NetworkHottest
	ambient float64
}

// buildThermalPlant constructs the configured plant.
func buildThermalPlant(k *sim.Kernel, cfg *Config, names []string) *thermalPlant {
	if !cfg.PerIPThermal {
		return &thermalPlant{
			single:  thermal.NewNode(k, "die", cfg.Thermal, cfg.InitialTempC),
			ambient: cfg.Thermal.AmbientC,
		}
	}
	np := cfg.ThermalNetwork
	if np == (thermal.NetworkParams{}) {
		np = thermal.DefaultNetworkParams()
	}
	net := thermal.NewNetwork(k, "die", np, names, cfg.InitialTempC)
	th := thermal.SensorThresholds{
		MediumAboveC: cfg.Thermal.MediumAboveC,
		HighAboveC:   cfg.Thermal.HighAboveC,
		HysteresisC:  cfg.Thermal.HysteresisC,
	}
	hot, sensors := thermal.AttachSensors(k, "die", net, th)
	return &thermalPlant{network: net, sensors: sensors, hot: hot, ambient: np.AmbientC}
}

// gemView returns the SoC-level source the GEM observes (with fan control).
func (tp *thermalPlant) gemView() thermal.FanSource {
	if tp.single != nil {
		return tp.single
	}
	return tp.hot
}

// lemSource returns the per-IP source LEM i observes.
func (tp *thermalPlant) lemSource(i int) thermal.Source {
	if tp.single != nil {
		return tp.single
	}
	return tp.sensors[i]
}

// stepNetwork integrates the per-IP network over one accountant interval
// of secs seconds and returns the hottest node's temperature.
func (tp *thermalPlant) stepNetwork(perIP []float64, secs float64) float64 {
	tp.network.StepSecs(perIP, secs)
	_, hot := tp.network.Hottest()
	return hot
}

// peekTempC returns the temperature the plant would report after one more
// interval of dt, without mutating it — the snapshot path's
// non-perturbing final partial integration.
func (tp *thermalPlant) peekTempC(total float64, perIP []float64, dt sim.Time) float64 {
	if tp.single != nil {
		return tp.single.Advance(tp.single.TempC(), total, dt.Seconds())
	}
	return tp.network.PeekStepHottest(perIP, dt)
}

// tempC returns the reported die temperature (hottest node for networks).
func (tp *thermalPlant) tempC() float64 {
	if tp.single != nil {
		return tp.single.TempC()
	}
	_, hot := tp.network.Hottest()
	return hot
}

// classSignal returns the SoC-level class signal (for tracing).
func (tp *thermalPlant) classSignal() *sim.Signal[thermal.Class] {
	return tp.gemView().ClassSignal()
}
