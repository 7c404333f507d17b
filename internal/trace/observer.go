package trace

import (
	"fmt"
	"io"
	"strings"

	"godpm/internal/acpi"
	"godpm/internal/battery"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/thermal"
)

// VCDObserver is a soc.Observer that streams the run's waveforms — per-IP
// PSM state and transition flag, battery class, temperature class — as an
// IEEE 1364 VCD file viewable in GTKWave. It replaces the former
// soc.Config.TraceVCD writer field with byte-identical output:
//
//	res, err := soc.RunWith(ctx, cfg, soc.RunOptions{
//	    Observers: []soc.Observer{trace.NewVCDObserver(f)},
//	})
type VCDObserver struct {
	soc.NopObserver
	v        *VCD
	stateIDs []string
	transIDs []string
	battID   string
	thermID  string
}

// NewVCDObserver creates a VCD waveform observer writing to w with the
// default soc scope and nanosecond timescale.
func NewVCDObserver(w io.Writer) *VCDObserver {
	return &VCDObserver{v: NewVCD(w, "soc", sim.Ns)}
}

// RunStart registers the variables (per IP: state, transitioning; then
// battery class, then temperature class — the historical declaration
// order) and writes the VCD header with the t=0 values.
func (o *VCDObserver) RunStart(info *soc.RunInfo) {
	o.stateIDs = make([]string, len(info.IPs))
	o.transIDs = make([]string, len(info.IPs))
	for i, name := range info.IPs {
		// The PSM publishes its signals as <name>.state and
		// <name>.transitioning (see acpi.NewPSM).
		o.stateIDs[i] = o.registerString(name+".state", info.InitialStates[i].String())
		o.transIDs[i] = o.registerBool(name+".transitioning", false)
	}
	o.battID = o.registerString(info.BatterySignal, info.InitialBattery.String())
	o.thermID = o.registerString(info.ThermalSignal, info.InitialThermal.String())
	o.v.WriteHeader()
}

// registerString declares a string-valued variable (rendered as a VCD real
// of 16 characters) with its initial value.
func (o *VCDObserver) registerString(name, initial string) string {
	id := o.v.register(sanitize(name), "real", 8*16, "")
	o.v.vars[len(o.v.vars)-1].initial = "s" + vcdString(initial) + " " + id
	return id
}

// registerBool declares a 1-bit wire with its initial value.
func (o *VCDObserver) registerBool(name string, initial bool) string {
	id := o.v.register(sanitize(name), "wire", 1, "")
	o.v.vars[len(o.v.vars)-1].initial = boolBit(initial) + id
	return id
}

// PSMState implements soc.Observer.
func (o *VCDObserver) PSMState(t sim.Time, ip int, s acpi.State) {
	o.v.change(t, "s"+vcdString(s.String())+" "+o.stateIDs[ip])
}

// PSMTransition implements soc.Observer.
func (o *VCDObserver) PSMTransition(t sim.Time, ip int, active bool) {
	o.v.change(t, boolBit(active)+o.transIDs[ip])
}

// BatteryStatus implements soc.Observer.
func (o *VCDObserver) BatteryStatus(t sim.Time, st battery.Status) {
	o.v.change(t, "s"+vcdString(st.String())+" "+o.battID)
}

// ThermalClass implements soc.Observer.
func (o *VCDObserver) ThermalClass(t sim.Time, c thermal.Class) {
	o.v.change(t, "s"+vcdString(c.String())+" "+o.thermID)
}

// Err implements soc.Observer: the first write error, if any.
func (o *VCDObserver) Err() error { return o.v.Err() }

// CSVObserver is a soc.Observer that writes one CSV row per periodic
// sample: time_s,temp_c,soc,<ip>_w,... It replaces the former
// soc.Config.TraceCSV writer field with byte-identical output.
type CSVObserver struct {
	soc.NopObserver
	w   io.Writer
	err error
}

// NewCSVObserver creates a sampled-scalar CSV observer writing to w.
func NewCSVObserver(w io.Writer) *CSVObserver {
	return &CSVObserver{w: w}
}

// RunStart writes the header row.
func (o *CSVObserver) RunStart(info *soc.RunInfo) {
	var b strings.Builder
	b.WriteString("time_s,temp_c,soc")
	for _, name := range info.IPs {
		b.WriteString("," + name + "_w")
	}
	if _, err := fmt.Fprintln(o.w, b.String()); err != nil {
		o.err = err
	}
}

// Sample writes one data row.
func (o *CSVObserver) Sample(t sim.Time, s *soc.Sample) {
	if o.err != nil {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%.9f", t.Seconds())
	fmt.Fprintf(&b, ",%.6g", s.TempC)
	fmt.Fprintf(&b, ",%.6g", s.SoC)
	for _, p := range s.PowerW {
		fmt.Fprintf(&b, ",%.6g", p)
	}
	if _, err := fmt.Fprintln(o.w, b.String()); err != nil {
		o.err = err
	}
}

// Err implements soc.Observer: the first write error, if any.
func (o *CSVObserver) Err() error { return o.err }
