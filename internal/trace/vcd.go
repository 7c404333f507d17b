// Package trace records simulation waveforms: a VCD (value change dump)
// writer compatible with GTKWave and similar EDA viewers, and a CSV sampler
// for scalar quantities such as power, temperature and battery charge. The
// paper's SystemC study inspected exactly these waveforms (power state,
// supply voltage, temperature) to validate the DPM architecture.
package trace

import (
	"fmt"
	"io"
	"strings"

	"godpm/internal/sim"
)

// VCD streams value changes in IEEE 1364 VCD format. Register every
// variable before WriteHeader, then record value changes in time order;
// Err reports the first write error.
type VCD struct {
	w         io.Writer
	timescale sim.Time
	module    string
	vars      []*vcdVar
	headerOut bool
	lastStamp sim.Time
	stamped   bool
	err       error
}

type vcdVar struct {
	id      string
	name    string
	width   int
	kind    string // "wire" or "real"
	initial string
}

// NewVCD creates a VCD writer. timescale is the unit one VCD tick
// represents (typically sim.Ns); module names the enclosing scope.
func NewVCD(w io.Writer, module string, timescale sim.Time) *VCD {
	if timescale <= 0 {
		timescale = sim.Ns
	}
	return &VCD{w: w, timescale: timescale, module: module}
}

// idCode generates the printable-ASCII short identifier for variable n.
func idCode(n int) string {
	const lo, hi = 33, 126
	base := hi - lo + 1
	var b []byte
	for {
		b = append(b, byte(lo+n%base))
		n = n/base - 1
		if n < 0 {
			break
		}
	}
	// reverse
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

// register allocates a VCD variable and returns its id code.
func (v *VCD) register(name, kind string, width int, initial string) string {
	if v.headerOut {
		panic("trace: cannot register VCD variables after the header was written")
	}
	id := idCode(len(v.vars))
	v.vars = append(v.vars, &vcdVar{id: id, name: name, width: width, kind: kind, initial: initial})
	return id
}

// WriteHeader emits the declaration section and initial values. It must be
// called after all variables are registered and before the simulation runs.
func (v *VCD) WriteHeader() error {
	if v.headerOut {
		return nil
	}
	v.headerOut = true
	var b strings.Builder
	fmt.Fprintf(&b, "$date\n  godpm simulation\n$end\n")
	fmt.Fprintf(&b, "$version\n  godpm VCD writer\n$end\n")
	fmt.Fprintf(&b, "$timescale %s $end\n", timescaleString(v.timescale))
	fmt.Fprintf(&b, "$scope module %s $end\n", v.module)
	for _, x := range v.vars {
		fmt.Fprintf(&b, "$var %s %d %s %s $end\n", x.kind, x.width, x.id, x.name)
	}
	fmt.Fprintf(&b, "$upscope $end\n$enddefinitions $end\n")
	fmt.Fprintf(&b, "$dumpvars\n")
	for _, x := range v.vars {
		if x.initial != "" {
			fmt.Fprintf(&b, "%s\n", x.initial)
		}
	}
	fmt.Fprintf(&b, "$end\n")
	_, err := io.WriteString(v.w, b.String())
	v.err = err
	return err
}

// change emits a timestamp (if time moved) and one value-change record.
func (v *VCD) change(t sim.Time, record string) {
	if v.err != nil {
		return
	}
	if !v.headerOut {
		if err := v.WriteHeader(); err != nil {
			return
		}
	}
	if !v.stamped || t != v.lastStamp {
		v.stamped = true
		v.lastStamp = t
		if _, err := fmt.Fprintf(v.w, "#%d\n", int64(t/v.timescale)); err != nil {
			v.err = err
			return
		}
	}
	if _, err := fmt.Fprintln(v.w, record); err != nil {
		v.err = err
	}
}

// Err returns the first write error encountered, if any.
func (v *VCD) Err() error { return v.err }

func boolBit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func vcdString(s string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\n' || r == '\t' {
			return '_'
		}
		return r
	}, s)
}

func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}

func timescaleString(t sim.Time) string {
	switch {
	case t >= sim.Ms:
		return fmt.Sprintf("%d ms", t/sim.Ms)
	case t >= sim.Us:
		return fmt.Sprintf("%d us", t/sim.Us)
	case t >= sim.Ns:
		return fmt.Sprintf("%d ns", t/sim.Ns)
	default:
		return fmt.Sprintf("%d ps", t)
	}
}
