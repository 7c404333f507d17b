package trace

import (
	"strings"
	"testing"

	"godpm/internal/acpi"
	"godpm/internal/battery"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/thermal"
)

func TestIDCodeUniqueAndPrintable(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		id := idCode(i)
		if seen[id] {
			t.Fatalf("duplicate id %q at %d", id, i)
		}
		seen[id] = true
		for _, r := range id {
			if r < 33 || r > 126 {
				t.Fatalf("non-printable rune in id %q", id)
			}
		}
	}
}

// startRun registers one IP's variables on a fresh VCDObserver, as a
// run's RunStart does, and returns it with its output.
func startRun(t *testing.T) (*VCDObserver, *strings.Builder) {
	t.Helper()
	var sb strings.Builder
	o := NewVCDObserver(&sb)
	o.RunStart(&soc.RunInfo{
		IPs:            []string{"cpu"},
		InitialStates:  []acpi.State{acpi.ON1},
		InitialBattery: battery.Full,
		InitialThermal: thermal.LowTemp,
		BatterySignal:  "battery.status",
		ThermalSignal:  "die.class",
	})
	return o, &sb
}

func TestVCDHeaderAndChanges(t *testing.T) {
	o, sb := startRun(t)
	o.PSMTransition(10*sim.Ns, 0, true)
	o.PSMState(10*sim.Ns, 0, acpi.ON4)
	o.PSMTransition(20*sim.Ns, 0, false)
	o.BatteryStatus(20*sim.Ns, battery.High)
	o.ThermalClass(30*sim.Ns, thermal.MediumTemp)
	out := sb.String()
	for _, want := range []string{
		"$timescale 1 ns $end",
		"$scope module soc $end",
		"$var real 128 ! cpu.state $end",
		"$var wire 1 \" cpu.transitioning $end",
		"$var real 128 # battery.status $end",
		"$var real 128 $ die.class $end",
		"$dumpvars\nsON1 !\n0\"\nsFull #\nsLow $\n$end\n",
		"#10\n1\"\nsON4 !\n",
		"#20\n0\"\nsHigh #\n",
		"#30\nsMedium $\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD output missing %q\n---\n%s", want, out)
		}
	}
	if o.Err() != nil {
		t.Fatalf("VCD error: %v", o.Err())
	}
}

func TestVCDStringerAttachment(t *testing.T) {
	var sb strings.Builder
	o := NewVCDObserver(&sb)
	id := o.registerString("state", "idle state")
	if err := o.v.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	o.v.change(0, "s"+vcdString("busy\tnow")+" "+id)
	out := sb.String()
	if !strings.Contains(out, "sidle_state") {
		t.Errorf("initial string value not escaped/dumped:\n%s", out)
	}
	if !strings.Contains(out, "sbusy_now") {
		t.Errorf("string change not escaped/dumped:\n%s", out)
	}
}

func TestVCDRegisterAfterHeaderPanics(t *testing.T) {
	var sb strings.Builder
	v := NewVCD(&sb, "m", sim.Ns)
	if err := v.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.register("late", "wire", 1, "")
}

func TestVCDTimestampMonotonic(t *testing.T) {
	o, sb := startRun(t)
	for i := 1; i <= 5; i++ {
		// Two changes per instant share one timestamp.
		at := sim.Time(3*i) * sim.Ns
		o.PSMTransition(at, 0, i%2 == 1)
		o.ThermalClass(at, thermal.Class(i%thermal.NumClasses))
	}
	last := int64(-1)
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "#") {
			var ts int64
			if _, err := fmtSscanf(line, &ts); err != nil {
				t.Fatalf("bad timestamp line %q", line)
			}
			if ts <= last {
				t.Fatalf("timestamps not strictly increasing: %d after %d", ts, last)
			}
			last = ts
		}
	}
}

func fmtSscanf(line string, ts *int64) (int, error) {
	var n int64
	var count int
	for _, r := range line[1:] {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int64(r-'0')
		count++
	}
	*ts = n
	if count == 0 {
		return 0, errNoDigits
	}
	return 1, nil
}

var errNoDigits = &parseError{}

type parseError struct{}

func (*parseError) Error() string { return "no digits" }
