package task

import (
	"fmt"
	"testing"

	"godpm/internal/power"
)

func TestPriorityStringsAndParse(t *testing.T) {
	want := map[Priority]string{
		Low: "Low", Medium: "Medium", High: "High", VeryHigh: "VeryHigh",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
		got, err := ParsePriority(s)
		if err != nil || got != p {
			t.Errorf("ParsePriority(%q) = %v,%v", s, got, err)
		}
	}
	if _, err := ParsePriority("Urgent"); err == nil {
		t.Error("bogus priority parsed")
	}
	if Priority(9).String() != "Priority(9)" {
		t.Errorf("out-of-range String() = %q", Priority(9).String())
	}
}

func TestPriorityOrdering(t *testing.T) {
	if !(Low < Medium && Medium < High && High < VeryHigh) {
		t.Fatal("priority ordering broken")
	}
	if NumPriorities != 4 {
		t.Fatalf("NumPriorities = %d", NumPriorities)
	}
}

func TestTaskValidate(t *testing.T) {
	good := Task{ID: 1, Instructions: 100, Class: power.InstrALU, Priority: Medium}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Task{
		{ID: 2, Instructions: 0, Class: power.InstrALU, Priority: Low},
		{ID: 3, Instructions: -5, Class: power.InstrALU, Priority: Low},
		{ID: 4, Instructions: 10, Class: power.InstructionClass(99), Priority: Low},
		{ID: 5, Instructions: 10, Class: power.InstrALU, Priority: Priority(-1)},
		{ID: 6, Instructions: 10, Class: power.InstrALU, Priority: Priority(7)},
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("task %d accepted", b.ID)
		}
	}
}

// refPriorityString is String as first written with fmt; the table-driven
// String and its Append must render every value exactly like it.
func refPriorityString(p Priority) string {
	switch p {
	case Low:
		return "Low"
	case Medium:
		return "Medium"
	case High:
		return "High"
	case VeryHigh:
		return "VeryHigh"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

func TestPriorityAppendMatchesString(t *testing.T) {
	for v := Priority(-40); v <= 40; v++ {
		want := refPriorityString(v)
		if got := v.String(); got != want {
			t.Errorf("Priority(%d).String() = %q, want %q", int(v), got, want)
		}
		if got := string(v.Append([]byte("x="))); got != "x="+want {
			t.Errorf("Priority(%d).Append = %q, want %q", int(v), got, "x="+want)
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = Priority(1).Append(buf[:0]); _ = Priority(2).String() }); n != 0 {
		t.Errorf("Append/String of an in-range value allocate %.0f times, want 0", n)
	}
}
