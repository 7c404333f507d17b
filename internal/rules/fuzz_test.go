package rules

import (
	"fmt"
	"strings"
	"testing"

	"godpm/internal/battery"
	"godpm/internal/task"
	"godpm/internal/thermal"
)

// FuzzParseRules throws arbitrary scripts at the natural-language parser.
// For every script the parser must return without panicking; for every
// script it accepts, the resulting table must (a) survive a full Select /
// Analyze / Format sweep and (b) round-trip: re-parsing the rules'
// recorded Source lines plus the default must reproduce a semantically
// identical table.
func FuzzParseRules(f *testing.F) {
	f.Add(Table1DSL)
	f.Add("if the priority is high and the battery is empty then the power state is ON4")
	f.Add("if the battery is low and the temperature is medium or low then ON4\ndefault ON3")
	f.Add("if the priority is very high and the battery is power supply then soft-off")
	f.Add("default SL2")
	f.Add("the")
	f.Add(", . the the ,")
	f.Add("# just a comment\n\nif temperature is high then SL1")
	f.Add("if the priority is high then")
	f.Add("if battery is nosuch then ON1")
	f.Add("if priority is high and priority is low then ON1")
	f.Add("if priority is high or then ON1")
	f.Add("default ON1\ndefault ON2")

	f.Fuzz(func(t *testing.T, script string) {
		tab, err := Parse(script)
		if err != nil {
			return // rejected input: only panics are failures
		}
		// The accepted table is fully usable over the whole input space.
		for p := task.Priority(0); int(p) < task.NumPriorities; p++ {
			for b := battery.Status(0); int(b) < battery.NumStatuses; b++ {
				for tc := thermal.Class(0); int(tc) < thermal.NumClasses; tc++ {
					tab.Select(p, b, tc)
				}
			}
		}
		tab.Analyze()
		tab.Total()
		_ = tab.Format()

		// Round-trip through the recorded rule sources.
		var sb strings.Builder
		for _, r := range tab.rules {
			sb.WriteString(r.Source)
			sb.WriteByte('\n')
		}
		if def, ok := tab.def, tab.hasDefault; ok {
			fmt.Fprintf(&sb, "default %s\n", def)
		}
		tab2, err := Parse(sb.String())
		if err != nil {
			t.Fatalf("accepted script did not round-trip: %v\nrebuilt:\n%s", err, sb.String())
		}
		r1, r2 := tab.rules, tab2.rules
		if len(r1) != len(r2) {
			t.Fatalf("round trip changed rule count: %d != %d", len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i].Priority != r2[i].Priority || r1[i].Battery != r2[i].Battery ||
				r1[i].Temp != r2[i].Temp || r1[i].Target != r2[i].Target {
				t.Fatalf("round trip changed rule %d: %+v != %+v", i, r1[i], r2[i])
			}
		}
		d1, ok1 := tab.def, tab.hasDefault
		d2, ok2 := tab2.def, tab2.hasDefault
		if ok1 != ok2 || d1 != d2 {
			t.Fatalf("round trip changed default: (%v,%v) != (%v,%v)", d1, ok1, d2, ok2)
		}
	})
}

// TestParseNoiseOnlyLine pins the crasher FuzzParseRules found: a line of
// pure noise words lexes to zero tokens and must be skipped, not indexed.
func TestParseNoiseOnlyLine(t *testing.T) {
	for _, script := range []string{"the", ", . the the ,", "the\nthe the\n"} {
		tab, err := Parse(script)
		if err != nil {
			t.Fatalf("%q: %v", script, err)
		}
		if tab.Len() != 0 {
			t.Fatalf("%q parsed to %d rules", script, tab.Len())
		}
	}
	// A noise-only line between real rules is skipped like a blank one.
	tab, err := Parse("the ,\nif the priority is high then ON1\n. the\ndefault ON3\n")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatalf("got %d rules, want 1", tab.Len())
	}
	if def, ok := tab.def, tab.hasDefault; !ok || def.String() != "ON3" {
		t.Fatalf("default = %v, %v", def, ok)
	}
}
