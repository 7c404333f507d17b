package rules

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"godpm/internal/acpi"
	"godpm/internal/battery"
	"godpm/internal/task"
	"godpm/internal/thermal"
)

func TestSetsAndWildcards(t *testing.T) {
	s := P(task.High, task.Low)
	if !s.Has(task.High) || !s.Has(task.Low) || s.Has(task.Medium) {
		t.Fatal("priority set membership wrong")
	}
	for p := task.Priority(0); int(p) < task.NumPriorities; p++ {
		if !AnyPriority.Has(p) {
			t.Fatalf("AnyPriority misses %v", p)
		}
	}
	for b := battery.Status(0); int(b) < battery.NumStatuses; b++ {
		if !AnyBattery.Has(b) {
			t.Fatalf("AnyBattery misses %v", b)
		}
	}
	for c := thermal.Class(0); int(c) < thermal.NumClasses; c++ {
		if !AnyTemp.Has(c) {
			t.Fatalf("AnyTemp misses %v", c)
		}
	}
}

func TestTable1SpotChecks(t *testing.T) {
	tbl := Table1()
	cases := []struct {
		p    task.Priority
		b    battery.Status
		tc   thermal.Class
		want acpi.State
	}{
		// Row 1: very-high priority with empty battery still runs, slowly.
		{task.VeryHigh, battery.Empty, thermal.LowTemp, acpi.ON4},
		// Row 2: very-high priority at high temperature runs at ON4.
		{task.VeryHigh, battery.Full, thermal.HighTemp, acpi.ON4},
		// Row 3: anyone else with empty battery is parked in SL1.
		{task.High, battery.Empty, thermal.LowTemp, acpi.SL1},
		{task.Low, battery.Empty, thermal.HighTemp, acpi.SL1},
		// Row 4: anyone else at high temperature is parked in SL1.
		{task.Medium, battery.Full, thermal.HighTemp, acpi.SL1},
		// Row 5: low battery, mild temperature → ON4 regardless of priority.
		{task.VeryHigh, battery.Low, thermal.LowTemp, acpi.ON4},
		{task.Low, battery.Low, thermal.MediumTemp, acpi.ON4},
		// Rows 7..10: battery M/H, temp low → ON state tracks priority.
		{task.VeryHigh, battery.Medium, thermal.LowTemp, acpi.ON1},
		{task.High, battery.High, thermal.LowTemp, acpi.ON2},
		{task.Medium, battery.Medium, thermal.LowTemp, acpi.ON3},
		{task.Low, battery.High, thermal.LowTemp, acpi.ON4},
		// Rows 11/12: full battery is generous.
		{task.Medium, battery.Full, thermal.LowTemp, acpi.ON1},
		{task.Low, battery.Full, thermal.LowTemp, acpi.ON2},
		// Row 13: mains power → ON1 except at high temperature.
		{task.Low, battery.Mains, thermal.LowTemp, acpi.ON1},
		{task.Low, battery.Mains, thermal.MediumTemp, acpi.ON1},
		// Completion default: battery M/H/F with temp Medium → ON3.
		{task.VeryHigh, battery.Medium, thermal.MediumTemp, acpi.ON3},
		{task.Low, battery.Full, thermal.MediumTemp, acpi.ON3},
	}
	for _, c := range cases {
		got, _, ok := tbl.Select(c.p, c.b, c.tc)
		if !ok {
			t.Errorf("Select(%v,%v,%v): no decision", c.p, c.b, c.tc)
			continue
		}
		if got != c.want {
			t.Errorf("Select(%v,%v,%v) = %v, want %v", c.p, c.b, c.tc, got, c.want)
		}
	}
}

func TestTable1IsTotal(t *testing.T) {
	if !Table1().Total() {
		t.Fatal("completed Table 1 must decide every input")
	}
}

func TestTable1CoverageFindings(t *testing.T) {
	// The literal paper table has exactly one dead row (row 6, index 5) and
	// leaves the battery∈{M,H,F} ∧ temp=Medium region unmatched.
	tbl := NewTable(Table1Rules())
	cov := tbl.Analyze()
	if len(cov.DeadRules) != 1 || cov.DeadRules[0] != 5 {
		t.Errorf("DeadRules = %v, want [5] (paper row 6)", cov.DeadRules)
	}
	for _, c := range cov.Unmatched {
		if c.Temp != thermal.MediumTemp {
			t.Errorf("unexpected unmatched combo %v", c)
		}
		if c.Battery != battery.Medium && c.Battery != battery.High && c.Battery != battery.Full {
			t.Errorf("unexpected unmatched combo %v", c)
		}
	}
	// 3 battery classes × 4 priorities at temp Medium.
	if len(cov.Unmatched) != 12 {
		t.Errorf("unmatched count = %d, want 12", len(cov.Unmatched))
	}
}

func TestFirstMatchOrder(t *testing.T) {
	// A specific rule placed after a wildcard rule must never fire.
	tbl := NewTable([]Rule{
		{AnyPriority, AnyBattery, AnyTemp, acpi.ON1, "catch-all"},
		{P(task.Low), AnyBattery, AnyTemp, acpi.ON4, "specific"},
	})
	got, idx, ok := tbl.Select(task.Low, battery.Full, thermal.LowTemp)
	if !ok || got != acpi.ON1 || idx != 0 {
		t.Fatalf("Select = %v idx=%d, want catch-all ON1", got, idx)
	}
	cov := tbl.Analyze()
	if len(cov.DeadRules) != 1 || cov.DeadRules[0] != 1 {
		t.Fatalf("DeadRules = %v, want [1]", cov.DeadRules)
	}
}

func TestNoMatchWithoutDefault(t *testing.T) {
	tbl := NewTable([]Rule{{P(task.Low), B(battery.Empty), T(thermal.LowTemp), acpi.SL1, ""}})
	if _, _, ok := tbl.Select(task.High, battery.Full, thermal.HighTemp); ok {
		t.Fatal("unmatched input decided without default")
	}
	if tbl.Total() {
		t.Fatal("partial table reported total")
	}
}

func TestDSLParsesAndAgreesWithData(t *testing.T) {
	parsed, err := Parse(Table1DSL)
	if err != nil {
		t.Fatal(err)
	}
	data := Table1()
	if parsed.Len() != data.Len() {
		t.Fatalf("parsed %d rules, data has %d", parsed.Len(), data.Len())
	}
	for p := task.Priority(0); int(p) < task.NumPriorities; p++ {
		for b := battery.Status(0); int(b) < battery.NumStatuses; b++ {
			for tc := thermal.Class(0); int(tc) < thermal.NumClasses; tc++ {
				s1, i1, ok1 := parsed.Select(p, b, tc)
				s2, i2, ok2 := data.Select(p, b, tc)
				if ok1 != ok2 || s1 != s2 || i1 != i2 {
					t.Fatalf("DSL vs data disagree at (%v,%v,%v): %v/%d vs %v/%d",
						p, b, tc, s1, i1, s2, i2)
				}
			}
		}
	}
}

func TestParseSingleRuleForms(t *testing.T) {
	cases := []struct {
		src  string
		p    task.Priority
		b    battery.Status
		tc   thermal.Class
		want acpi.State
	}{
		{"if the priority is very high and the battery is empty then the power state is ON4",
			task.VeryHigh, battery.Empty, thermal.LowTemp, acpi.ON4},
		{"if battery is power supply then ON1",
			task.Low, battery.Mains, thermal.HighTemp, acpi.ON1},
		{"if temperature is high then sl1",
			task.Medium, battery.Full, thermal.HighTemp, acpi.SL1},
		{"if priority is low or medium and temperature is low then soft-off",
			task.Low, battery.Full, thermal.LowTemp, acpi.SoftOff},
	}
	for _, c := range cases {
		tbl, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		got, _, ok := tbl.Select(c.p, c.b, c.tc)
		if !ok || got != c.want {
			t.Errorf("Parse(%q).Select = %v,%v, want %v", c.src, got, ok, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"if priority is low ON4",                             // missing then
		"if priority low then ON4",                           // missing is
		"if turbo is low then ON4",                           // unknown field
		"if priority is turbo then ON4",                      // unknown value
		"if battery is high then ON9",                        // unknown state
		"if priority is low and then ON4",                    // dangling and
		"if then ON4",                                        // empty condition
		"default",                                            // default without state
		"default ON1\ndefault ON2",                           // duplicate default
		"banana",                                             // junk line
		"if priority is low then ON1 ON2",                    // two states
		"if priority is low and priority is high then X",     // duplicate field
		"if battery is empty and temperature is medium then", // missing state
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseErrorMentionsLine(t *testing.T) {
	_, err := Parse("if priority is low then ON1\nif priority is bogus then ON2")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %v should mention line 2", err)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	tbl, err := Parse("# header\n\n  if priority is low then ON4 # trailing\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tbl.Len())
	}
}

func TestFormatContainsRows(t *testing.T) {
	out := Table1().Format()
	for _, want := range []string{"ON4", "SL1", "ON1", "Power supply", "Selected State", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != 15 { // header + 13 rules + default
		t.Errorf("Format() has %d lines, want 15", lines)
	}
}

// refFormat is Format as first written with fmt and strings.Join. The
// engine folds Format's bytes into every DPM cache key, so AppendFormat
// must reproduce it exactly.
func refFormat(t *Table) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %-22s %-14s %s\n", "Task priority", "Battery", "Temperature", "Selected State")
	for _, r := range t.rules {
		fmt.Fprintf(&sb, "%-22s %-22s %-14s %s\n",
			refSet(uint8(r.Priority), uint8(AnyPriority), []uint{3, 2, 1, 0}, []string{"V", "H", "M", "L"}),
			refSet(uint8(r.Battery), uint8(AnyBattery), []uint{5, 4, 3, 2, 1, 0}, []string{"Power supply", "F", "H", "M", "L", "E"}),
			refSet(uint8(r.Temp), uint8(AnyTemp), []uint{2, 1, 0}, []string{"H", "M", "L"}),
			r.Target)
	}
	if t.hasDefault {
		fmt.Fprintf(&sb, "%-22s %-22s %-14s %s\n", "-", "-", "-", t.def)
	}
	return sb.String()
}

func refSet(s, wildcard uint8, bits []uint, abbrev []string) string {
	if s == wildcard {
		return "-"
	}
	var parts []string
	for i, b := range bits {
		if s&(1<<b) != 0 {
			parts = append(parts, abbrev[i])
		}
	}
	return strings.Join(parts, ", ")
}

func TestFormatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tables := []*Table{Table1(), NewTable(nil), NewTable(nil).WithDefault(acpi.SoftOff)}
	for i := 0; i < 500; i++ {
		rs := make([]Rule, rng.Intn(8))
		for j := range rs {
			rs[j] = Rule{
				Priority: PrioritySet(rng.Intn(256)),
				Battery:  BatterySet(rng.Intn(256)),
				Temp:     TempSet(rng.Intn(256)),
				Target:   acpi.State(rng.Intn(14) - 2),
			}
		}
		tbl := NewTable(rs)
		if rng.Intn(2) == 0 {
			tbl.WithDefault(acpi.State(rng.Intn(14) - 2))
		}
		tables = append(tables, tbl)
	}
	for i, tbl := range tables {
		if got, want := tbl.Format(), refFormat(tbl); got != want {
			t.Fatalf("table %d:\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}
	buf := make([]byte, 0, 4096)
	tbl := Table1()
	if n := testing.AllocsPerRun(100, func() { buf = tbl.AppendFormat(buf[:0]) }); n != 0 {
		t.Errorf("AppendFormat allocates %.0f times, want 0", n)
	}
}

// Property: Select is deterministic and the returned rule index, when >= 0,
// actually matches the inputs.
func TestSelectConsistencyProperty(t *testing.T) {
	tbl := Table1()
	f := func(p, b, tc uint8) bool {
		pr := task.Priority(p % 4)
		ba := battery.Status(b % 6)
		te := thermal.Class(tc % 3)
		s1, i1, ok1 := tbl.Select(pr, ba, te)
		s2, i2, ok2 := tbl.Select(pr, ba, te)
		if s1 != s2 || i1 != i2 || ok1 != ok2 || !ok1 {
			return false
		}
		if i1 >= 0 {
			return tbl.rules[i1].Matches(pr, ba, te)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: for every input the selected rule is the first matching rule.
func TestFirstMatchProperty(t *testing.T) {
	tbl := Table1()
	rs := tbl.rules
	f := func(p, b, tc uint8) bool {
		pr := task.Priority(p % 4)
		ba := battery.Status(b % 6)
		te := thermal.Class(tc % 3)
		_, idx, ok := tbl.Select(pr, ba, te)
		if !ok {
			return false
		}
		for i := 0; i < len(rs); i++ {
			if rs[i].Matches(pr, ba, te) {
				return idx == i
			}
		}
		return idx == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
