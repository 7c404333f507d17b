// Package rules implements the LEM's power-state selection policy — the
// paper's Table 1 — as an ordered, first-match rule table over the three
// quantised inputs (task priority, battery status, temperature class).
//
// The paper presents the rules as "expressions of the natural language, as
// in the fuzzy rules": this package therefore ships both a data encoding of
// Table 1 and a small DSL that parses exactly that natural-language form
// ("if the priority is high and the battery is empty then the power state
// is ON4"); a test proves the two encodings agree on the entire input
// space. A coverage analyser reports unmatched input combinations and
// shadowed (dead) rules, which Table 1 taken literally has.
package rules

import (
	"fmt"

	"godpm/internal/acpi"
	"godpm/internal/battery"
	"godpm/internal/task"
	"godpm/internal/thermal"
)

// PrioritySet, BatterySet and TempSet are wildcard-capable condition sets,
// one bit per class. The zero value matches nothing; use the Any* constants
// for the paper's "-" wildcard.
type (
	PrioritySet uint8
	BatterySet  uint8
	TempSet     uint8
)

// Set constructors.
func P(ps ...task.Priority) PrioritySet {
	var s PrioritySet
	for _, p := range ps {
		s |= 1 << uint(p)
	}
	return s
}

// B builds a battery condition set.
func B(bs ...battery.Status) BatterySet {
	var s BatterySet
	for _, b := range bs {
		s |= 1 << uint(b)
	}
	return s
}

// T builds a temperature condition set.
func T(ts ...thermal.Class) TempSet {
	var s TempSet
	for _, t := range ts {
		s |= 1 << uint(t)
	}
	return s
}

// Wildcards matching every class ("-" in Table 1).
var (
	AnyPriority = P(task.Low, task.Medium, task.High, task.VeryHigh)
	AnyBattery  = B(battery.Empty, battery.Low, battery.Medium, battery.High, battery.Full, battery.Mains)
	AnyTemp     = T(thermal.LowTemp, thermal.MediumTemp, thermal.HighTemp)
)

// Has reports set membership.
func (s PrioritySet) Has(p task.Priority) bool { return s&(1<<uint(p)) != 0 }

// Has reports set membership.
func (s BatterySet) Has(b battery.Status) bool { return s&(1<<uint(b)) != 0 }

// Has reports set membership.
func (s TempSet) Has(t thermal.Class) bool { return s&(1<<uint(t)) != 0 }

// Rule is one row of the policy: a conjunctive condition over the three
// inputs and the power state selected when it matches.
type Rule struct {
	Priority PrioritySet
	Battery  BatterySet
	Temp     TempSet
	Target   acpi.State
	// Source preserves the rule's original text (DSL) or a synthesised
	// description (data encoding), for diagnostics.
	Source string
}

// Matches reports whether the rule's condition holds for the given inputs.
func (r Rule) Matches(p task.Priority, b battery.Status, t thermal.Class) bool {
	return r.Priority.Has(p) && r.Battery.Has(b) && r.Temp.Has(t)
}

// Table is an ordered first-match rule list with an optional default state
// used when no rule matches.
type Table struct {
	rules      []Rule
	def        acpi.State
	hasDefault bool
}

// NewTable builds a table from rules in priority order (first match wins).
func NewTable(rules []Rule) *Table {
	cp := make([]Rule, len(rules))
	copy(cp, rules)
	return &Table{rules: cp}
}

// WithDefault sets the state returned when no rule matches.
func (t *Table) WithDefault(s acpi.State) *Table {
	t.def = s
	t.hasDefault = true
	return t
}

// Len returns the number of rules (excluding the default).
func (t *Table) Len() int { return len(t.rules) }

// Select returns the state chosen for the inputs and the index of the
// matching rule (-1 when the default applied). ok is false when nothing
// matched and no default is configured.
func (t *Table) Select(p task.Priority, b battery.Status, tc thermal.Class) (state acpi.State, ruleIndex int, ok bool) {
	for i, r := range t.rules {
		if r.Matches(p, b, tc) {
			return r.Target, i, true
		}
	}
	if t.hasDefault {
		return t.def, -1, true
	}
	return 0, -1, false
}

// Coverage analyses the table over the full 4×6×3 input space.
type Coverage struct {
	// Unmatched lists input combinations no rule (ignoring the default)
	// matches.
	Unmatched []Combo
	// DeadRules lists indices of rules that are never the first match.
	DeadRules []int
	// Hits counts, per rule index, how many input combinations it decides.
	Hits []int
}

// Combo is one point of the quantised input space.
type Combo struct {
	Priority task.Priority
	Battery  battery.Status
	Temp     thermal.Class
}

// String renders the combo as in the paper's table.
func (c Combo) String() string {
	return fmt.Sprintf("(%s,%s,%s)", c.Priority, c.Battery, c.Temp)
}

// Analyze computes coverage of the rule list over the whole input space.
func (t *Table) Analyze() Coverage {
	cov := Coverage{Hits: make([]int, len(t.rules))}
	for p := task.Priority(0); int(p) < task.NumPriorities; p++ {
		for b := battery.Status(0); int(b) < battery.NumStatuses; b++ {
			for tc := thermal.Class(0); int(tc) < thermal.NumClasses; tc++ {
				_, idx, ok := t.selectNoDefault(p, b, tc)
				if !ok {
					cov.Unmatched = append(cov.Unmatched, Combo{p, b, tc})
					continue
				}
				cov.Hits[idx]++
			}
		}
	}
	for i, h := range cov.Hits {
		if h == 0 {
			cov.DeadRules = append(cov.DeadRules, i)
		}
	}
	return cov
}

func (t *Table) selectNoDefault(p task.Priority, b battery.Status, tc thermal.Class) (acpi.State, int, bool) {
	for i, r := range t.rules {
		if r.Matches(p, b, tc) {
			return r.Target, i, true
		}
	}
	return 0, -1, false
}

// Total reports whether every input combination is decided (directly or via
// the default).
func (t *Table) Total() bool {
	if t.hasDefault {
		return true
	}
	return len(t.Analyze().Unmatched) == 0
}

// Format renders the table in the paper's four-column layout.
func (t *Table) Format() string { return string(t.AppendFormat(nil)) }

// Column widths of Format's layout; the last column is unpadded.
const (
	priorityCol = 22
	batteryCol  = 22
	tempCol     = 14
)

// AppendFormat appends Format's rendering of the table to b. It writes
// the cells directly, without intermediate strings, because the engine
// folds every DPM configuration's table into its cache key.
func (t *Table) AppendFormat(b []byte) []byte {
	b = appendLiteralCells(b, "Task priority", "Battery", "Temperature")
	b = append(b, "Selected State\n"...)
	for _, r := range t.rules {
		cell := len(b)
		b = padCell(r.Priority.appendAbbrev(b), cell, priorityCol)
		cell = len(b)
		b = padCell(r.Battery.appendAbbrev(b), cell, batteryCol)
		cell = len(b)
		b = padCell(r.Temp.appendAbbrev(b), cell, tempCol)
		b = append(r.Target.Append(b), '\n')
	}
	if t.hasDefault {
		b = appendLiteralCells(b, "-", "-", "-")
		b = append(t.def.Append(b), '\n')
	}
	return b
}

// appendLiteralCells appends the three padded condition cells of a row
// whose cells are fixed text.
func appendLiteralCells(b []byte, priority, battery, temp string) []byte {
	cell := len(b)
	b = padCell(append(b, priority...), cell, priorityCol)
	cell = len(b)
	b = padCell(append(b, battery...), cell, batteryCol)
	cell = len(b)
	return padCell(append(b, temp...), cell, tempCol)
}

// padCell left-justifies the cell that starts at b[start] in a column of
// the given width and appends the column separator. Cells are ASCII, so
// bytes count columns.
func padCell(b []byte, start, width int) []byte {
	for n := len(b) - start; n < width; n++ {
		b = append(b, ' ')
	}
	return append(b, ' ')
}

// appendAbbrev renders the set in Table 1's notation: "-" for the
// wildcard, else the members' initials, most urgent first.
func (s PrioritySet) appendAbbrev(b []byte) []byte {
	if s == AnyPriority {
		return append(b, '-')
	}
	sep := ""
	for _, m := range [...]struct {
		p      task.Priority
		abbrev string
	}{{task.VeryHigh, "V"}, {task.High, "H"}, {task.Medium, "M"}, {task.Low, "L"}} {
		if s.Has(m.p) {
			b = append(append(b, sep...), m.abbrev...)
			sep = ", "
		}
	}
	return b
}

// appendAbbrev renders the set in Table 1's notation, mains first.
func (s BatterySet) appendAbbrev(b []byte) []byte {
	if s == AnyBattery {
		return append(b, '-')
	}
	sep := ""
	for _, m := range [...]struct {
		b      battery.Status
		abbrev string
	}{{battery.Mains, "Power supply"}, {battery.Full, "F"}, {battery.High, "H"},
		{battery.Medium, "M"}, {battery.Low, "L"}, {battery.Empty, "E"}} {
		if s.Has(m.b) {
			b = append(append(b, sep...), m.abbrev...)
			sep = ", "
		}
	}
	return b
}

// appendAbbrev renders the set in Table 1's notation, hottest first.
func (s TempSet) appendAbbrev(b []byte) []byte {
	if s == AnyTemp {
		return append(b, '-')
	}
	sep := ""
	for _, m := range [...]struct {
		t      thermal.Class
		abbrev string
	}{{thermal.HighTemp, "H"}, {thermal.MediumTemp, "M"}, {thermal.LowTemp, "L"}} {
		if s.Has(m.t) {
			b = append(append(b, sep...), m.abbrev...)
			sep = ", "
		}
	}
	return b
}
