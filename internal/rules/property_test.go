package rules

import (
	"math/rand"
	"testing"
	"testing/quick"

	"godpm/internal/acpi"
	"godpm/internal/battery"
	"godpm/internal/task"
	"godpm/internal/thermal"
)

// randomTable builds an arbitrary rule table from a seed.
func randomTable(seed int64, nRules int) *Table {
	rng := rand.New(rand.NewSource(seed))
	randSet := func(width int) uint8 {
		for {
			s := uint8(rng.Intn(1 << width))
			if s != 0 {
				return s
			}
		}
	}
	rules := make([]Rule, nRules)
	for i := range rules {
		rules[i] = Rule{
			Priority: PrioritySet(randSet(task.NumPriorities)),
			Battery:  BatterySet(randSet(battery.NumStatuses)),
			Temp:     TempSet(randSet(thermal.NumClasses)),
			Target:   acpi.State(rng.Intn(acpi.NumStates)),
		}
	}
	return NewTable(rules)
}

// Property: for any random table, the coverage analysis is internally
// consistent — hits over all rules plus unmatched combos equals the input
// space, dead rules have zero hits, and every unmatched combo really has
// no matching rule.
func TestAnalyzeConsistencyProperty(t *testing.T) {
	const space = task.NumPriorities * battery.NumStatuses * thermal.NumClasses
	f := func(seed int64, n uint8) bool {
		tbl := randomTable(seed, int(n%10)+1)
		cov := tbl.Analyze()
		total := len(cov.Unmatched)
		for _, h := range cov.Hits {
			total += h
		}
		if total != space {
			return false
		}
		for _, idx := range cov.DeadRules {
			if cov.Hits[idx] != 0 {
				return false
			}
		}
		rs := tbl.rules
		for _, c := range cov.Unmatched {
			for _, r := range rs {
				if r.Matches(c.Priority, c.Battery, c.Temp) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a default makes any table total, and the default is
// only used on previously unmatched combos.
func TestDefaultOnlyFillsGapsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		bare := randomTable(seed, int(n%6)+1)
		cov := bare.Analyze()
		withDef := NewTable(bare.rules).WithDefault(acpi.ON3)
		if !withDef.Total() {
			return false
		}
		unmatched := make(map[Combo]bool, len(cov.Unmatched))
		for _, c := range cov.Unmatched {
			unmatched[c] = true
		}
		for p := task.Priority(0); int(p) < task.NumPriorities; p++ {
			for b := battery.Status(0); int(b) < battery.NumStatuses; b++ {
				for tc := thermal.Class(0); int(tc) < thermal.NumClasses; tc++ {
					s1, i1, ok1 := bare.Select(p, b, tc)
					s2, i2, ok2 := withDef.Select(p, b, tc)
					if !ok2 {
						return false
					}
					if ok1 {
						// Rule-decided inputs are unchanged by the default.
						if s2 != s1 || i2 != i1 {
							return false
						}
					} else {
						// Gap inputs get exactly the default.
						if s2 != acpi.ON3 || i2 != -1 || !unmatched[Combo{p, b, tc}] {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
