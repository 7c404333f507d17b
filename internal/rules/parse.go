package rules

import (
	"fmt"
	"strings"

	"godpm/internal/acpi"
	"godpm/internal/battery"
	"godpm/internal/task"
	"godpm/internal/thermal"
)

// Parse reads a rule script in the paper's natural-language form, one rule
// per line:
//
//	if the priority is high and the battery is empty then the power state is ON4
//	if the battery is low and the temperature is medium or low then ON4
//	default ON3
//
// Recognised fields are "priority", "battery" and "temperature"; values are
// the class names (priority: low/medium/high/veryhigh or "very high";
// battery: empty/low/medium/high/full/mains or "power supply";
// temperature: low/medium/high). "or" builds value sets, "and" joins field
// conditions, the article "the" is noise, and "# ..." comments and blank
// lines are skipped. A field not mentioned in a rule is a wildcard. At most
// one "default STATE" line is allowed.
func Parse(script string) (*Table, error) {
	var rules []Rule
	var def acpi.State
	hasDefault := false

	for lineNo, raw := range strings.Split(script, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		toks := lex(line)
		if len(toks) == 0 {
			// The line held only noise words ("the", stray punctuation);
			// treat it like a blank line rather than indexing into nothing.
			continue
		}
		switch toks[0] {
		case "default":
			if hasDefault {
				return nil, fmt.Errorf("rules: line %d: duplicate default", lineNo+1)
			}
			if len(toks) != 2 {
				return nil, fmt.Errorf("rules: line %d: default wants exactly one state", lineNo+1)
			}
			s, err := parseState(toks[1])
			if err != nil {
				return nil, fmt.Errorf("rules: line %d: %v", lineNo+1, err)
			}
			def = s
			hasDefault = true
		case "if":
			r, err := parseRule(toks[1:])
			if err != nil {
				return nil, fmt.Errorf("rules: line %d: %v", lineNo+1, err)
			}
			r.Source = strings.TrimSpace(raw)
			rules = append(rules, r)
		default:
			return nil, fmt.Errorf("rules: line %d: expected 'if' or 'default', got %q", lineNo+1, toks[0])
		}
	}
	t := NewTable(rules)
	if hasDefault {
		t.WithDefault(def)
	}
	return t, nil
}

// lex lowercases, drops the article "the", and merges the two-word values
// "very high" → "veryhigh" and "power supply" → "mains".
func lex(line string) []string {
	words := strings.Fields(strings.ToLower(line))
	var toks []string
	for i := 0; i < len(words); i++ {
		w := strings.Trim(words[i], ",.")
		switch {
		case w == "the" || w == "":
			continue
		case w == "very" && i+1 < len(words) && strings.Trim(words[i+1], ",.") == "high":
			toks = append(toks, "veryhigh")
			i++
		case w == "power" && i+1 < len(words) && strings.Trim(words[i+1], ",.") == "supply":
			toks = append(toks, "mains")
			i++
		default:
			toks = append(toks, w)
		}
	}
	return toks
}

// parseRule parses the token stream after "if".
func parseRule(toks []string) (Rule, error) {
	r := Rule{Priority: AnyPriority, Battery: AnyBattery, Temp: AnyTemp}
	// Split at "then".
	thenIdx := -1
	for i, t := range toks {
		if t == "then" {
			thenIdx = i
			break
		}
	}
	if thenIdx < 0 {
		return r, fmt.Errorf("missing 'then'")
	}
	cond, action := toks[:thenIdx], toks[thenIdx+1:]

	// Action: optional "power state is" noise, then the state name.
	var stateTok string
	for _, t := range action {
		switch t {
		case "power", "state", "is":
			continue
		default:
			if stateTok != "" {
				return r, fmt.Errorf("unexpected token %q after state", t)
			}
			stateTok = t
		}
	}
	if stateTok == "" {
		return r, fmt.Errorf("missing target state after 'then'")
	}
	st, err := parseState(stateTok)
	if err != nil {
		return r, err
	}
	r.Target = st

	// Condition: FIELD is VALUE (or VALUE)* (and FIELD is ...)*.
	i := 0
	seen := map[string]bool{}
	for i < len(cond) {
		field := cond[i]
		if field != "priority" && field != "battery" && field != "temperature" {
			return r, fmt.Errorf("unknown field %q", field)
		}
		if seen[field] {
			return r, fmt.Errorf("field %q conditioned twice", field)
		}
		seen[field] = true
		i++
		if i >= len(cond) || cond[i] != "is" {
			return r, fmt.Errorf("expected 'is' after %q", field)
		}
		i++
		var vals []string
		for {
			if i >= len(cond) {
				break
			}
			vals = append(vals, cond[i])
			i++
			if i < len(cond) && cond[i] == "or" {
				i++
				continue
			}
			break
		}
		if len(vals) == 0 {
			return r, fmt.Errorf("no values for field %q", field)
		}
		if err := applyFieldValues(&r, field, vals); err != nil {
			return r, err
		}
		if i < len(cond) {
			if cond[i] != "and" {
				return r, fmt.Errorf("expected 'and' between conditions, got %q", cond[i])
			}
			i++
			if i >= len(cond) {
				return r, fmt.Errorf("dangling 'and'")
			}
		}
	}
	if len(seen) == 0 {
		return r, fmt.Errorf("empty condition")
	}
	return r, nil
}

func applyFieldValues(r *Rule, field string, vals []string) error {
	switch field {
	case "priority":
		var s PrioritySet
		for _, v := range vals {
			p, err := parsePriorityValue(v)
			if err != nil {
				return err
			}
			s |= P(p)
		}
		r.Priority = s
	case "battery":
		var s BatterySet
		for _, v := range vals {
			b, err := parseBatteryValue(v)
			if err != nil {
				return err
			}
			s |= B(b)
		}
		r.Battery = s
	case "temperature":
		var s TempSet
		for _, v := range vals {
			t, err := parseTempValue(v)
			if err != nil {
				return err
			}
			s |= T(t)
		}
		r.Temp = s
	}
	return nil
}

func parsePriorityValue(v string) (task.Priority, error) {
	switch v {
	case "low":
		return task.Low, nil
	case "medium":
		return task.Medium, nil
	case "high":
		return task.High, nil
	case "veryhigh":
		return task.VeryHigh, nil
	default:
		return 0, fmt.Errorf("unknown priority value %q", v)
	}
}

func parseBatteryValue(v string) (battery.Status, error) {
	switch v {
	case "empty":
		return battery.Empty, nil
	case "low":
		return battery.Low, nil
	case "medium":
		return battery.Medium, nil
	case "high":
		return battery.High, nil
	case "full":
		return battery.Full, nil
	case "mains", "powersupply":
		return battery.Mains, nil
	default:
		return 0, fmt.Errorf("unknown battery value %q", v)
	}
}

func parseTempValue(v string) (thermal.Class, error) {
	switch v {
	case "low":
		return thermal.LowTemp, nil
	case "medium":
		return thermal.MediumTemp, nil
	case "high":
		return thermal.HighTemp, nil
	default:
		return 0, fmt.Errorf("unknown temperature value %q", v)
	}
}

// parseState accepts case-insensitive state names: on1..on4, sl1..sl4,
// softoff (also "soft-off").
func parseState(tok string) (acpi.State, error) {
	norm := strings.ReplaceAll(strings.ToLower(tok), "-", "")
	switch norm {
	case "on1":
		return acpi.ON1, nil
	case "on2":
		return acpi.ON2, nil
	case "on3":
		return acpi.ON3, nil
	case "on4":
		return acpi.ON4, nil
	case "sl1":
		return acpi.SL1, nil
	case "sl2":
		return acpi.SL2, nil
	case "sl3":
		return acpi.SL3, nil
	case "sl4":
		return acpi.SL4, nil
	case "softoff":
		return acpi.SoftOff, nil
	default:
		return 0, fmt.Errorf("unknown state %q", tok)
	}
}
