package engine

// Record bodies. NewRecord writes a Result's canonical JSON with the
// appenders below, byte for byte what json.Marshal writes for it: fields
// in struct order, map keys sorted, null for nil maps and a nil Ledger
// (stats.Ledger.MarshalJSON writes its records, [] when there are none),
// floats in encoding/json's form and strings with its escaping, HTML
// characters included. body_test.go keeps json.Marshal as the reference;
// a differential test over random and real Results and a fuzz target
// require equal bytes, so a Result field added without an appender fails
// the suite.

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"godpm/internal/lem"
	"godpm/internal/soc"
	"godpm/internal/stats"
)

// appendResultJSON appends r's canonical JSON. Like json.Marshal, it
// refuses a NaN or infinite float.
func appendResultJSON(b []byte, r *soc.Result) ([]byte, error) {
	w := bodyWriter{b: b}
	w.lit(`{"EnergyJ":`)
	w.float(r.EnergyJ)
	w.lit(`,"EnergyByIP":`)
	object(&w, r.EnergyByIP, w.float)
	w.lit(`,"BusEnergyJ":`)
	w.float(r.BusEnergyJ)
	w.lit(`,"AvgTempC":`)
	w.float(r.AvgTempC)
	w.lit(`,"PeakTempC":`)
	w.float(r.PeakTempC)
	w.lit(`,"AmbientC":`)
	w.float(r.AmbientC)
	w.lit(`,"Ledger":`)
	w.ledger(r.Ledger)
	w.lit(`,"Duration":`)
	w.int(int64(r.Duration))
	w.lit(`,"Completed":`)
	w.b = strconv.AppendBool(w.b, r.Completed)
	w.lit(`,"TasksDone":`)
	w.int(int64(r.TasksDone))
	w.lit(`,"StopReason":`)
	w.str(r.StopReason)
	w.lit(`,"Deltas":`)
	w.b = strconv.AppendUint(w.b, r.Deltas, 10)
	w.lit(`,"Cycles":`)
	w.float(r.Cycles)
	w.lit(`,"WallSeconds":`)
	w.float(r.WallSeconds)
	w.lit(`,"FinalSoC":`)
	w.float(r.FinalSoC)
	w.lit(`,"FinalBatteryStatus":`)
	w.int(int64(r.FinalBatteryStatus))
	w.lit(`,"LEMStats":`)
	object(&w, r.LEMStats, w.lemStats)
	w.lit(`,"GEMEvaluations":`)
	w.int(int64(r.GEMEvaluations))
	w.lit(`,"FanSwitches":`)
	w.int(int64(r.FanSwitches))
	w.lit(`,"BusOccupancy":`)
	w.float(r.BusOccupancy)
	w.lit(`}`)
	return w.b, w.err
}

// bodyWriter appends JSON values; err keeps the first value json.Marshal
// would refuse.
type bodyWriter struct {
	b   []byte
	err error
}

func (w *bodyWriter) lit(s string) { w.b = append(w.b, s...) }

func (w *bodyWriter) int(n int64) { w.b = strconv.AppendInt(w.b, n, 10) }

// float writes f as encoding/json does: 'f' format, except 'e' below 1e-6
// and from 1e21, with a one-digit negative exponent unpadded (e-7).
func (w *bodyWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.b = b
}

// jsonSafe marks the ASCII bytes a string holds unescaped: printable
// ones other than the quote, the backslash and the HTML characters.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// str writes s quoted and escaped as encoding/json does: short escapes
// for \b \f \n \r \t, \u00XX for the other control bytes and for < > &,
// \u2028 and \u2029 for U+2028 and U+2029, and \ufffd for each byte of
// invalid UTF-8.
func (w *bodyWriter) str(s string) {
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}

// object writes m as an object with its keys in sorted order, or null
// for a nil map, writing each value with value.
func object[V any](w *bodyWriter, m map[string]V, value func(V)) {
	if m == nil {
		w.lit("null")
		return
	}
	w.b = append(w.b, '{')
	for i, k := range sortedKeys(m) {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.str(k)
		w.b = append(w.b, ':')
		value(m[k])
	}
	w.b = append(w.b, '}')
}

func (w *bodyWriter) intMap(m map[string]int) {
	object(w, m, func(n int) { w.int(int64(n)) })
}

func (w *bodyWriter) lemStats(s lem.Stats) {
	w.lit(`{"OnDecisions":`)
	w.intMap(s.OnDecisions)
	w.lit(`,"SleepEntries":`)
	w.intMap(s.SleepEntries)
	w.lit(`,"ParkEvents":`)
	w.int(int64(s.ParkEvents))
	w.lit(`,"ParkedTime":`)
	w.int(int64(s.ParkedTime))
	w.b = append(w.b, '}')
}

// ledger writes a ledger as its record array; the array of a ledger with
// no records is [] whether or not it ever held one.
func (w *bodyWriter) ledger(l *stats.Ledger) {
	if l == nil {
		w.lit("null")
		return
	}
	w.b = append(w.b, '[')
	recs := l.Records()
	for i := range recs {
		r := &recs[i]
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.lit(`{"IP":`)
		w.str(r.IP)
		w.lit(`,"TaskID":`)
		w.int(int64(r.TaskID))
		w.lit(`,"Request":`)
		w.int(int64(r.Request))
		w.lit(`,"Start":`)
		w.int(int64(r.Start))
		w.lit(`,"Done":`)
		w.int(int64(r.Done))
		w.lit(`,"State":`)
		w.str(r.State)
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, ']')
}
