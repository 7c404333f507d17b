package engine

// Record bodies, read back. decodeResult parses the canonical JSON that
// body.go's appenders write, in one pass and without reflection: the
// fields in struct order, map keys in strictly increasing order, null for
// a nil map or Ledger, [] for an empty ledger, and no whitespace.
//
// It accepts only that layout. A body reaches it after its container's
// SHA-256 check, so it was written by a store: by the appenders, or by
// json.Marshal in builds before them, whose bytes are the same. JSON that
// encoding/json would read but that is laid out any other way is refused
// as a corrupt record, not decoded on a slower path. Within the layout,
// numbers are read as encoding/json reads them: floats through
// strconv.ParseFloat, integers with its range checks. Strings take only
// the escapes str writes. So whatever this decoder accepts, json.Unmarshal
// accepts into an equal Result; bodydecode_test.go keeps json.Unmarshal
// as the reference.

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf8"

	"godpm/internal/battery"
	"godpm/internal/lem"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/stats"
)

// decodeResult decodes a canonical record body.
func decodeResult(b []byte) (*soc.Result, error) {
	d := bodyReader{b: b}
	r := new(soc.Result)
	d.lit(`{"EnergyJ":`)
	r.EnergyJ = d.float()
	d.lit(`,"EnergyByIP":`)
	r.EnergyByIP = readObject(&d, d.float)
	d.lit(`,"BusEnergyJ":`)
	r.BusEnergyJ = d.float()
	d.lit(`,"AvgTempC":`)
	r.AvgTempC = d.float()
	d.lit(`,"PeakTempC":`)
	r.PeakTempC = d.float()
	d.lit(`,"AmbientC":`)
	r.AmbientC = d.float()
	d.lit(`,"Ledger":`)
	r.Ledger = d.ledger()
	d.lit(`,"Duration":`)
	r.Duration = sim.Time(d.int64())
	d.lit(`,"Completed":`)
	r.Completed = d.bool()
	d.lit(`,"TasksDone":`)
	r.TasksDone = d.int()
	d.lit(`,"StopReason":`)
	r.StopReason = d.str()
	d.lit(`,"Deltas":`)
	r.Deltas = d.uint64()
	d.lit(`,"Cycles":`)
	r.Cycles = d.float()
	d.lit(`,"WallSeconds":`)
	r.WallSeconds = d.float()
	d.lit(`,"FinalSoC":`)
	r.FinalSoC = d.float()
	d.lit(`,"FinalBatteryStatus":`)
	r.FinalBatteryStatus = battery.Status(d.int())
	d.lit(`,"LEMStats":`)
	r.LEMStats = readObject(&d, d.lemStats)
	d.lit(`,"GEMEvaluations":`)
	r.GEMEvaluations = d.int()
	d.lit(`,"FanSwitches":`)
	r.FanSwitches = d.int()
	d.lit(`,"BusOccupancy":`)
	r.BusOccupancy = d.float()
	d.lit(`}`)
	if d.err == nil && d.i != len(b) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// bodyReader reads JSON values at b[i:]. err keeps the first failure;
// once it is set every read returns a zero value and moves no further.
type bodyReader struct {
	b   []byte
	i   int
	err error

	// strs interns the record's strings: a ledger repeats a few IP and
	// state names in every row, and the maps' keys name them again.
	strs  [16]string
	nstrs int
}

func (d *bodyReader) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("engine: record body: %s at byte %d", what, d.i)
	}
}

// skip reports whether s comes next, consuming it if so.
func (d *bodyReader) skip(s string) bool {
	if d.err == nil && len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// lit consumes s, which must come next.
func (d *bodyReader) lit(s string) {
	if !d.skip(s) {
		d.fail("want " + strconv.Quote(s))
	}
}

// next reports whether c comes next, consuming it if so.
func (d *bodyReader) next(c byte) bool {
	if d.err == nil && d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *bodyReader) bool() bool {
	if d.skip("true") {
		return true
	}
	if !d.skip("false") {
		d.fail("want a boolean")
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (d *bodyReader) digits() int {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// number consumes a JSON number literal — -?(0|[1-9][0-9]*), then an
// optional fraction and exponent when frac is set — and returns it.
func (d *bodyReader) number(frac bool) []byte {
	if d.err != nil {
		return nil
	}
	start := d.i
	d.next('-')
	switch {
	case d.next('0'):
	case d.digits() == 0:
		d.i = start
		d.fail("want a number")
		return nil
	}
	if frac {
		if d.next('.') && d.digits() == 0 {
			d.fail("want a fraction digit")
			return nil
		}
		if d.next('e') || d.next('E') {
			if !d.next('+') {
				d.next('-')
			}
			if d.digits() == 0 {
				d.fail("want an exponent digit")
				return nil
			}
		}
	}
	return d.b[start:d.i]
}

func (d *bodyReader) float() float64 {
	s := d.number(true)
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		d.fail("float out of range")
		return 0
	}
	return f
}

// int64 reads an integer that fits in an int64; encoding/json refuses
// one with a fraction or an exponent for an integer field, as this does.
func (d *bodyReader) int64() int64 {
	s := d.number(false)
	if d.err != nil {
		return 0
	}
	// Eighteen digits cannot overflow; longer literals take strconv's
	// range check.
	if len(s) <= 18 {
		digits, neg := s, s[0] == '-'
		if neg {
			digits = s[1:]
		}
		var n int64
		for _, c := range digits {
			n = n*10 + int64(c-'0')
		}
		if neg {
			n = -n
		}
		return n
	}
	n, err := strconv.ParseInt(string(s), 10, 64)
	if err != nil {
		d.fail("integer out of range")
	}
	return n
}

// int reads an integer that fits in an int on this platform.
func (d *bodyReader) int() int {
	n := d.int64()
	if int64(int(n)) != n {
		d.fail("integer out of range")
		return 0
	}
	return int(n)
}

// uint64 reads an unsigned integer. strconv refuses a minus sign, even
// on -0, as encoding/json does for an unsigned field.
func (d *bodyReader) uint64() uint64 {
	s := d.number(false)
	if d.err != nil {
		return 0
	}
	n, err := strconv.ParseUint(string(s), 10, 64)
	if err != nil {
		d.fail("unsigned integer out of range")
	}
	return n
}

// str reads a string. One of plain ASCII, the common case, is interned.
func (d *bodyReader) str() string {
	if !d.next('"') {
		d.fail("want a string")
		return ""
	}
	start := d.i
	for d.i < len(d.b) && d.b[d.i] < utf8.RuneSelf && jsonSafe[d.b[d.i]] {
		d.i++
	}
	if d.i < len(d.b) && d.b[d.i] == '"' {
		s := d.intern(d.b[start:d.i])
		d.i++
		return s
	}
	return d.strSlow(start)
}

// intern returns b as a string, reusing an earlier string of the record
// with the same bytes.
func (d *bodyReader) intern(b []byte) string {
	for _, s := range d.strs[:d.nstrs] {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	if d.nstrs < len(d.strs) {
		d.strs[d.nstrs] = s
		d.nstrs++
	}
	return s
}

// unescapes maps each escape str writes to the rune it stands for. str
// itself spells them, so the map holds those escapes and no others.
var unescapes = func() map[string]rune {
	m := make(map[string]rune)
	add := func(s string, r rune) {
		var w bodyWriter
		w.str(s)
		m[string(w.b[1:len(w.b)-1])] = r
	}
	for c := rune(0); c < utf8.RuneSelf; c++ {
		if !jsonSafe[c] {
			add(string(c), c)
		}
	}
	add("\u2028", '\u2028')
	add("\u2029", '\u2029')
	add("\xff", utf8.RuneError)
	return m
}()

// strSlow finishes a string that started at start, the first byte after
// its quote, and holds an escape or a byte outside printable ASCII at
// d.i. It reads only what str writes: its escapes, in unescapes, and
// valid UTF-8 other than U+2028 and U+2029, which str escapes. Any other
// spelling, a control byte, an unescaped < > & or invalid UTF-8 is
// refused.
func (d *bodyReader) strSlow(start int) string {
	out := make([]byte, d.i-start, d.i-start+16)
	copy(out, d.b[start:d.i])
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return string(out)
		case c == '\\':
			n := 2
			if d.i+1 < len(d.b) && d.b[d.i+1] == 'u' {
				n = 6
			}
			r, ok := unescapes[string(d.b[d.i:min(d.i+n, len(d.b))])]
			if !ok {
				d.fail("non-canonical escape")
				return ""
			}
			out = utf8.AppendRune(out, r)
			d.i += n
		case c < utf8.RuneSelf:
			if !jsonSafe[c] {
				d.fail("unescaped byte in string")
				return ""
			}
			out = append(out, c)
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
				d.fail("non-canonical text in string")
				return ""
			}
			out = append(out, d.b[d.i:d.i+size]...)
			d.i += size
		}
	}
	d.fail("unterminated string")
	return ""
}

// readObject reads an object whose keys increase strictly, reading each
// value with value, or null as a nil map.
func readObject[V any](d *bodyReader, value func() V) map[string]V {
	if d.skip("null") {
		return nil
	}
	if !d.next('{') {
		d.fail("want an object")
		return nil
	}
	m := make(map[string]V)
	if d.next('}') {
		return m
	}
	prev := ""
	for d.err == nil {
		k := d.str()
		if len(m) > 0 && k <= prev {
			d.fail("object keys out of order")
			return nil
		}
		d.lit(":")
		m[k] = value()
		prev = k
		if d.next('}') {
			return m
		}
		d.lit(",")
	}
	return nil
}

func (d *bodyReader) lemStats() lem.Stats {
	var s lem.Stats
	d.lit(`{"OnDecisions":`)
	s.OnDecisions = readObject(d, d.int)
	d.lit(`,"SleepEntries":`)
	s.SleepEntries = readObject(d, d.int)
	d.lit(`,"ParkEvents":`)
	s.ParkEvents = d.int()
	d.lit(`,"ParkedTime":`)
	s.ParkedTime = sim.Time(d.int64())
	d.lit(`}`)
	return s
}

// ledgerRowStart opens every ledger row, and the shortest row takes
// minLedgerRow bytes; the row count a body can claim is bounded by both.
const (
	ledgerRowStart = `{"IP":`
	minLedgerRow   = len(`{"IP":"","TaskID":0,"Request":0,"Start":0,"Done":0,"State":""},`)
)

// ledgerRows is the row count to reserve for a ledger whose rows start
// b: the row openings ahead, which is exact for a canonical body (no
// string in it holds an unescaped quote), and never more than b's length
// could hold, so a forged body reserves no more than its own size.
func ledgerRows(b []byte) int {
	return min(bytes.Count(b, []byte(ledgerRowStart)), len(b)/minLedgerRow+1)
}

// ledger reads a ledger's record array into one slice of ledgerRows.
func (d *bodyReader) ledger() *stats.Ledger {
	if d.skip("null") {
		return nil
	}
	if !d.next('[') {
		d.fail("want a ledger")
		return nil
	}
	recs := make([]stats.TaskRecord, 0, ledgerRows(d.b[d.i:]))
	if d.next(']') {
		return stats.NewLedger(recs)
	}
	for d.err == nil {
		var r stats.TaskRecord
		d.lit(ledgerRowStart)
		r.IP = d.str()
		d.lit(`,"TaskID":`)
		r.TaskID = d.int()
		d.lit(`,"Request":`)
		r.Request = sim.Time(d.int64())
		d.lit(`,"Start":`)
		r.Start = sim.Time(d.int64())
		d.lit(`,"Done":`)
		r.Done = sim.Time(d.int64())
		d.lit(`,"State":`)
		r.State = d.str()
		d.lit(`}`)
		recs = append(recs, r)
		if d.next(']') {
			return stats.NewLedger(recs)
		}
		d.lit(",")
	}
	return nil
}
