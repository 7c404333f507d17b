package engine

// Record bodies. NewRecord writes a soc.Result with appendBody, and
// Record.Result reads it back with decodeBody. The body is the Result's
// fields in struct order, each in one of these forms:
//
//	float64         its 8 IEEE-754 bytes, little-endian; never NaN or ±Inf
//	int, sim.Time   a zig-zag varint (encoding/binary's AppendVarint)
//	uint64          a uvarint
//	bool            one byte, 0 or 1
//	string          a uvarint length, then the bytes
//	map             uvarint 0 for a nil map, else 1 + its length, then the
//	                entries, keys in strictly increasing order
//	*stats.Ledger   uvarint 0 for nil, else 1 + its row count; when there
//	                are rows, the string table (its length, then the
//	                distinct IP and State names in strictly increasing
//	                order), then each row's IP as a table index, TaskID,
//	                Request, Start, Done and State as a table index
//
// Varints are minimal, as encoding/binary writes them. decodeBody accepts
// only what appendBody writes: any other byte sequence (an overlong
// varint, an unsorted or repeated key, a table string no row uses, a
// trailing byte) is refused, so an accepted body re-encodes to the same
// bytes. A count is checked against the bytes left before anything is
// allocated for it.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"godpm/internal/battery"
	"godpm/internal/lem"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/stats"
)

// appendBody appends r's body. Like json.Marshal, it refuses a NaN or
// infinite float.
func appendBody(b []byte, r *soc.Result) ([]byte, error) {
	w := bodyWriter{b: b}
	w.float(r.EnergyJ)
	writeMap(&w, r.EnergyByIP, w.float)
	w.float(r.BusEnergyJ)
	w.float(r.AvgTempC)
	w.float(r.PeakTempC)
	w.float(r.AmbientC)
	w.ledger(r.Ledger)
	w.int(int64(r.Duration))
	w.bool(r.Completed)
	w.int(int64(r.TasksDone))
	w.str(r.StopReason)
	w.uint(r.Deltas)
	w.float(r.Cycles)
	w.float(r.WallSeconds)
	w.float(r.FinalSoC)
	w.int(int64(r.FinalBatteryStatus))
	writeMap(&w, r.LEMStats, w.lemStats)
	w.int(int64(r.GEMEvaluations))
	w.int(int64(r.FanSwitches))
	w.float(r.BusOccupancy)
	return w.b, w.err
}

// bodyWriter appends body values; err keeps the first non-finite float.
type bodyWriter struct {
	b   []byte
	err error
}

func (w *bodyWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = fmt.Errorf("unsupported value: %v", f)
		}
		return
	}
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(f))
}

func (w *bodyWriter) int(n int64) { w.b = binary.AppendVarint(w.b, n) }

func (w *bodyWriter) uint(n uint64) { w.b = binary.AppendUvarint(w.b, n) }

func (w *bodyWriter) bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

func (w *bodyWriter) str(s string) {
	w.uint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// writeMap writes m's presence and length, then its entries in key
// order, each value with value.
func writeMap[V any](w *bodyWriter, m map[string]V, value func(V)) {
	if m == nil {
		w.uint(0)
		return
	}
	w.uint(uint64(len(m)) + 1)
	for _, k := range sortedKeys(m) {
		w.str(k)
		value(m[k])
	}
}

func (w *bodyWriter) intMap(m map[string]int) {
	writeMap(w, m, func(n int) { w.int(int64(n)) })
}

func (w *bodyWriter) lemStats(s lem.Stats) {
	w.intMap(s.OnDecisions)
	w.intMap(s.SleepEntries)
	w.int(int64(s.ParkEvents))
	w.int(int64(s.ParkedTime))
}

// ledger writes a ledger's rows after the string table of their IP and
// State names. A ledger names a few IPs and states in every row, so the
// table is kept sorted as it grows and searched per row.
func (w *bodyWriter) ledger(l *stats.Ledger) {
	if l == nil {
		w.uint(0)
		return
	}
	recs := l.Records()
	w.uint(uint64(len(recs)) + 1)
	if len(recs) == 0 {
		return
	}
	var small [16]string
	table := small[:0]
	for i := range recs {
		for _, s := range [2]string{recs[i].IP, recs[i].State} {
			if j, found := slices.BinarySearch(table, s); !found {
				table = slices.Insert(table, j, s)
			}
		}
	}
	w.uint(uint64(len(table)))
	for _, s := range table {
		w.str(s)
	}
	for i := range recs {
		r := &recs[i]
		ip, _ := slices.BinarySearch(table, r.IP)
		state, _ := slices.BinarySearch(table, r.State)
		w.uint(uint64(ip))
		w.int(int64(r.TaskID))
		w.int(int64(r.Request))
		w.int(int64(r.Start))
		w.int(int64(r.Done))
		w.uint(uint64(state))
	}
}

// The fewest bytes an entry or row can take, which bound the counts a
// body of a given length can claim: a one-byte key or length and, per
// value, eight bytes for a float and one for an integer or an index.
const (
	minFloatEntry = 1 + 8
	minIntEntry   = 1 + 1
	minLEMEntry   = 1 + 1 + 1 + 1 + 1
	minLedgerRow  = 6
)

// decodeBody decodes a record body.
func decodeBody(b []byte) (*soc.Result, error) {
	d := bodyReader{b: b}
	r := new(soc.Result)
	r.EnergyJ = d.float()
	r.EnergyByIP = readMap(&d, minFloatEntry, d.float)
	r.BusEnergyJ = d.float()
	r.AvgTempC = d.float()
	r.PeakTempC = d.float()
	r.AmbientC = d.float()
	r.Ledger = d.ledger()
	r.Duration = sim.Time(d.int64())
	r.Completed = d.bool()
	r.TasksDone = d.int()
	r.StopReason = d.str()
	r.Deltas = d.uint()
	r.Cycles = d.float()
	r.WallSeconds = d.float()
	r.FinalSoC = d.float()
	r.FinalBatteryStatus = battery.Status(d.int())
	r.LEMStats = readMap(&d, minLEMEntry, d.lemStats)
	r.GEMEvaluations = d.int()
	r.FanSwitches = d.int()
	r.BusOccupancy = d.float()
	if d.err == nil && d.i != len(b) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// bodyReader reads body values at b[i:]. err keeps the first failure;
// once it is set every read returns a zero value and moves no further.
type bodyReader struct {
	b   []byte
	i   int
	err error

	// strs interns the body's strings: the maps' keys and the ledger's
	// table name the same IPs and states.
	strs  [16]string
	nstrs int
}

func (d *bodyReader) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("engine: record body: %s at byte %d", what, d.i)
	}
}

// left is the count of bytes not yet read.
func (d *bodyReader) left() int { return len(d.b) - d.i }

func (d *bodyReader) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.left() < 8 {
		d.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.i:]))
	if math.IsInf(f, 0) || math.IsNaN(f) {
		d.fail("non-finite float")
		return 0
	}
	d.i += 8
	return f
}

// uint reads a minimal uvarint: one whose last byte is not a zero
// continuation of a shorter form.
func (d *bodyReader) uint() uint64 {
	if d.err != nil {
		return 0
	}
	n, size := binary.Uvarint(d.b[d.i:])
	switch {
	case size == 0:
		d.fail("truncated varint")
		return 0
	case size < 0:
		d.fail("varint overflows 64 bits")
		return 0
	case size > 1 && d.b[d.i+size-1] == 0:
		d.fail("overlong varint")
		return 0
	}
	d.i += size
	return n
}

func (d *bodyReader) int64() int64 {
	u := d.uint()
	n := int64(u >> 1)
	if u&1 != 0 {
		n = ^n
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

// count reads a count of items of at least least bytes each, refusing
// one the bytes left cannot hold.
func (d *bodyReader) count(least int) int {
	n := d.uint()
	if n > uint64(d.left()/least) {
		d.fail("count exceeds the bytes left")
		return 0
	}
	return int(n)
}

// present reads the head of a map or ledger, 0 for a nil one or else 1
// + its count of items of at least least bytes each. It reports whether
// one is present and its count, refusing a count the bytes left cannot
// hold.
func (d *bodyReader) present(least int) (int, bool) {
	n := d.uint()
	if d.err != nil || n == 0 {
		return 0, false
	}
	if n-1 > uint64(d.left()/least) {
		d.fail("count exceeds the bytes left")
		return 0, false
	}
	return int(n - 1), true
}

func (d *bodyReader) bool() bool {
	if d.err != nil {
		return false
	}
	if d.left() < 1 || d.b[d.i] > 1 {
		d.fail("want a boolean")
		return false
	}
	d.i++
	return d.b[d.i-1] == 1
}

func (d *bodyReader) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := d.intern(d.b[d.i : d.i+n])
	d.i += n
	return s
}

// intern returns b as a string, reusing an earlier string of the body
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

// readMap reads a map whose entries take at least minEntry bytes and
// whose keys increase strictly, reading each value with value.
func readMap[V any](d *bodyReader, minEntry int, value func() V) map[string]V {
	n, ok := d.present(minEntry)
	if !ok {
		return nil
	}
	m := make(map[string]V, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		k := d.str()
		if i > 0 && k <= prev {
			d.fail("map keys out of order")
			return nil
		}
		m[k] = value()
		prev = k
	}
	return m
}

func (d *bodyReader) intMap() map[string]int { return readMap(d, minIntEntry, d.int) }

func (d *bodyReader) lemStats() lem.Stats {
	var s lem.Stats
	s.OnDecisions = d.intMap()
	s.SleepEntries = d.intMap()
	s.ParkEvents = d.int()
	s.ParkedTime = sim.Time(d.int64())
	return s
}

// ledger reads a ledger's table and rows, the rows into one slice.
func (d *bodyReader) ledger() *stats.Ledger {
	rows, ok := d.present(minLedgerRow)
	if !ok {
		return nil
	}
	if rows == 0 {
		return stats.NewLedger(nil)
	}
	// Each row names at most two table strings, and each string takes
	// at least its length byte.
	size := d.count(1)
	if d.err == nil && (size == 0 || size > 2*rows) {
		d.fail("ledger table size")
	}
	if d.err != nil {
		return nil
	}
	var small [16]string
	table := small[:0]
	if size > len(small) {
		table = make([]string, 0, size)
	}
	for i := 0; i < size && d.err == nil; i++ {
		s := d.str()
		if i > 0 && s <= table[i-1] {
			d.fail("ledger table out of order")
		}
		table = append(table, s)
	}
	if d.err == nil && d.left()/minLedgerRow < rows {
		d.fail("ledger rows exceed the bytes left")
	}
	if d.err != nil {
		return nil
	}
	// used marks the table strings some row names: every one must be.
	var usedSmall [1]uint64
	used := usedSmall[:]
	if size > 64 {
		used = make([]uint64, (size+63)/64)
	}
	recs := make([]stats.TaskRecord, rows)
	for i := range recs {
		r := &recs[i]
		ip := d.uint()
		r.TaskID = d.int()
		r.Request = sim.Time(d.int64())
		r.Start = sim.Time(d.int64())
		r.Done = sim.Time(d.int64())
		state := d.uint()
		if d.err == nil && (ip >= uint64(size) || state >= uint64(size)) {
			d.fail("ledger table index out of range")
		}
		if d.err != nil {
			return nil
		}
		r.IP, r.State = table[ip], table[state]
		used[ip/64] |= 1 << (ip % 64)
		used[state/64] |= 1 << (state % 64)
	}
	for j := range size {
		if used[j/64]&(1<<(j%64)) == 0 {
			d.fail("ledger table string unused")
			return nil
		}
	}
	return stats.NewLedger(recs)
}
