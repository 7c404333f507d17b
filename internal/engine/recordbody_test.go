package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"godpm/internal/lem"
	"godpm/internal/soc"
	"godpm/internal/stats"
)

// decodedForm is the Result a body of r decodes to: r itself, except that
// a ledger without rows holds a nil row slice, as one Ledger.Add starts
// does. Nil and empty maps, and a nil and an empty ledger, stay apart.
func decodedForm(r *soc.Result) *soc.Result {
	c := *r
	if c.Ledger != nil && c.Ledger.Len() == 0 {
		c.Ledger = stats.NewLedger(nil)
	}
	return &c
}

// checkRoundTrip requires appendBody to append r's body to a buffer
// without disturbing what it held, and decodeBody to read that body back
// to a Result deeply equal to r (see decodedForm) that has r's digest,
// marshals to r's JSON and re-encodes to the same bytes. It returns the
// body.
func checkRoundTrip(t testing.TB, name string, r *soc.Result) []byte {
	t.Helper()
	b, err := appendBody([]byte("prefix"), r)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.HasPrefix(b, []byte("prefix")) {
		t.Fatalf("%s: appendBody overwrote the buffer's contents", name)
	}
	body := b[len("prefix"):]
	got, err := decodeBody(body)
	if err != nil {
		t.Fatalf("%s: decoder refused the encoder's body: %v\n body %x", name, err, body)
	}
	want := decodedForm(r)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded result differs:\n got  %+v\n want %+v", name, got, want)
	}
	if g, w := ResultDigest(got), ResultDigest(r); g != w {
		t.Fatalf("%s: digest %s, want %s", name, g, w)
	}
	gotJSON, gotErr := json.Marshal(got)
	wantJSON, wantErr := json.Marshal(r)
	if gotErr != nil || wantErr != nil || !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("%s: JSON differs (%v, %v):\n got  %s\n want %s", name, gotErr, wantErr, gotJSON, wantJSON)
	}
	again, err := appendBody(nil, got)
	if err != nil || !bytes.Equal(again, body) {
		t.Fatalf("%s: re-encoded body differs at byte %d (%v)", name, firstDiff(again, body), err)
	}
	return body
}

// finiteFloats replaces every NaN and infinity in a Result's float
// fields and float maps with a finite value.
func finiteFloats(v reflect.Value) {
	fix := func(f float64) float64 {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return 1.5
		}
		return f
	}
	for i := 0; i < v.NumField(); i++ {
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Float64:
			fv.SetFloat(fix(fv.Float()))
		case reflect.Map:
			if fv.Type().Elem().Kind() == reflect.Float64 {
				for _, k := range fv.MapKeys() {
					fv.SetMapIndex(k, reflect.ValueOf(fix(fv.MapIndex(k).Float())))
				}
			}
		}
	}
}

// TestRecordBodyMatchesJSON fills Results with random values (edge-case
// floats, times and strings, nil and empty maps, nil ledgers) and holds
// the encoder to json.Marshal, the form dpmserve answers with: it refuses
// exactly the Results json.Marshal refuses (those with a non-finite
// float), and once their floats are made finite, the body decodes to a
// Result that marshals to the same JSON and is deeply equal.
func TestRecordBodyMatchesJSON(t *testing.T) {
	f := filler{rng: rand.New(rand.NewSource(3))}
	for i := 0; i < 3000; i++ {
		var res soc.Result
		f.fill(reflect.ValueOf(&res).Elem())
		_, err := appendBody(nil, &res)
		if _, jerr := json.Marshal(&res); (err == nil) != (jerr == nil) {
			t.Fatalf("appendBody error %v, json.Marshal error %v", err, jerr)
		}
		finiteFloats(reflect.ValueOf(&res).Elem())
		checkRoundTrip(t, "finite result", &res)
	}
}

// bodyFields is a small Result's body as appendBody writes it, field by
// field, in hex; canonicalResult is that Result.
var bodyFields = []struct{ name, hex string }{
	{"EnergyJ", "000000000000f83f"},                        // 1.5
	{"EnergyByIP", "02" + "03697030" + "0000000000000040"}, // 1 + 1 entry: "ip0" → 2.0
	{"BusEnergyJ", "0000000000000000"},
	{"AvgTempC", "0000000000000000"},
	{"PeakTempC", "0000000000000000"},
	{"AmbientC", "0000000000000000"},
	// 1 + 1 row; a table of 2 strings, "ip0" and "on"; the row: IP 0,
	// TaskID 1, Request 5, Start 6, Done 9, State 1.
	{"Ledger", "02" + "02" + "03697030" + "026f6e" + "00020a0c1201"},
	{"Duration", "00"},
	{"Completed", "01"},
	{"TasksDone", "00"},
	{"StopReason", "00"},
	{"Deltas", "ac02"}, // 300
	{"Cycles", "0000000000000000"},
	{"WallSeconds", "0000000000000000"},
	{"FinalSoC", "0000000000000000"},
	{"FinalBatteryStatus", "00"},
	// 1 + 1 entry: "ip0" → OnDecisions {"on": 3}, SleepEntries nil,
	// ParkEvents 1, ParkedTime 7.
	{"LEMStats", "02" + "03697030" + "02026f6e06" + "00" + "02" + "0e"},
	{"GEMEvaluations", "00"},
	{"FanSwitches", "00"},
	{"BusOccupancy", "0000000000000000"},
}

func canonicalResult() *soc.Result {
	return &soc.Result{
		EnergyJ:    1.5,
		EnergyByIP: map[string]float64{"ip0": 2},
		Ledger:     stats.NewLedger([]stats.TaskRecord{{IP: "ip0", TaskID: 1, Request: 5, Start: 6, Done: 9, State: "on"}}),
		Completed:  true,
		Deltas:     300,
		LEMStats:   map[string]lem.Stats{"ip0": {OnDecisions: map[string]int{"on": 3}, ParkEvents: 1, ParkedTime: 7}},
	}
}

// editedBody returns the canonical body with field's bytes replaced by
// the hex in with.
func editedBody(t testing.TB, field, with string) []byte {
	t.Helper()
	var s strings.Builder
	found := false
	for _, f := range bodyFields {
		if f.name == field {
			s.WriteString(with)
			found = true
		} else {
			s.WriteString(f.hex)
		}
	}
	if !found && field != "" {
		t.Fatalf("no field %q", field)
	}
	b, err := hex.DecodeString(s.String())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// uv is n's uvarint in hex.
func uv(n uint64) string { return hex.EncodeToString(binary.AppendUvarint(nil, n)) }

// TestRecordBodyEdgeCases pins the body's layout byte for byte on a small
// Result, and the encoder's refusal, like json.Marshal's, of a NaN or
// infinite float, which NewRecord passes on.
func TestRecordBodyEdgeCases(t *testing.T) {
	want := editedBody(t, "", "")
	if got := checkRoundTrip(t, "canonical", canonicalResult()); !bytes.Equal(got, want) {
		t.Fatalf("body layout changed:\n got  %x\n want %x", got, want)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []soc.Result{{FinalSoC: x}, {EnergyByIP: map[string]float64{"a": 1, "b": x}}} {
			if _, err := appendBody(nil, &r); err == nil {
				t.Errorf("appendBody accepted %v", x)
			}
			if _, err := NewRecord("k", &r); err == nil {
				t.Errorf("NewRecord accepted %v", x)
			}
		}
	}
}

// TestDecodeBodyMatchesJSON decodes the bodies of random Results (edge-case
// floats, times and strings, nil and empty maps, nil and empty ledgers):
// each reads back deeply equal, with the same digest and the same JSON.
func TestDecodeBodyMatchesJSON(t *testing.T) {
	f := filler{rng: rand.New(rand.NewSource(5))}
	for i := 0; i < 3000; i++ {
		var res soc.Result
		f.fill(reflect.ValueOf(&res).Elem())
		finiteFloats(reflect.ValueOf(&res).Elem())
		checkRoundTrip(t, "random result", &res)
	}
}

// TestDecodeBodyEdgeCases round-trips what the random fill reaches
// rarely: every byte value in strings and keys, invalid UTF-8, the
// extreme floats and integers, the three forms of an empty ledger, and
// ledgers whose tables outgrow the decoder's fixed-size scratch.
func TestDecodeBodyEdgeCases(t *testing.T) {
	var all strings.Builder
	for c := 0; c < 0x100; c++ {
		all.WriteByte(byte(c))
	}
	odd := all.String() + "  é\xff\xc3\xe2\x80 \U0001F600"
	full := &stats.Ledger{}
	full.Add(stats.TaskRecord{IP: odd, TaskID: math.MinInt, Request: -1, Start: math.MaxInt64, Done: math.MinInt64, State: odd})
	full.Add(stats.TaskRecord{TaskID: math.MaxInt})
	full.Add(stats.TaskRecord{IP: "ip0", State: "on"})
	full.Add(stats.TaskRecord{IP: "ip0", State: "on"})
	wide := &stats.Ledger{} // 70 IPs and 70 states: a table of 140
	for i := 0; i < 70; i++ {
		wide.Add(stats.TaskRecord{IP: fmt.Sprintf("ip%02d", 69-i), TaskID: i, State: fmt.Sprintf("s%d", i)})
	}
	floats := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1.5e-300,
		math.SmallestNonzeroFloat64, 1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 123456789.125,
		math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3}
	for _, ledger := range []*stats.Ledger{nil, {}, stats.NewLedger([]stats.TaskRecord{}), full, wide} {
		for _, x := range floats {
			r := soc.Result{
				EnergyJ:    x,
				EnergyByIP: map[string]float64{odd: x, "": -x, "b": x / 7},
				Ledger:     ledger,
				Duration:   math.MinInt64,
				StopReason: odd,
				Deltas:     math.MaxUint64,
				Cycles:     -x,
				LEMStats:   map[string]lem.Stats{odd: {OnDecisions: map[string]int{odd: 1, "a": -2}, SleepEntries: map[string]int{}}, "z": {}},
			}
			checkRoundTrip(t, "edge case", &r)
		}
	}
}

// TestDecodeBodyRefusesNonCanonical edits the canonical body into bytes
// appendBody never writes — many of which would otherwise decode, some to
// the very same Result — and requires the decoder to refuse each, as it
// refuses every proper prefix of the body.
func TestDecodeBodyRefusesNonCanonical(t *testing.T) {
	const zero = "0000000000000000"
	if _, err := decodeBody(editedBody(t, "", "")); err != nil {
		t.Fatalf("decoder refused the canonical body: %v", err)
	}
	for _, tc := range []struct{ name, field, with string }{
		{"trailing byte", "BusOccupancy", zero + "00"},
		{"overlong varint", "Duration", "8000"},
		{"overlong count", "EnergyByIP", "8200" + "03697030" + "0000000000000040"},
		{"overlong string length", "StopReason", "8000"},
		{"varint past 64 bits", "Deltas", "ffffffffffffffffff7f"},
		{"varint past 10 bytes", "Deltas", "ffffffffffffffffffff01"},
		{"keys unsorted", "EnergyByIP", "03" + "03697031" + zero + "03697030" + zero},
		{"key repeated", "EnergyByIP", "03" + "03697030" + zero + "03697030" + zero},
		{"map count past the bytes left", "EnergyByIP", uv(1 << 40)},
		{"string past the bytes left", "StopReason", uv(1 << 20)},
		{"NaN", "EnergyJ", "010000000000f87f"},
		{"infinity", "AvgTempC", "000000000000f0ff"},
		{"boolean 2", "Completed", "02"},
		{"ledger rows past the bytes left", "Ledger", uv(1<<40) + "02" + "03697030" + "026f6e" + "00020a0c1201"},
		{"ledger table past the bytes left", "Ledger", "02" + uv(1<<40) + "03697030" + "026f6e" + "00020a0c1201"},
		{"ledger table empty", "Ledger", "02" + "00" + "00020a0c1201"},
		{"ledger table unsorted", "Ledger", "02" + "02" + "026f6e" + "03697030" + "01020a0c1200"},
		{"ledger table repeated", "Ledger", "02" + "02" + "03697030" + "03697030" + "00020a0c1201"},
		{"ledger table string unused", "Ledger", "02" + "03" + "03697030" + "026f6e" + "017a" + "00020a0c1201"},
		{"ledger table larger than its rows need", "Ledger", "02" + "03" + "03697030" + "026f6e" + "027a7a" + "00020a0c1202"},
		{"ledger table index past its end", "Ledger", "02" + "02" + "03697030" + "026f6e" + "00020a0c1202"},
		{"ledger row truncated", "Ledger", "02" + "02" + "03697030" + "026f6e" + "00020a0c12"},
	} {
		body := editedBody(t, tc.field, tc.with)
		if r, err := decodeBody(body); err == nil {
			t.Errorf("%s: decoder accepted %x as %+v", tc.name, body, r)
		}
	}
	body := editedBody(t, "", "")
	for n := 0; n < len(body); n++ {
		if _, err := decodeBody(body[:n]); err == nil {
			t.Fatalf("decoder accepted the body's first %d of %d bytes", n, len(body))
		}
	}
}

// TestDecodeBodyRefusesCountsBeforeAllocating gives the decoder counts
// that the bytes after them cannot hold — a map, a ledger, its table, a
// string — and requires it to refuse each before allocating for it: a
// decode allocates the same few bytes whatever the count claims.
func TestDecodeBodyRefusesCountsBeforeAllocating(t *testing.T) {
	rows := "02" + "03697030" + "026f6e" + "00020a0c1201"
	for _, tc := range []struct{ name, field, with string }{
		{"map", "EnergyByIP", uv(1 << 24)},
		{"LEM map", "LEMStats", uv(1 << 24)},
		{"ledger", "Ledger", uv(1<<24) + rows},
		{"ledger just past its bytes", "Ledger", uv(100) + rows},
		{"ledger table", "Ledger", "02" + uv(1<<24) + "03697030" + "026f6e" + "00020a0c1201"},
		{"string", "StopReason", uv(1 << 24)},
	} {
		body := editedBody(t, tc.field, tc.with)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 100
		for i := 0; i < runs; i++ {
			if _, err := decodeBody(body); err == nil {
				t.Fatalf("%s: forged count accepted", tc.name)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 2048 {
			t.Errorf("%s: a refused decode allocated %d bytes", tc.name, per)
		}
	}
}

// TestDecodeBodyLedgerSizing checks the ledger's records sit in one slice
// of exactly the row count and share one copy of each table string.
func TestDecodeBodyLedgerSizing(t *testing.T) {
	l := &stats.Ledger{}
	for i := 0; i < 37; i++ {
		l.Add(stats.TaskRecord{IP: "ip0", TaskID: i, State: "on"})
	}
	body, err := appendBody(nil, &soc.Result{Ledger: l, EnergyByIP: map[string]float64{"ip0": 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := decodeBody(body)
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Ledger.Records()
	if len(recs) != 37 || cap(recs) != 37 {
		t.Fatalf("ledger len %d cap %d, want 37 and 37", len(recs), cap(recs))
	}
	for _, r := range recs[1:] {
		if unsafe.StringData(r.IP) != unsafe.StringData(recs[0].IP) || unsafe.StringData(r.State) != unsafe.StringData(recs[0].State) {
			t.Fatal("rows hold their own copies of a repeated IP or state")
		}
	}
	for k := range res.EnergyByIP {
		if unsafe.StringData(k) != unsafe.StringData(recs[0].IP) {
			t.Fatal("the ledger's IP and the energy map's key are separate copies")
		}
	}
}

// FuzzDecodeBody feeds arbitrary bytes to the body decoder. It must never
// panic, and a body it accepts must re-encode to exactly its bytes and
// decode again to an equal Result with the same digest.
func FuzzDecodeBody(f *testing.F) {
	f.Add(editedBody(f, "", ""))
	f.Add(editedBody(f, "Ledger", "01"))
	f.Add(editedBody(f, "StopReason", "0df09f9880e280a83c0affefbfbd"))
	f.Add(editedBody(f, "LEMStats", "01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeBody(data)
		if err != nil {
			return
		}
		again, err := appendBody(nil, r)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted body re-encodes differently (%v):\n got  %x\n want %x", err, again, data)
		}
		back, err := decodeBody(again)
		if err != nil || !reflect.DeepEqual(back, r) || ResultDigest(back) != ResultDigest(r) {
			t.Fatalf("re-encoded body decodes to another Result (%v)", err)
		}
	})
}

// putContainer PUTs a raw container of body, keyed key and claiming
// digest, and returns the response status.
func putContainer(t *testing.T, url, key, digest string, body []byte) int {
	t.Helper()
	rec := &Record{key: key, digest: digest, rawLen: len(body)}
	rec.setContainer(CodecRaw, body)
	return putBytes(t, url, key, digest, rec.container)
}

func putBytes(t *testing.T, url, key, digest string, data []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url+blobPathPrefix+key, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(digestHeader, digest)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestBlobPutDecodesCanonicalBodiesOnly PUTs containers whose checksums
// and digests are all correct: the body appendBody writes is accepted,
// and one with an overlong varint, which would decode to the same
// Result, is refused as not a record.
func TestBlobPutDecodesCanonicalBodiesOnly(t *testing.T) {
	blob := NewBlobServer(NewLRU(LRUOptions{}), BlobServerOptions{})
	ts := httptest.NewServer(blob)
	defer ts.Close()
	digest := ResultDigest(canonicalResult())
	if code := putContainer(t, ts.URL, fakeKey(1), digest, editedBody(t, "", "")); code != http.StatusNoContent {
		t.Fatalf("canonical body: status %d, want 204", code)
	}
	if code := putContainer(t, ts.URL, fakeKey(2), digest, editedBody(t, "Duration", "8000")); code != http.StatusUnprocessableEntity {
		t.Fatalf("overlong varint: status %d, want 422", code)
	}
	if st := blob.Stats(); st.Puts != 2 || st.PutRejects != 1 || st.Store.Entries != 1 {
		t.Fatalf("puts %d, rejects %d, stored %d; want 2, 1 and 1", st.Puts, st.PutRejects, st.Store.Entries)
	}
}

func mustV1Container(t *testing.T, key string, r *soc.Result) []byte {
	t.Helper()
	data, err := V1Container(key, r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBlobPutRefusesVersion1 PUTs a version 1 container, as a replica
// built before the binary body uploads it: its checksum and digest are
// correct, and it is refused with 422 and not stored.
func TestBlobPutRefusesVersion1(t *testing.T) {
	blob := NewBlobServer(NewLRU(LRUOptions{}), BlobServerOptions{})
	ts := httptest.NewServer(blob)
	defer ts.Close()
	res := canonicalResult()
	if code := putBytes(t, ts.URL, fakeKey(1), ResultDigest(res), mustV1Container(t, fakeKey(1), res)); code != http.StatusUnprocessableEntity {
		t.Fatalf("version 1 container: status %d, want 422", code)
	}
	if st := blob.Stats(); st.Puts != 1 || st.PutRejects != 1 || st.Store.Entries != 0 {
		t.Fatalf("puts %d, rejects %d, stored %d; want 1, 1 and 0", st.Puts, st.PutRejects, st.Store.Entries)
	}
}
