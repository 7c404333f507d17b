package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"godpm/internal/lem"
	"godpm/internal/soc"
	"godpm/internal/stats"
)

// json.Unmarshal is the reference the record body decoder reproduces on
// the bodies it accepts.

// checkDecodeAgrees requires that when decodeResult accepts body,
// json.Unmarshal accepts it too, into a deeply equal Result with the same
// digest and the same canonical bytes. It reports whether the decoder
// accepted.
func checkDecodeAgrees(t testing.TB, name string, body []byte) bool {
	t.Helper()
	got, err := decodeResult(body)
	if err != nil {
		return false
	}
	var want soc.Result
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("%s: decoder accepted a body json.Unmarshal refuses (%v): %q", name, err, body)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("%s: decoded results differ:\n got  %+v\n want %+v\n body %q", name, got, &want, body)
	}
	if g, w := ResultDigest(got), ResultDigest(&want); g != w {
		t.Fatalf("%s: digest %s, json.Unmarshal's %s", name, g, w)
	}
	gotBody, gotErr := appendResultJSON(nil, got)
	wantBody, wantErr := appendResultJSON(nil, &want)
	if gotErr != nil || wantErr != nil || !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("%s: re-encoded bodies differ (%v, %v):\n got  %q\n want %q", name, gotErr, wantErr, gotBody, wantBody)
	}
	return true
}

// checkDecodesBody requires the decoder to accept the body the appenders
// write for r and to agree with json.Unmarshal on it.
func checkDecodesBody(t testing.TB, name string, r *soc.Result) {
	t.Helper()
	body, err := appendResultJSON(nil, r)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !checkDecodeAgrees(t, name, body) {
		_, err := decodeResult(body)
		t.Fatalf("%s: decoder refused an appender's body: %v\n body %q", name, err, body)
	}
}

// TestDecodeBodyMatchesJSON decodes the bodies of random Results (edge-case
// floats, times and strings, nil and empty maps, nil and empty ledgers)
// and requires json.Unmarshal's Result for each.
func TestDecodeBodyMatchesJSON(t *testing.T) {
	f := filler{rng: rand.New(rand.NewSource(5))}
	for i := 0; i < 3000; i++ {
		var res soc.Result
		f.fill(reflect.ValueOf(&res).Elem())
		finiteFloats(reflect.ValueOf(&res).Elem())
		checkDecodesBody(t, "random result", &res)
	}
}

// TestDecodeBodyEdgeCases pins what the random fill reaches rarely: every
// ASCII byte and the escaped separators in strings and keys, the float
// format's cutoffs, the extreme integers and the three forms of an empty
// ledger.
func TestDecodeBodyEdgeCases(t *testing.T) {
	var ascii strings.Builder
	for c := 0; c < 0x80; c++ {
		ascii.WriteByte(byte(c))
	}
	odd := ascii.String() + "\u2028\u2029\u00e9\xff\xc3\xe2\x80 \U0001F600"
	full := &stats.Ledger{}
	full.Add(stats.TaskRecord{IP: odd, TaskID: math.MinInt, Request: -1, Start: math.MaxInt64, Done: math.MinInt64, State: odd})
	full.Add(stats.TaskRecord{TaskID: math.MaxInt})
	full.Add(stats.TaskRecord{IP: "ip0", State: "on"})
	full.Add(stats.TaskRecord{IP: "ip0", State: "on"})
	floats := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1.5e-300,
		math.SmallestNonzeroFloat64, 1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 123456789.125,
		math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3}
	for _, ledger := range []*stats.Ledger{nil, {}, stats.NewLedger([]stats.TaskRecord{}), full} {
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
			checkDecodesBody(t, "edge case", &r)
		}
	}
}

// canonicalBody is a small body as the appenders write it.
const canonicalBody = `{"EnergyJ":1.5,"EnergyByIP":{"ip0":2,"ip1":3},"BusEnergyJ":0,"AvgTempC":0,"PeakTempC":0,"AmbientC":0,` +
	`"Ledger":[{"IP":"ip0","TaskID":1,"Request":5,"Start":6,"Done":9,"State":"on"}],"Duration":0,"Completed":true,` +
	`"TasksDone":0,"StopReason":"","Deltas":0,"Cycles":0,"WallSeconds":0,"FinalSoC":0,"FinalBatteryStatus":0,` +
	`"LEMStats":{"ip0":{"OnDecisions":{"on":3},"SleepEntries":null,"ParkEvents":1,"ParkedTime":7}},` +
	`"GEMEvaluations":0,"FanSwitches":0,"BusOccupancy":0}`

// TestDecodeBodyRefusesNonCanonical edits the canonical body into JSON
// laid out or spelled as the appenders never write it (most of which
// encoding/json still reads) or into bytes that are not JSON, and
// requires the decoder to refuse each edit.
func TestDecodeBodyRefusesNonCanonical(t *testing.T) {
	if !checkDecodeAgrees(t, "canonical", []byte(canonicalBody)) {
		t.Fatal("decoder refused the canonical body")
	}
	for _, tc := range []struct{ name, old, new string }{
		{"leading space", `{"EnergyJ"`, ` {"EnergyJ"`},
		{"trailing newline", `"BusOccupancy":0}`, "\"BusOccupancy\":0}\n"},
		{"space after colon", `"EnergyJ":1.5`, `"EnergyJ": 1.5`},
		{"fields reordered", `"BusEnergyJ":0,"AvgTempC":0`, `"AvgTempC":0,"BusEnergyJ":0`},
		{"field missing", `"FanSwitches":0,`, ``},
		{"field unknown", `"FanSwitches":0,`, `"FanSwitches":0,"Extra":1,`},
		{"field name case", `"FanSwitches"`, `"fanswitches"`},
		{"keys unsorted", `{"ip0":2,"ip1":3}`, `{"ip1":3,"ip0":2}`},
		{"key repeated", `{"ip0":2,"ip1":3}`, `{"ip0":2,"ip0":3}`},
		{"key repeated by escape", `{"ip0":2,"ip1":3}`, `{"ip0":2,"ip\u0030":3}`},
		{"integer with fraction digits", `"ParkEvents":1`, `"ParkEvents":1.0`},
		{"integer with exponent", `"ParkEvents":1`, `"ParkEvents":1e0`},
		{"integer with leading zero", `"ParkEvents":1`, `"ParkEvents":01`},
		{"float with plus sign", `"EnergyJ":1.5`, `"EnergyJ":+1.5`},
		{"float with bare point", `"EnergyJ":1.5`, `"EnergyJ":1.`},
		{"float out of range", `"EnergyJ":1.5`, `"EnergyJ":1e400`},
		{"string for number", `"EnergyJ":1.5`, `"EnergyJ":"1.5"`},
		{"negative unsigned", `"Deltas":0`, `"Deltas":-0`},
		{"unsigned overflow", `"Deltas":0`, `"Deltas":18446744073709551616`},
		{"int64 overflow", `"ParkedTime":7`, `"ParkedTime":9223372036854775808`},
		{"ledger object", `"Ledger":[{"IP"`, `"Ledger":{"x":[{"IP"`},
		{"ledger row field missing", `"Start":6,`, ``},
		{"ledger trailing comma", `"State":"on"}]`, `"State":"on"},]`},
		{"null result", canonicalBody, `null`},
		{"empty", canonicalBody, ``},
		{"truncated", `"BusOccupancy":0}`, `"BusOccupancy":0`},
		{"control byte in string", `"StopReason":""`, "\"StopReason\":\"a\x01\""},
		{"unknown escape", `"StopReason":""`, `"StopReason":"\x41"`},
		{"short unicode escape", `"StopReason":""`, `"StopReason":"\u004"`},
		{"escaped solidus", `"StopReason":""`, `"StopReason":"\/"`},
		{"escaped letter", `"StopReason":""`, `"StopReason":"\u0041"`},
		{"escaped non-ASCII", `"StopReason":""`, `"StopReason":"\u00e9"`},
		{"long escape for a short one", `"StopReason":""`, `"StopReason":"\u000a"`},
		{"upper-case hex escape", `"StopReason":""`, `"StopReason":"\u003C"`},
		{"surrogate pair", `"StopReason":""`, `"StopReason":"\ud83d\ude00"`},
		{"lone surrogate", `"StopReason":""`, `"StopReason":"\ud83d"`},
		{"raw invalid UTF-8", `"StopReason":""`, "\"StopReason\":\"a\xffb\""},
		{"raw HTML byte", `"StopReason":""`, `"StopReason":"<"`},
		{"raw line separator", `"StopReason":""`, "\"StopReason\":\"\u2028\""},
		{"key with non-canonical escape", `{"on":3}`, `{"o\u006e":3}`},
		{"key with raw invalid UTF-8", `{"on":3}`, "{\"o\xfe\":3}"},
	} {
		body := strings.Replace(canonicalBody, tc.old, tc.new, 1)
		if body == canonicalBody {
			t.Fatalf("%s: edit %q not found", tc.name, tc.old)
		}
		if checkDecodeAgrees(t, tc.name, []byte(body)) {
			t.Errorf("%s: decoder accepted %q", tc.name, body)
		}
	}
}

// TestDecodeBodyLedgerSizing checks the ledger's records sit in one slice
// of exactly the row count and share one copy of a repeated string, and
// that a body crafted to inflate the row count ahead of the parse reserves
// no more than its length allows.
func TestDecodeBodyLedgerSizing(t *testing.T) {
	l := &stats.Ledger{}
	for i := 0; i < 37; i++ {
		l.Add(stats.TaskRecord{IP: "ip0", TaskID: i, State: "on"})
	}
	body, err := appendResultJSON(nil, &soc.Result{Ledger: l})
	if err != nil {
		t.Fatal(err)
	}
	res, err := decodeResult(body)
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

	// A run of row openings with nothing else claims a row per six bytes;
	// the reservation stays within what rows of the shortest form could fill.
	crafted := []byte(strings.Repeat(ledgerRowStart, 1<<16))
	if n, limit := ledgerRows(crafted), len(crafted)/minLedgerRow+1; n > limit {
		t.Fatalf("crafted ledger reserves %d rows, more than its %d bytes hold (%d)", n, len(crafted), limit)
	}
	if n := ledgerRows(body); n != 37 {
		t.Fatalf("canonical ledger counted %d rows, want 37", n)
	}
}

// FuzzDecodeBody holds the decoder to json.Unmarshal on arbitrary bytes:
// it never panics; whatever it accepts, json.Unmarshal accepts into an
// equal Result; and when json.Unmarshal reads the bytes, the body the
// appenders write for that Result decodes to it.
func FuzzDecodeBody(f *testing.F) {
	f.Add([]byte(canonicalBody))
	f.Add([]byte(strings.Replace(canonicalBody, `"Ledger":[{"IP":"ip0","TaskID":1,"Request":5,"Start":6,"Done":9,"State":"on"}]`, `"Ledger":[]`, 1)))
	f.Add([]byte(strings.Replace(canonicalBody, `"StopReason":""`, `"StopReason":"😀\u2028\u003c\n�\ufffd"`, 1)))
	f.Add([]byte(`{"EnergyJ":1e-7,"Ledger":null,"LEMStats":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAgrees(t, "fuzzed body", data)
		var r soc.Result
		if json.Unmarshal(data, &r) != nil {
			return
		}
		checkDecodesBody(t, "re-encoded fuzzed body", &r)
	})
}

// TestBlobPutDecodesCanonicalBodiesOnly PUTs containers whose checksums
// and digests are all correct: a body json.Marshal wrote, as builds
// before the appenders stored, is accepted, and an indented body that
// encoding/json reads to the same Result is refused as not a record.
func TestBlobPutDecodesCanonicalBodiesOnly(t *testing.T) {
	blob := NewBlobServer(NewLRU(LRUOptions{}), BlobServerOptions{})
	ts := httptest.NewServer(blob)
	defer ts.Close()
	res := richResult()
	res.WallSeconds = 0
	res.Ledger = &stats.Ledger{}
	res.Ledger.Add(stats.TaskRecord{IP: "cpu", TaskID: 1, Request: 2, Start: 3, Done: 4, State: "on"})
	put := func(key string, body []byte) int {
		t.Helper()
		rec := &Record{key: key, digest: ResultDigest(res), rawLen: len(body), raw: body}
		data, err := rec.Encode(CodecFlate)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPut, ts.URL+blobPathPrefix+key, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(digestHeader, rec.Digest())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	marshalled, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if code := put(fakeKey(1), marshalled); code != http.StatusNoContent {
		t.Fatalf("json.Marshal body: status %d, want 204", code)
	}
	indented, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	var back soc.Result
	if err := json.Unmarshal(indented, &back); err != nil || ResultDigest(&back) != ResultDigest(res) {
		t.Fatalf("indented body does not read back to the result (%v)", err)
	}
	if code := put(fakeKey(2), indented); code != http.StatusUnprocessableEntity {
		t.Fatalf("indented body: status %d, want 422", code)
	}
	if st := blob.Stats(); st.Puts != 2 || st.PutRejects != 1 || st.Store.Entries != 1 {
		t.Fatalf("puts %d, rejects %d, stored %d; want 2, 1 and 1", st.Puts, st.PutRejects, st.Store.Entries)
	}
}
