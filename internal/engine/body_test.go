package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"godpm/internal/lem"
	"godpm/internal/soc"
	"godpm/internal/stats"
)

// json.Marshal is the reference the record body appenders reproduce:
// every existing store holds bodies it wrote.

// checkBody requires appendResultJSON to write json.Marshal's bytes for
// r, or both to refuse it.
func checkBody(t testing.TB, name string, r *soc.Result) {
	t.Helper()
	got, gotErr := appendResultJSON([]byte("prefix"), r)
	want, wantErr := json.Marshal(r)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: appender error %v, json.Marshal error %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatalf("%s: appender overwrote the buffer's contents", name)
	}
	if got = got[len("prefix"):]; !bytes.Equal(got, want) {
		t.Fatalf("%s: bodies differ at byte %d:\n got  %q\n want %q", name, firstDiff(got, want), clip(got, want), clip(want, got))
	}
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
// floats, times and strings, nil and empty maps, nil ledgers) and requires
// the body appenders to match json.Marshal: on the raw value, where a
// non-finite float makes both refuse, and again with its floats made
// finite, so every iteration compares bytes.
func TestRecordBodyMatchesJSON(t *testing.T) {
	f := filler{rng: rand.New(rand.NewSource(3))}
	for i := 0; i < 3000; i++ {
		var res soc.Result
		f.fill(reflect.ValueOf(&res).Elem())
		checkBody(t, "raw result", &res)
		finiteFloats(reflect.ValueOf(&res).Elem())
		checkBody(t, "finite result", &res)
	}
}

// TestRecordBodyEdgeCases pins the cases the random fill reaches rarely:
// every ASCII byte and the separators JSON escapes in strings and map
// keys, the float format's cutoffs, and the three forms of an empty
// ledger.
func TestRecordBodyEdgeCases(t *testing.T) {
	var ascii strings.Builder
	for c := 0; c < 0x80; c++ {
		ascii.WriteByte(byte(c))
	}
	odd := ascii.String() + "\u2028\u2029\u00e9\xff\xc3\xe2\x80 \U0001F600"
	var decoded stats.Ledger // non-nil, zero-length records
	if err := json.Unmarshal([]byte(`[]`), &decoded); err != nil {
		t.Fatal(err)
	}
	full := &stats.Ledger{}
	full.Add(stats.TaskRecord{IP: odd, TaskID: -7, Request: -1, Start: math.MaxInt64, Done: math.MinInt64, State: odd})
	full.Add(stats.TaskRecord{})
	floats := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1.5e-300,
		math.SmallestNonzeroFloat64, 1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 123456789.125,
		math.MaxFloat64, 0.1, 1.0 / 3}
	for _, ledger := range []*stats.Ledger{nil, {}, &decoded, full} {
		for _, x := range floats {
			r := soc.Result{
				EnergyJ:    x,
				EnergyByIP: map[string]float64{odd: x, "": -x, "b": x / 7},
				Ledger:     ledger,
				StopReason: odd,
				Cycles:     -x,
				LEMStats:   map[string]lem.Stats{odd: {OnDecisions: map[string]int{odd: 1, "a": -2}, SleepEntries: map[string]int{}}, "z": {}},
			}
			checkBody(t, "edge case", &r)
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []soc.Result{{FinalSoC: x}, {EnergyByIP: map[string]float64{"a": 1, "b": x}}} {
			if _, err := appendResultJSON(nil, &r); err == nil {
				t.Errorf("appender accepted %v", x)
			}
			if _, err := NewRecord("k", &r); err == nil {
				t.Errorf("NewRecord accepted %v", x)
			}
		}
	}
}

// FuzzRecordBody decodes arbitrary bytes into a Result, ledger included,
// puts the fuzzed string in its strings (the JSON decoder only produces
// valid UTF-8) and the fuzzed bit patterns in its floats, and requires the
// appenders to equal json.Marshal or both to refuse.
func FuzzRecordBody(f *testing.F) {
	f.Add([]byte(`{"EnergyJ":1.5,"EnergyByIP":{"ip0":2},"Ledger":[{"IP":"ip0","TaskID":1,"Request":5,"Start":6,"Done":9,"State":"on"}],"LEMStats":{"ip0":{"OnDecisions":{"on":3},"SleepEntries":null,"ParkEvents":1,"ParkedTime":7}}}`),
		"<a&\u2028\xff", uint64(0x3eb0c6f7a0b5ed8d), uint64(0x7ff8000000000001), uint64(0x444b1ae4d6e2ef50), uint64(1))
	f.Add([]byte(`{"Ledger":[]}`), "", uint64(0), uint64(1<<63), uint64(0x7ff0000000000000), uint64(0x3ff0000000000000))
	f.Fuzz(func(t *testing.T, data []byte, s string, a, b, c, d uint64) {
		var r soc.Result
		if json.Unmarshal(data, &r) != nil {
			return
		}
		bits := [...]uint64{a, b, c, d}
		floats := []*float64{&r.EnergyJ, &r.BusEnergyJ, &r.AvgTempC, &r.PeakTempC, &r.AmbientC,
			&r.Cycles, &r.WallSeconds, &r.FinalSoC, &r.BusOccupancy}
		for i, p := range floats {
			*p = math.Float64frombits(bits[i%len(bits)] ^ uint64(i))
		}
		keys := sortedKeys(r.EnergyByIP)
		for i, k := range keys {
			r.EnergyByIP[k] = math.Float64frombits(bits[(i+1)%len(bits)])
		}
		r.StopReason = s
		if r.EnergyByIP != nil {
			r.EnergyByIP[s] = math.Float64frombits(d)
		}
		if r.Ledger != nil && r.Ledger.Len() > 0 {
			recs := slices.Clone(r.Ledger.Records())
			recs[0].IP, recs[len(recs)-1].State = s, s
			r.Ledger = &stats.Ledger{}
			for _, rec := range recs {
				r.Ledger.Add(rec)
			}
		}
		checkBody(t, "fuzzed result", &r)
	})
}
