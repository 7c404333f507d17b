package engine

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"godpm/internal/acpi"
	"godpm/internal/lem"
	"godpm/internal/power"
	"godpm/internal/rules"
	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/stats"
)

// filler sets every exported field reachable from a value to random data
// by reflection, so a field added to any rendered struct is exercised
// without this test knowing about it. Values are drawn from pools of edge
// cases: NaN, ±Inf, -0 and subnormal floats; sim.Times at ±2⁶³ and at
// unit boundaries; out-of-range enum values; strings holding the
// encodings' own separators, characters JSON escapes and invalid UTF-8.
type filler struct{ rng *rand.Rand }

var (
	timeType    = reflect.TypeOf(sim.Time(0))
	tableType   = reflect.TypeOf((*rules.Table)(nil))
	ledgerType  = reflect.TypeOf((*stats.Ledger)(nil))
	profileType = reflect.TypeOf((*power.Profile)(nil))
)

func (f filler) fill(v reflect.Value) {
	switch v.Type() {
	case timeType:
		v.SetInt(int64(f.time()))
		return
	case tableType:
		var rs []rules.Rule
		f.fill(reflect.ValueOf(&rs).Elem())
		t := rules.NewTable(rs)
		if f.rng.Intn(2) == 0 {
			t.WithDefault(acpi.State(f.smallInt()))
		}
		v.Set(reflect.ValueOf(t))
		return
	case ledgerType:
		if f.rng.Intn(4) == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		var recs []stats.TaskRecord
		f.fill(reflect.ValueOf(&recs).Elem())
		l := &stats.Ledger{}
		for _, r := range recs {
			l.Add(r)
		}
		v.Set(reflect.ValueOf(l))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(f.rng.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if f.rng.Intn(2) == 0 {
			v.SetInt(f.smallInt())
		} else {
			v.SetInt(int64(f.rng.Uint64()) >> (64 - v.Type().Bits()))
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(f.rng.Uint64() >> (64 - v.Type().Bits()))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(f.float())
	case reflect.String:
		v.SetString(f.string())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Slice:
		n := f.rng.Intn(4)
		if n == 0 && f.rng.Intn(2) == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for n := f.rng.Intn(4); n > 0; n-- {
			k := reflect.New(v.Type().Key()).Elem()
			e := reflect.New(v.Type().Elem()).Elem()
			f.fill(k)
			f.fill(e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Pointer:
		if v.Type() != profileType && f.rng.Intn(4) == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		p := reflect.New(v.Type().Elem())
		f.fill(p.Elem())
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	default:
		panic("filler: unsupported kind " + v.Kind().String() + " in " + v.Type().String())
	}
}

func (f filler) smallInt() int64 { return int64(f.rng.Intn(16) - 3) }

func (f filler) float() float64 {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1e21, 1e-7, 0.1, 2.5e-5, 120, -45}
	if f.rng.Intn(3) == 0 {
		return specials[f.rng.Intn(len(specials))]
	}
	return math.Float64frombits(f.rng.Uint64())
}

func (f filler) time() sim.Time {
	units := []sim.Time{sim.Ps, sim.Ns, sim.Us, sim.Ms, sim.Sec}
	u := units[f.rng.Intn(len(units))]
	switch f.rng.Intn(6) {
	case 0:
		return []sim.Time{0, 1, -1, sim.MaxTime, math.MinInt64, math.MinInt64 + 1, sim.MaxTime - 1}[f.rng.Intn(7)]
	case 1:
		return u * sim.Time(f.rng.Intn(2000)-1000)
	case 2:
		return u*sim.Time(f.rng.Intn(2000)-1000) + sim.Time(f.rng.Intn(3)-1)
	case 3:
		return u/2 + u*sim.Time(f.rng.Intn(100))
	default:
		return sim.Time(f.rng.Uint64())
	}
}

func (f filler) string() string {
	alphabet := []string{"a", "Z", "0", "|", "=", "{", "}", " ", ":", "[", "]", "\n", "é", "\xff", "%v",
		"\"", "\\", "<", "&", "\x00", "\t", "\u2028"}
	n := f.rng.Intn(6)
	var b []byte
	for i := 0; i < n; i++ {
		b = append(b, alphabet[f.rng.Intn(len(alphabet))]...)
	}
	return string(b)
}

// TestCanonicalEncodingMatchesReference fills Config and Result with random
// values and requires the appenders to emit exactly the reference's bytes.
func TestCanonicalEncodingMatchesReference(t *testing.T) {
	f := filler{rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 3000; i++ {
		var cfg soc.Config
		f.fill(reflect.ValueOf(&cfg).Elem())
		got, hz := appendConfig(nil, &cfg)
		want := refConfigBytes(&cfg)
		if !bytes.Equal(got, want) {
			t.Fatalf("config %d: encodings differ at byte %d:\n got  %q\n want %q", i, firstDiff(got, want), clip(got, want), clip(want, got))
		}
		wantHz := refHorizonField(&cfg)
		if h := got[hz.start:hz.end]; string(h) != wantHz {
			t.Fatalf("config %d: horizon span %q, want %q", i, h, wantHz)
		}

		var res soc.Result
		f.fill(reflect.ValueOf(&res).Elem())
		gotR := appendResult([]byte(resultVersion), &res)
		wantR := refResultBytes(&res)
		if !bytes.Equal(gotR, wantR) {
			t.Fatalf("result %d: encodings differ at byte %d:\n got  %q\n want %q", i, firstDiff(gotR, wantR), clip(gotR, wantR), clip(wantR, gotR))
		}
	}
}

// refHorizonField renders the horizon field the way the reference does.
func refHorizonField(c *soc.Config) string {
	var buf bytes.Buffer
	refField(&buf, "horizon", c.Horizon)
	return buf.String()
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// clip shows the neighbourhood of the first difference.
func clip(a, b []byte) []byte {
	i := firstDiff(a, b)
	lo, hi := max(0, i-60), min(len(a), i+60)
	return a[lo:hi]
}

// TestEncodedFieldsCovered pins the fields the encoder labels one by one
// (the structs it does not render whole). A new field fails here until it
// is encoded — with a fingerprintVersion bump — or listed as excluded.
func TestEncodedFieldsCovered(t *testing.T) {
	cases := []struct {
		typ      reflect.Type
		encoded  []string
		excluded []string // fields that deliberately do not reach the hash
	}{
		{reflect.TypeOf(soc.Config{}), []string{"IPs", "Policy", "LEM", "UseGEM", "GEM", "Battery", "Thermal",
			"InitialTempC", "PerIPThermal", "ThermalNetwork", "Regulator", "Bus", "BusWords", "Timeout",
			"TimeoutSleepState", "GreedySleepState", "SampleInterval", "Horizon", "BaseClockHz"}, nil},
		{reflect.TypeOf(soc.IPSpec{}), []string{"Name", "Profile", "Sequence", "Arrivals", "Gen",
			"StaticPriority", "InitialState"}, nil},
		{reflect.TypeOf(soc.LEMOptions{}), []string{"Table", "Predictor", "Alpha", "DisableBreakEven", "AllowSoftOff"}, nil},
		{reflect.TypeOf(soc.Result{}), []string{"EnergyJ", "EnergyByIP", "BusEnergyJ", "AvgTempC", "PeakTempC",
			"AmbientC", "Ledger", "Duration", "Completed", "TasksDone", "StopReason", "Deltas", "Cycles",
			"FinalSoC", "FinalBatteryStatus", "LEMStats", "GEMEvaluations", "FanSwitches", "BusOccupancy"},
			[]string{"WallSeconds"}},
		{reflect.TypeOf(lem.Stats{}), []string{"OnDecisions", "SleepEntries", "ParkEvents", "ParkedTime"}, nil},
	}
	for _, c := range cases {
		var fields []string
		for i := 0; i < c.typ.NumField(); i++ {
			fields = append(fields, c.typ.Field(i).Name)
		}
		want := append(slices.Clone(c.encoded), c.excluded...)
		slices.Sort(fields)
		slices.Sort(want)
		if !slices.Equal(fields, want) {
			t.Errorf("%s has fields %v; the canonical encoding accounts for %v", c.typ, fields, want)
		}
	}
}
