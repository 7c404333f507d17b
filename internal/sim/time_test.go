package sim

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0s"},
		{1, "1ps"},
		{-1, "-1ps"},
		{5 * Ns, "5ns"},
		{1500 * Ps, "1.5ns"},
		{2 * Us, "2us"},
		{3 * Ms, "3ms"},
		{1 * Sec, "1s"},
		{-5 * Ns, "-5ns"},
		// A fraction in every unit, trailing zeros trimmed.
		{1001 * Ps, "1.001ns"},
		{2500 * Ns, "2.5us"},
		{-2500 * Ns, "-2.5us"},
		{1250 * Us, "1.25ms"},
		{1500 * Ms, "1.5s"},
		{Sec + Ps, "1.000000000001s"},
		// Exact unit boundaries and one tick either side.
		{Ns - 1, "999ps"},
		{Ns, "1ns"},
		{Ns + 1, "1.001ns"},
		{Us - 1, "999.999ns"},
		{Us, "1us"},
		{Ms, "1ms"},
		{Sec - 1, "999.999999999ms"},
		{Sec, "1s"},
		{-Sec, "-1s"},
		{3600 * Sec, "3600s"},
		// The extremes: MaxTime is no whole number of any unit above ps;
		// MinInt64's magnitude does not fit in int64 but renders with one
		// sign like every other negative time.
		{MaxTime, "9.223372036854776e+06s"},
		{-MaxTime, "-9.223372036854776e+06s"},
		{math.MinInt64, "-9.223372036854776e+06s"},
		{9223372 * Sec, "9223372s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
		if got := string(c.t.Append([]byte("x="))); got != "x="+c.want {
			t.Errorf("Time(%d).Append = %q, want %q", int64(c.t), got, "x="+c.want)
		}
	}
}

// refTimeString is String as first written with fmt (its only defect:
// MinInt64 rendered with two minus signs). The appender must agree with
// it on every other value.
func refTimeString(t Time) string {
	if t == 0 {
		return "0s"
	}
	neg := ""
	if t < 0 {
		neg = "-"
		t = -t
	}
	units := []struct {
		div  Time
		name string
	}{{Sec, "s"}, {Ms, "ms"}, {Us, "us"}, {Ns, "ns"}, {Ps, "ps"}}
	for _, u := range units {
		if t >= u.div {
			if t%u.div == 0 {
				return fmt.Sprintf("%s%d%s", neg, t/u.div, u.name)
			}
			return fmt.Sprintf("%s%g%s", neg, float64(t)/float64(u.div), u.name)
		}
	}
	return fmt.Sprintf("%s%dps", neg, t)
}

func TestTimeStringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	units := []Time{Ps, Ns, Us, Ms, Sec}
	for i := 0; i < 200000; i++ {
		var v Time
		switch i % 5 {
		case 0:
			v = Time(rng.Uint64())
		case 1:
			v = units[rng.Intn(len(units))] * Time(rng.Int63n(1<<20)-1<<19)
		case 2:
			v = Time(rng.Int63n(1<<40) - 1<<39)
		case 3:
			// Fractional seconds with up to 16 significant digits, where
			// the exact decimal and the float64 quotient part ways.
			v = Time(rng.Int63n(1 << 53))
		default:
			// Around 2⁵³ ps, where float64 stops representing every value,
			// and around 10⁶ s, where 'g' switches to an exponent.
			centre := []Time{1 << 53, 1e6 * Sec}[rng.Intn(2)]
			v = centre + Time(rng.Int63n(1<<20)-1<<19)
		}
		if v == math.MinInt64 {
			continue
		}
		if got, want := v.String(), refTimeString(v); got != want {
			t.Fatalf("Time(%d).String() = %q, reference %q", int64(v), got, want)
		}
	}
}

// refTimeAppend is Append before fractions were rendered from integers:
// every fraction goes through strconv's shortest 'g' form of the float64
// quotient. Append must agree with it on every value.
func refTimeAppend(t Time, b []byte) []byte {
	if t == 0 {
		return append(b, "0s"...)
	}
	mag := uint64(t)
	if t < 0 {
		b = append(b, '-')
		mag = -mag
	}
	for _, u := range timeUnits {
		if mag < u.div {
			continue
		}
		if mag%u.div == 0 {
			b = strconv.AppendUint(b, mag/u.div, 10)
		} else {
			b = strconv.AppendFloat(b, float64(mag)/float64(u.div), 'g', -1, 64)
		}
		return append(b, u.name...)
	}
	b = strconv.AppendUint(b, mag, 10)
	return append(b, "ps"...)
}

// TestTimeAppendMatchesStrconv compares Append with the strconv reference
// on a million times: uniform over the whole int64 range, random
// magnitudes of every decade in every unit, and one picosecond either
// side of each edge of the integer path (10¹⁵ ps, a quotient of 10⁶ s,
// 2⁵³ ps and the unit boundaries), all with both signs.
func TestTimeAppendMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	edges := []Time{exactBelow, 1e6 * Sec, 1 << 53, Ns, Us, Ms, Sec, 1000 * Sec, MaxTime - 1}
	var got, want []byte
	check := func(v Time) {
		got, want = v.Append(got[:0]), refTimeAppend(v, want[:0])
		if !bytes.Equal(got, want) {
			t.Fatalf("Time(%d).Append = %q, strconv reference %q", int64(v), got, want)
		}
	}
	for _, e := range edges {
		for d := Time(-3); d <= 3; d++ {
			check(e + d)
			check(-(e + d))
		}
	}
	check(math.MinInt64)
	for i := 0; i < 1_000_000; i++ {
		var v Time
		switch i % 4 {
		case 0:
			v = Time(rng.Uint64())
		case 1:
			// A random magnitude below 10^k ps for every k, so each unit
			// and each digit count of the fraction is drawn often.
			v = Time(rng.Int63n(pow10[1+rng.Intn(18)]))
		case 2:
			e := edges[rng.Intn(len(edges))]
			v = e + Time(rng.Int63n(2001)-1000)
		default:
			// Few significant digits: a multiple of a power of ten.
			v = Time(rng.Int63n(1e6)) * Time(pow10[rng.Intn(13)])
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		check(v)
	}
}

var pow10 = func() (p [19]int64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * 10
	}
	return p
}()

// FuzzTimeAppend requires Append to equal the strconv reference on any
// int64.
func FuzzTimeAppend(f *testing.F) {
	for _, v := range []int64{0, 1, -1, 1500, 1e15 - 1, 1e15, 1e15 + 1, 1e18 + 1, math.MaxInt64, math.MinInt64} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v int64) {
		if got, want := Time(v).Append(nil), refTimeAppend(Time(v), nil); !bytes.Equal(got, want) {
			t.Fatalf("Time(%d).Append = %q, strconv reference %q", v, got, want)
		}
	})
}

func TestTimeStringAllocs(t *testing.T) {
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = (1500 * Ps).String() }); n > 1 {
		t.Errorf("String allocates %.0f times, want ≤ 1", n)
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = (1500 * Ps).Append(buf[:0]) }); n != 0 {
		t.Errorf("Append allocates %.0f times, want 0", n)
	}
	_ = sink
}

func TestTimeSecondsRoundTrip(t *testing.T) {
	f := func(ms uint16) bool {
		tm := Time(ms) * Ms
		return FromSeconds(tm.Seconds()) == tm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromSecondsSaturates(t *testing.T) {
	// The largest float64 below 2⁶³ ps, in seconds, and its neighbours:
	// the picosecond count crosses the int64 range between them.
	top := math.Nextafter(0x1p63, 0) / float64(Sec)
	for _, tc := range []struct {
		s    float64
		want Time
	}{
		{1e7, MaxTime}, // ~116 days: past the ~106-day range
		{-1e7, math.MinInt64},
		{math.Inf(1), MaxTime},
		{math.Inf(-1), math.MinInt64},
		{math.NaN(), 0},
		{math.MaxFloat64, MaxTime},
		{-math.MaxFloat64, math.MinInt64},
		{0x1p63 / float64(Sec), MaxTime},
		{-0x1p63 / float64(Sec), math.MinInt64},
		{0, 0},
		{1.5e-12, 2 * Ps},
		{2.5, 2500 * Ms},
	} {
		if got := FromSeconds(tc.s); got != tc.want {
			t.Errorf("FromSeconds(%g) = %d, want %d", tc.s, got, tc.want)
		}
	}

	// Across the exact boundary the result is monotone: never negative on
	// the way up, never positive on the way down, and it ends saturated.
	for _, dir := range []float64{1, -1} {
		s := dir * top
		for i := 0; i < 64; i++ {
			s = math.Nextafter(s, s*2)
		}
		lo := dir * top
		for i := 0; i < 64; i++ {
			lo = math.Nextafter(lo, 0)
		}
		prev := FromSeconds(lo)
		for x := lo; x != s; x = math.Nextafter(x, s) {
			got := FromSeconds(x)
			if (dir > 0 && (got < prev || got < 0)) || (dir < 0 && (got > prev || got > 0)) {
				t.Fatalf("FromSeconds(%v) = %d after %d: not monotone", x, got, prev)
			}
			prev = got
		}
		want := MaxTime
		if dir < 0 {
			want = math.MinInt64
		}
		if prev != want {
			t.Fatalf("FromSeconds one ulp short of %v = %d, want %d", s, prev, want)
		}
	}
}

func TestFromSecondsInRangeUnchanged(t *testing.T) {
	// Saturation must not move a single in-range bit: compare with the
	// unchecked formula over values spread across every magnitude from
	// sub-picosecond to the edge of the range.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200_000; i++ {
		s := rng.Float64() * math.Pow(10, float64(rng.Intn(20)-13))
		if rng.Intn(2) == 0 {
			s = -s
		}
		if math.Abs(s) >= 9.2e6 {
			continue
		}
		if got, want := FromSeconds(s), Time(s*float64(Sec)+0.5); got != want {
			t.Fatalf("FromSeconds(%v) = %d, unchecked formula gives %d", s, got, want)
		}
	}
}
