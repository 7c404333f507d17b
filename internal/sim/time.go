// Package sim implements a discrete-event simulation kernel modelled on the
// SystemC 2.0 scheduler: simulated time with delta cycles, events with
// earliest-wins timed notification, method processes with static
// sensitivity and one-shot dynamic waits (next_trigger), and typed signals
// with evaluate/update semantics.
//
// The kernel is single-threaded and deterministic: a process runs to
// completion on every activation, and within one evaluation phase the
// runnable processes execute in the order they became runnable. A process
// that has to wait — for an event or for simulated time — arms its next
// activation and returns, so model code that blocks in SystemC's SC_THREAD
// style is written as a state machine.
package sim

import (
	"math"
	"strconv"
)

// Time is a point in simulated time, measured in picoseconds.
//
// The zero Time is the simulation epoch. Negative values are only used as
// sentinels inside the kernel and are never observable via Kernel.Now.
type Time int64

// Time unit constants. A duration passed to Event.Notify or
// Proc.NextTriggerAfter is simply a Time interpreted as a span.
const (
	Ps  Time = 1
	Ns  Time = 1000 * Ps
	Us  Time = 1000 * Ns
	Ms  Time = 1000 * Us
	Sec Time = 1000 * Ms
)

// MaxTime is the largest representable simulation time; Run(MaxTime) runs
// until the event queue drains.
const MaxTime Time = 1<<63 - 1

// timeUnits are the units String renders with, largest first, with the
// number of decimal digits in each divisor; anything finer than a
// nanosecond renders in whole picoseconds.
var timeUnits = [...]struct {
	div    uint64
	digits int
	name   string
}{{uint64(Sec), 12, "s"}, {uint64(Ms), 9, "ms"}, {uint64(Us), 6, "us"}, {uint64(Ns), 3, "ns"}}

// exactBelow bounds the magnitudes whose fractions Append renders from
// integers; see Append for why the bytes equal strconv's.
const exactBelow = 1e15

// String renders the time with the largest unit that divides it cleanly,
// e.g. "150ns", "2.5us", "0s".
func (t Time) String() string {
	var buf [32]byte
	return string(t.Append(buf[:0]))
}

// Append appends String's rendering of t to b without allocating beyond
// b's growth. A value that no unit divides is rendered in the largest
// unit it reaches, as the shortest decimal that parses back to the
// float64 quotient (strconv's 'g' format).
//
// Below 10¹⁵ ps that decimal is written from integer arithmetic, with
// the same bytes. The magnitude and the divisor are both below 2⁵³, so
// both convert to float64 exactly, and IEEE division rounds the exact
// quotient d = mag/div correctly. d has at most 15 significant digits,
// and distinct decimals of 15 or fewer significant digits convert to
// distinct float64s (DBL_DIG is 15). The shortest decimal that parses
// back to the quotient has no more digits than d and parses to the same
// float64, so it is d. 'g' switches to an exponent only for a shortest
// form at 10⁶ or above, and a magnitude below 10¹⁵ keeps the quotient
// below 10³ in every unit, so d prints plainly: the integer part, a point
// and the remainder zero-padded to the divisor's digits, trailing zeros
// trimmed. Larger magnitudes keep strconv's float path.
func (t Time) Append(b []byte) []byte {
	if t == 0 {
		return append(b, "0s"...)
	}
	// The magnitude as uint64 is exact for every int64, MinInt64 included.
	mag := uint64(t)
	if t < 0 {
		b = append(b, '-')
		mag = -mag
	}
	for i := range timeUnits {
		u := &timeUnits[i] // not a copy of the table: Append is on every key's path
		if mag < u.div {
			continue
		}
		switch rem := mag % u.div; {
		case rem == 0:
			b = strconv.AppendUint(b, mag/u.div, 10)
		case mag < exactBelow:
			b = appendFraction(strconv.AppendUint(b, mag/u.div, 10), rem, u.digits)
		default:
			b = strconv.AppendFloat(b, float64(mag)/float64(u.div), 'g', -1, 64)
		}
		return append(b, u.name...)
	}
	b = strconv.AppendUint(b, mag, 10)
	return append(b, "ps"...)
}

// appendFraction appends "." and the nonzero remainder rem, zero-padded
// to digits places, without its trailing zeros.
func appendFraction(b []byte, rem uint64, digits int) []byte {
	for rem%10 == 0 {
		rem /= 10
		digits--
	}
	var d [12]byte
	for i := digits - 1; i >= 0; i-- {
		d[i] = byte('0' + rem%10)
		rem /= 10
	}
	return append(append(b, '.'), d[:digits]...)
}

// Seconds converts the time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Sec) }

// FromSeconds converts floating-point seconds to a Time, rounding to the
// nearest picosecond. Out-of-range input saturates the same way on every
// architecture (Go leaves an overflowing float→int conversion to the
// hardware: amd64 turns all of them into math.MinInt64): a value whose
// picosecond count reaches 2⁶³ gives MaxTime, one below −2⁶³ gives
// math.MinInt64, and NaN gives 0. In-range values convert exactly as
// Time(s*1e12 + 0.5).
func FromSeconds(s float64) Time {
	x := s*float64(Sec) + 0.5
	switch {
	case x >= 0x1p63:
		return MaxTime
	case x < -0x1p63:
		return math.MinInt64
	case x != x: // NaN
		return 0
	}
	return Time(x)
}
