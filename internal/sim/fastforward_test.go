package sim

import "testing"

// The idle fast-forward (GapPeriodic) is a scheduling shortcut, not a new
// semantics: while the periodic subscriber's tick is the only live timed
// notification, the kernel hands the whole idle stretch to its catch-up
// body in one call instead of round-tripping the heap per instant. These
// tests pin the contract at kernel level: the trajectory is bit-identical
// to a ticked run, and the skip path itself never allocates.

// gapModel is a sampler plus a bursty disturber, small enough to run twice
// (ticked and fast-forwarded) and compare trajectories exactly.
type gapModel struct {
	k    *Kernel
	tick *Event

	// Sampler trajectory: loadSum and tSum checksum the value and the
	// instant of every sample, count the number of samples.
	loadSum int64
	tSum    int64
	count   int64

	// The disturber toggles load at irregular instants, creating both
	// quiescent gaps (fast-forwardable) and shared instants (not).
	load  *Signal[int64]
	burst int

	// The sampler flips mark every markEvery samples, waking the watcher:
	// a gap call must end right after the sample that wrote it.
	mark    *Signal[bool]
	watched int64 // checksum of the instants the watcher ran at
}

// burstDelays are the disturber's re-notification intervals: long gaps the
// sampler alone owns, one interval that is an exact multiple of the tick
// (the disturber then lands ON a sample instant — the tie case), and one
// short interval below the tick period.
var burstDelays = []Time{1730 * Ns, 500 * Ns, 4000 * Ns, 7 * Ns, 2641 * Ns, 990 * Ns}

const (
	gapTick   = 10 * Ns
	markEvery = 37
)

// newGapModel wires the model; fastForward opts the sampler into
// GapPeriodic, with each call taking at most maxRun instants (0: no cap).
// The method body and the catch-up body share sampleAt — the catch-up body
// is the method minus the self re-notification, exactly the GapPeriodic
// contract.
func newGapModel(fastForward bool, maxRun int) *gapModel {
	m := &gapModel{k: NewKernel()}
	m.tick = m.k.NewEvent("tick")
	m.load = NewSignal[int64](m.k, "load", 0)
	m.mark = NewSignal(m.k, "mark", false)
	m.k.Method("sampler", func() {
		m.sampleAt(m.k.Now())
		m.tick.Notify(gapTick)
	}).Sensitive(m.tick).DontInitialize()
	if fastForward {
		m.k.GapPeriodic(m.tick, gapTick, func(first Time, n int) int {
			if maxRun > 0 && n > maxRun {
				n = maxRun
			}
			ran := 0
			for t := first; ran < n; t += gapTick {
				m.sampleAt(t)
				ran++
				if !m.k.Quiet() {
					break
				}
			}
			return ran
		})
	}
	m.tick.Notify(gapTick)

	burstEv := m.k.NewEvent("burst")
	m.k.Method("disturber", func() {
		m.load.Write(m.load.Read() + 1)
		burstEv.Notify(burstDelays[m.burst%len(burstDelays)])
		m.burst++
	}).Sensitive(burstEv).DontInitialize()
	burstEv.Notify(burstDelays[0])

	m.k.Method("watcher", func() {
		m.watched += int64(m.k.Now())
	}).Sensitive(m.mark.Changed()).DontInitialize()
	return m
}

func (m *gapModel) sampleAt(t Time) {
	m.loadSum += m.load.Read()
	m.tSum += int64(t)
	m.count++
	if m.count%markEvery == 0 {
		m.mark.Write(!m.mark.Read())
	}
}

// TestGapFastForwardBitIdentical runs the model ticked and fast-forwarded
// to the same horizon and asserts the full trajectory checksum matches:
// same samples at the same instants reading the same values, same
// watcher wake-ups, same delta-cycle count (the scheduling checksum), same
// final time. Only the fast-forwarded kernel may report skipped instants.
// Fast-forward runs once with unbounded calls and once with calls capped
// at a few instants, so calls that end early without any event are
// covered too.
func TestGapFastForwardBitIdentical(t *testing.T) {
	const until = 200 * Us // ~20k samples, ~60 bursts
	for _, maxRun := range []int{0, 5} {
		ticked, fast := newGapModel(false, 0), newGapModel(true, maxRun)
		if err := ticked.k.Run(until); err != nil {
			t.Fatal(err)
		}
		if err := fast.k.Run(until); err != nil {
			t.Fatal(err)
		}
		same := func() bool {
			return ticked.count == fast.count && ticked.loadSum == fast.loadSum &&
				ticked.tSum == fast.tSum && ticked.watched == fast.watched &&
				ticked.k.DeltaCount() == fast.k.DeltaCount() && ticked.k.Now() == fast.k.Now()
		}
		if !same() {
			t.Errorf("maxRun %d: trajectories diverge:\n  ticked count=%d loadSum=%d tSum=%d watched=%d deltas=%d now=%s\n  fast   count=%d loadSum=%d tSum=%d watched=%d deltas=%d now=%s",
				maxRun, ticked.count, ticked.loadSum, ticked.tSum, ticked.watched, ticked.k.DeltaCount(), ticked.k.Now(),
				fast.count, fast.loadSum, fast.tSum, fast.watched, fast.k.DeltaCount(), fast.k.Now())
		}
		if ticked.watched == 0 {
			t.Error("the watcher never ran: the mark path is untested")
		}
		if got := ticked.k.FastForwardedInstants(); got != 0 {
			t.Errorf("ticked kernel fast-forwarded %d instants, want 0", got)
		}
		if fast.k.FastForwardedInstants() == 0 {
			t.Errorf("maxRun %d: fast kernel never fast-forwarded despite idle gaps", maxRun)
		}
		// Continuing past the horizon must stay aligned too: the fast
		// kernel's re-notification state after a gap matches a ticked
		// run's heap.
		if err := ticked.k.Run(until + 50*Us); err != nil {
			t.Fatal(err)
		}
		if err := fast.k.Run(until + 50*Us); err != nil {
			t.Fatal(err)
		}
		if !same() {
			t.Errorf("maxRun %d: trajectories diverge after resume: ticked count=%d tSum=%d deltas=%d, fast count=%d tSum=%d deltas=%d",
				maxRun, ticked.count, ticked.tSum, ticked.k.DeltaCount(), fast.count, fast.tSum, fast.k.DeltaCount())
		}
	}
}

// TestGapFastForwardAllocFree pins the skip path at zero allocations: a
// kernel whose only activity is the gap subscriber must cross arbitrarily
// long idle stretches without touching the heap.
func TestGapFastForwardAllocFree(t *testing.T) {
	k := NewKernel()
	tick := k.NewEvent("tick")
	steady := NewSignal[int](k, "steady", 1)
	count := 0
	body := func(first Time, n int) int {
		for i := 0; i < n; i++ {
			count++
			steady.Write(1) // unchanged re-write: must not schedule an update
		}
		return n
	}
	k.Method("sampler", func() {
		body(k.Now(), 1)
		tick.Notify(gapTick)
	}).Sensitive(tick).DontInitialize()
	k.GapPeriodic(tick, gapTick, body)
	tick.Notify(gapTick)

	before := k.FastForwardedInstants()
	measure(t, "gap fast-forward", func() {
		if err := k.Run(k.Now() + 1000*gapTick); err != nil {
			t.Fatal(err)
		}
	})
	if count == 0 {
		t.Fatal("sampler never ran")
	}
	if k.FastForwardedInstants() <= before {
		t.Fatalf("no instants were fast-forwarded (got %d)", k.FastForwardedInstants())
	}
}

// TestGapPeriodicValidation pins the registration guards.
func TestGapPeriodicValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	k := NewKernel()
	ev := k.NewEvent("tick")
	body := func(Time, int) int { return 1 }
	mustPanic("nil event", func() { k.GapPeriodic(nil, gapTick, body) })
	mustPanic("zero interval", func() { k.GapPeriodic(ev, 0, body) })
	mustPanic("nil body", func() { k.GapPeriodic(ev, gapTick, nil) })
	k.GapPeriodic(ev, gapTick, body)
	mustPanic("double registration", func() { k.GapPeriodic(ev, gapTick, body) })
}
