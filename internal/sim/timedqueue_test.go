package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestTimedQueueBoundedUnderChurn is the stale-entry-leak regression test:
// re-notifying one event N times (each notification superseding the last)
// must not leave N dead entries in the heap. The old container/heap kernel
// only dropped dead entries when they bubbled to the top, so the queue grew
// to N; with stale-counting compaction its length stays bounded by a small
// multiple of the compaction threshold regardless of N.
func TestTimedQueueBoundedUnderChurn(t *testing.T) {
	const n = 10_000
	k := NewKernel()
	e := k.NewEvent("churn")
	// Each notify is earlier than the last, so each supersedes and strands
	// one dead entry.
	for i := 0; i < n; i++ {
		e.Notify(Time(2*n-i) * Ns)
	}
	if got := k.timed.len(); got > 2*compactMin {
		t.Fatalf("timed queue holds %d entries after %d re-notifications, want <= %d", got, n, 2*compactMin)
	}
	// The one live notification must still fire, exactly once, at the
	// earliest (last-notified) time.
	fired := 0
	var at Time
	k.Method("m", func() { fired++; at = k.Now() }).Sensitive(e).DontInitialize()
	if err := k.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("event fired %d times, want 1", fired)
	}
	if want := Time(2*n-(n-1)) * Ns; at != want {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	if got := k.timed.len(); got != 0 {
		t.Fatalf("queue not drained: %d entries", got)
	}
}

// TestTimedQueueCancelChurnBounded: the same leak via Cancel instead of
// supersession.
func TestTimedQueueCancelChurnBounded(t *testing.T) {
	const n = 10_000
	k := NewKernel()
	e := k.NewEvent("c")
	for i := 0; i < n; i++ {
		e.Notify(Time(i+1) * Us)
		e.Cancel()
	}
	if got := k.timed.len(); got > 2*compactMin {
		t.Fatalf("timed queue holds %d entries after %d notify/cancel pairs, want <= %d", got, n, 2*compactMin)
	}
}

// TestTimedQueuePopOrder: pops come out ordered by (time, insertion
// sequence) — FIFO among equal times — and compaction must not disturb
// that order, since (at, seq) is a strict total order independent of the
// heap's internal layout.
func TestTimedQueuePopOrder(t *testing.T) {
	k := NewKernel()
	rng := rand.New(rand.NewSource(7))
	type sched struct {
		at  Time
		seq int // creation order = expected FIFO rank within equal times
		ev  *Event
	}
	var want []sched
	seqOf := map[*Event]int{}
	const n = 500
	for i := 0; i < n; i++ {
		// Few distinct times so equal-time FIFO ordering is exercised hard.
		at := Time(1+rng.Intn(8)) * Us
		e := k.NewEvent("e")
		e.Notify(at)
		want = append(want, sched{at: at, seq: i, ev: e})
		seqOf[e] = i
	}
	// Churn a disjoint set of events to force at least one compaction
	// while the n live entries are queued.
	c := k.NewEvent("churn")
	for i := 0; i < 4*n; i++ {
		c.Notify(Time(2*4*n-i) * Us)
	}
	c.Cancel()

	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	var got []*Event
	for {
		at, ok := k.timed.nextTime()
		if !ok {
			break
		}
		ent := k.timed.popTop()
		if ent.at != at {
			t.Fatalf("popped entry at %v after nextTime reported %v", ent.at, at)
		}
		ent.ev.pendingAt = pendingNone
		got = append(got, ent.ev)
	}
	if len(got) != n {
		t.Fatalf("popped %d live entries, want %d", len(got), n)
	}
	for i, s := range want {
		if got[i] != s.ev {
			t.Fatalf("pop %d: got event scheduled #%d, want #%d (at=%v)", i, seqOf[got[i]], s.seq, s.at)
		}
	}
}

// TestTimedQueueStaleCountExact: the stale counter must exactly track dead
// entries through every invalidation path (supersede, cancel, delta
// override), or compaction would trigger early/late.
func TestTimedQueueStaleCountExact(t *testing.T) {
	k := NewKernel()
	check := func(label string, wantStale int) {
		t.Helper()
		dead := 0
		for i := range k.timed.entries {
			if !k.timed.entries[i].live() {
				dead++
			}
		}
		if dead != k.timed.stale {
			t.Fatalf("%s: counter says %d stale, heap holds %d dead entries", label, k.timed.stale, dead)
		}
		if k.timed.stale != wantStale {
			t.Fatalf("%s: stale = %d, want %d", label, k.timed.stale, wantStale)
		}
	}

	a, b, c := k.NewEvent("a"), k.NewEvent("b"), k.NewEvent("c")
	a.Notify(10 * Us)
	b.Notify(10 * Us)
	c.Notify(10 * Us)
	check("after scheduling", 0)

	a.Notify(5 * Us) // supersede
	check("after supersede", 1)
	a.Notify(7 * Us) // later than pending: no-op
	check("after no-op notify", 1)

	b.Cancel()
	check("after cancel", 2)
	b.Cancel() // second cancel: nothing pending, no double count
	check("after double cancel", 2)

	c.NotifyDelta() // delta beats timed
	check("after delta override", 3)
}
