package sim

// timedEntry is one scheduled notification in the timed queue. An entry is
// live iff its event still agrees with it: the event's pendingGen matches
// the generation the entry was pushed under and its pendingAt still names
// the entry's time. Everything else is a dead remnant of a cancelled or
// superseded notification.
type timedEntry struct {
	at  Time
	seq uint64 // FIFO tiebreak for equal times
	gen uint64 // matches Event.pendingGen or the entry is dead
	ev  *Event
}

// live reports whether the entry is its event's current notification.
func (e *timedEntry) live() bool {
	return e.ev.pendingGen == e.gen && e.ev.pendingAt == e.at
}

// timedQueue is a binary min-heap of timed notifications ordered by
// (time, insertion sequence), stored as a value slice with hand-inlined
// sift operations: no container/heap, no interface boxing, no per-push
// allocation beyond amortised slice growth. Since (at, seq) is a strict
// total order, pop order is independent of the heap's internal layout —
// which is what lets compaction rebuild the heap freely.
//
// Dead entries are removed lazily on two paths: nextTime prunes them off
// the top as they surface, and noteStale — called by the kernel each time
// a live notification is cancelled or superseded — compacts the whole
// queue once dead entries outnumber live ones, so churn-heavy models
// (periodic re-notification, timeouts that rarely expire) keep the queue
// proportional to the number of pending notifications rather than the
// number of notify calls.
type timedQueue struct {
	entries []timedEntry
	seq     uint64
	stale   int // dead entries still in the heap
}

// compactMin is the queue size below which compaction is not worth the
// O(n) filter+heapify; dead tops are cheap to prune at this scale.
const compactMin = 64

func (q *timedQueue) less(i, j int) bool {
	a, b := &q.entries[i], &q.entries[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push schedules ev at time at under generation gen.
func (q *timedQueue) push(at Time, gen uint64, ev *Event) {
	q.seq++
	q.entries = append(q.entries, timedEntry{at: at, seq: q.seq, gen: gen, ev: ev})
	q.siftUp(len(q.entries) - 1)
}

func (q *timedQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.entries[i], q.entries[parent] = q.entries[parent], q.entries[i]
		i = parent
	}
}

func (q *timedQueue) siftDown(i int) {
	n := len(q.entries)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && q.less(r, l) {
			least = r
		}
		if !q.less(least, i) {
			break
		}
		q.entries[i], q.entries[least] = q.entries[least], q.entries[i]
		i = least
	}
}

// popTop removes and returns the root entry. The caller must know the root
// exists — and, on the kernel's merged peek/pop path, that it is live:
// nextTime has already pruned dead tops, so no re-validation happens here.
func (q *timedQueue) popTop() timedEntry {
	top := q.entries[0]
	n := len(q.entries) - 1
	q.entries[0] = q.entries[n]
	q.entries[n] = timedEntry{} // drop the *Event reference
	q.entries = q.entries[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

// seqCount returns the number of pushes so far. The gap fast-forward
// snapshots it to detect whether a catch-up body scheduled a timed
// notification (nothing else moves the counter).
func (q *timedQueue) seqCount() uint64 { return q.seq }

// nextTime prunes dead entries off the top and returns the time of the
// earliest live notification. After it returns ok==true the root is live,
// so the kernel pops it with popTop without validating it a second time.
func (q *timedQueue) nextTime() (Time, bool) {
	for len(q.entries) > 0 {
		top := &q.entries[0]
		if top.live() {
			return top.at, true
		}
		q.popTop()
		q.stale--
	}
	return 0, false
}

// noteStale records that one previously-live entry just died (its
// notification was cancelled, superseded or fired out of band) and
// compacts once dead entries outnumber live ones. Callers must update the
// event's pendingGen/pendingAt to their new values *before* calling, so
// the compaction filter sees the entry as dead.
func (q *timedQueue) noteStale() {
	q.stale++
	if n := len(q.entries); n >= compactMin && q.stale > n/2 {
		q.compact()
	}
}

// compact filters dead entries in place and re-establishes the heap
// invariant bottom-up, O(n) total.
func (q *timedQueue) compact() {
	live := q.entries[:0]
	for i := range q.entries {
		if q.entries[i].live() {
			live = append(live, q.entries[i])
		}
	}
	for i := len(live); i < len(q.entries); i++ {
		q.entries[i] = timedEntry{} // release dropped *Event references
	}
	q.entries = live
	q.stale = 0
	for i := len(q.entries)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
}
