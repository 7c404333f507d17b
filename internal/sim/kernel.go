package sim

import (
	"errors"
	"fmt"
)

// Kernel owns simulated time, the event queues and every process of one
// simulation; its events and signals hold a pointer to it, and it keeps no
// list of them. It is not safe for concurrent use: all model code runs
// inside Run, on the calling goroutine, and a later Run may come from
// another goroutine.
//
// The scheduling hot path is allocation-free in steady state: the timed
// queue is a concrete value-slice heap (timedQueue), and the runnable,
// delta and update queues each ping-pong between two retained buffers
// instead of re-allocating every cycle, so per-event and per-delta cost is
// pure pointer work once the buffers have grown to the model's working set.
type Kernel struct {
	now Time

	timed timedQueue // future timed notifications

	// Phase queues with their retained spares. Each phase swaps the active
	// queue for the (emptied) spare before draining, so appends made while
	// draining land in the other buffer and neither is ever re-allocated.
	deltaQueue []*Event // events notified for the next delta cycle
	deltaSpare []*Event
	runnable   []*process
	runSpare   []*process
	updates    []updater // signals with a pending update this delta
	updSpare   []updater

	procs []*process

	stopRequested bool
	started       bool
	deltaCount    uint64

	// running is the process in its activation, named by Run when model
	// code panics.
	running *process

	// MaxDeltasPerInstant guards against delta-cycle livelock (two method
	// processes re-notifying each other forever at the same time). Zero
	// means the default of 1,000,000.
	MaxDeltasPerInstant int

	// gap is the registered idle fast-forward subscriber (GapPeriodic);
	// gapSeq is the timed queue's push count when the current gap began
	// (see Quiet); ffInstants counts the instants executed through the
	// gap path.
	gap        gapSub
	gapSeq     uint64
	ffInstants uint64
}

// gapSub is a periodic process that opted into idle fast-forward: while its
// tick event is the only live timed notification, the kernel hands body a
// whole run of instants at interval steps instead of going through the
// heap/fire/eval machinery for every empty one.
type gapSub struct {
	ev       *Event
	interval Time
	body     func(first Time, n int) (ran int)
}

// updater is implemented by signals: apply the pending write and notify the
// changed event if the value actually changed. Implementations are pointers
// (so queueing one is a boxing-free interface conversion) and must not
// allocate — the hot-path allocation tests pin this.
type updater interface{ applyUpdate() }

// NewKernel returns a kernel at time zero with empty queues.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// DeltaCount returns the number of delta cycles executed so far; useful in
// tests asserting scheduling behaviour.
func (k *Kernel) DeltaCount() uint64 { return k.deltaCount }

// NewEvent creates a named event owned by this kernel.
func (k *Kernel) NewEvent(name string) *Event {
	return &Event{k: k, name: name, pendingAt: pendingNone}
}

// Method registers a method process: fn is invoked once per activation and
// must not block; a process that needs to wait arms its next activation with
// NextTrigger or NextTriggerAfter and returns. Sensitivity is configured on
// the returned handle.
func (k *Kernel) Method(name string, fn func()) *Proc {
	p := &process{k: k, name: name, fn: fn}
	k.procs = append(k.procs, p)
	return &Proc{p: p}
}

// Stop requests the simulation to halt at the end of the current delta
// cycle; Run returns normally.
func (k *Kernel) Stop() { k.stopRequested = true }

// GapPeriodic opts a periodic method process into idle fast-forward. The
// registered event must re-notify itself every `interval` from its own
// method body, have that method as its only subscriber, and no dynamic
// waiters. Whenever the event is the sole live timed notification at an
// instant — no process runnable, no delta pending, nothing else scheduled
// at or before it — the kernel stops round-tripping through the heap and
// hands the whole idle gap to body in one call: body(first, n) must run
// the method's work (minus the self re-notification, which the kernel
// takes over) at the n instants first, first+interval, …, in order, and
// may stop early. It returns how many it ran, at least one. n counts the
// instants strictly before the next other live notification and never
// past the run horizon.
//
// The kernel then moves Now to the last instant run and applies the
// checks a ticked instant would: signal updates are applied at that
// instant, and if the call made a process runnable, queued a delta,
// scheduled a timed notification or requested a stop, control returns to
// the main loop there, reproducing the ticked phase order exactly.
// Otherwise the next call starts at the following instant. On exit the
// event is re-notified at interval, so the heap state matches a ticked
// run's.
//
// Two rules keep the result bit-identical to a ticked run. Body must
// return right after the first instant whose work does more than update
// its own state, which Quiet detects. And during a call Now reports
// first: work that reads kernel time must be the last instant of its
// call. At most one subscriber can register.
func (k *Kernel) GapPeriodic(ev *Event, interval Time, body func(first Time, n int) (ran int)) {
	if k.gap.ev != nil {
		panic("sim: GapPeriodic registered twice")
	}
	if ev == nil || interval <= 0 || body == nil {
		panic("sim: GapPeriodic needs an event, a positive interval and a body")
	}
	k.gap = gapSub{ev: ev, interval: interval, body: body}
}

// Quiet reports whether the current gap has so far only updated the
// subscriber's own state: no process runnable, no signal update or delta
// notification pending, no stop requested and no timed notification
// scheduled since the gap began. A gap body checks it after every instant
// it runs and returns as soon as it turns false. Meaningful only inside a
// gap call.
func (k *Kernel) Quiet() bool {
	return len(k.runnable) == 0 && len(k.updates) == 0 && len(k.deltaQueue) == 0 &&
		!k.stopRequested && k.timed.seqCount() == k.gapSeq
}

// FastForwardedInstants returns how many instants were executed through
// the gap fast-forward path (0 when no GapPeriodic subscriber is
// registered or the model never went quiescent).
func (k *Kernel) FastForwardedInstants() uint64 { return k.ffInstants }

// ErrDeltaLivelock is returned by Run when one simulated instant exceeds
// MaxDeltasPerInstant delta cycles.
var ErrDeltaLivelock = errors.New("sim: delta-cycle livelock detected")

// Run advances the simulation until (and including) time `until`, until the
// event queues drain, or until Stop is called. It may be called repeatedly
// to continue the same simulation. On the first call every process without
// DontInitialize is activated once at the current time.
//
// A panic in model code ends the run with an error naming the process that
// was running; the kernel must not be run again after that.
func (k *Kernel) Run(until Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if k.running != nil {
				err = fmt.Errorf("sim: process %q panicked: %v", k.running.name, r)
			} else {
				err = fmt.Errorf("sim: panic at t=%s: %v", k.now, r)
			}
			k.running = nil
		}
	}()
	if !k.started {
		k.started = true
		for _, p := range k.procs {
			if !p.dontInit {
				k.makeRunnable(p)
			}
		}
	}
	k.stopRequested = false

	maxDeltas := k.MaxDeltasPerInstant
	if maxDeltas <= 0 {
		maxDeltas = 1_000_000
	}

	deltasThisInstant := 0
	// skipEval makes one iteration resume at the update phase: the gap
	// fast-forward sets it when a catch-up body left processes runnable, so
	// the pending updates and deltas of that instant are processed before
	// those processes run — exactly the ticked phase order.
	skipEval := false
	for {
		// Evaluation phase.
		if len(k.runnable) > 0 && !skipEval {
			run := k.runnable
			k.runnable = k.runSpare[:0]
			for _, p := range run {
				p.runnable = false
				k.running = p
				p.fn()
			}
			k.running = nil
			k.runSpare = run[:0]
		}
		skipEval = false

		// Update phase.
		if len(k.updates) > 0 {
			k.applyUpdates()
		}

		// Delta-notification phase.
		if len(k.deltaQueue) > 0 {
			k.deltaCount++
			deltasThisInstant++
			if deltasThisInstant > maxDeltas {
				return fmt.Errorf("%w at t=%s", ErrDeltaLivelock, k.now)
			}
			dq := k.deltaQueue
			k.deltaQueue = k.deltaSpare[:0]
			for _, e := range dq {
				if e.pendingDelta { // not cancelled meanwhile
					e.fire()
				}
			}
			k.deltaSpare = dq[:0]
		}

		if k.stopRequested {
			return nil
		}
		if len(k.runnable) > 0 {
			continue // more work in this instant
		}

		// Advance time to the next live timed notification group. nextTime
		// prunes dead entries and validates the top once; the pop loop then
		// takes entries straight off the root without re-validating them —
		// the merged peek/pop path.
		nextAt, ok := k.timed.nextTime()
		if !ok {
			// Queues drained: park time at the requested horizon (unless the
			// caller asked for "run forever", where the drain time stands).
			if until < MaxTime && until > k.now {
				k.now = until
			}
			return nil
		}
		if nextAt > until {
			// Park time at `until` so Now() reflects the requested horizon.
			if until > k.now {
				k.now = until
			}
			return nil
		}
		k.now = nextAt
		deltasThisInstant = 0
		first := k.timed.popTop().ev
		// Clear the pending notification *before* fire: the entry has
		// already left the heap, so fire must not count it stale.
		first.pendingAt = pendingNone
		if first == k.gap.ev && k.gap.body != nil {
			if t2, live := k.timed.nextTime(); !live || t2 > nextAt {
				// The gap subscriber owns this instant exclusively: run the
				// idle fast-forward instead of firing through the heap.
				skipEval = k.fastForward(t2, live, until)
				continue
			}
		}
		first.fire()
		for {
			at, ok := k.timed.nextTime()
			if !ok || at != nextAt {
				break
			}
			ev := k.timed.popTop().ev
			ev.pendingAt = pendingNone
			ev.fire()
		}
	}
}

// fastForward hands the idle gap starting at the current instant to the
// gap subscriber's body, one call per run of instants strictly before the
// next other live notification (`t2` when live) and never past `until`.
// The subscriber's pending notification has already been popped; on every
// exit path the event is re-notified at interval, restoring the heap
// state a ticked run would have. It returns true when the last instant
// run left processes runnable, in which case the caller must resume at
// the update phase so the instant's phases complete in ticked order.
//
// The loop is the skip-path the 0-alloc test pins: per call it is one
// indirect call, the inline update phase and a handful of compares.
func (k *Kernel) fastForward(t2 Time, live bool, until Time) (skipEval bool) {
	g := &k.gap
	k.gapSeq = k.timed.seqCount()
	for {
		n := (until-k.now)/g.interval + 1
		if live {
			if m := (t2-k.now-1)/g.interval + 1; m < n {
				n = m
			}
		}
		first := k.now
		ran := g.body(first, int(n))
		if ran < 1 || Time(ran) > n {
			panic(fmt.Sprintf("sim: gap body ran %d of %d instants", ran, n))
		}
		k.now = first + Time(ran-1)*g.interval
		k.ffInstants += uint64(ran)
		if len(k.runnable) > 0 || k.stopRequested || k.timed.seqCount() != k.gapSeq ||
			len(k.deltaQueue) > 0 {
			// The last instant did more than write signals: leave its
			// updates unapplied and let the main loop run the
			// update/delta/stop phases of this instant (eval is skipped
			// when something is runnable, so phase order matches a
			// ticked instant).
			skipEval = len(k.runnable) > 0
			break
		}
		if len(k.updates) > 0 {
			k.applyUpdates()
			if len(k.deltaQueue) > 0 {
				// A signal actually changed value: fire its delta through
				// the main loop (eval and update are empty, so resuming at
				// the top is the ticked order).
				break
			}
		}
		next := k.now + g.interval
		if next > until || (live && next >= t2) {
			// The next step is no longer exclusively ours.
			break
		}
		k.now = next
	}
	g.ev.Notify(g.interval)
	return skipEval
}

// applyUpdates drains the update queue — the update phase, shared by the
// main loop and the gap fast-forward so both apply writes identically.
func (k *Kernel) applyUpdates() {
	ups := k.updates
	k.updates = k.updSpare[:0]
	for _, u := range ups {
		u.applyUpdate()
	}
	k.updSpare = ups[:0]
}

// makeRunnable queues p for the current/next evaluation phase, once.
func (k *Kernel) makeRunnable(p *process) {
	if p.runnable {
		return
	}
	p.runnable = true
	k.runnable = append(k.runnable, p)
}

// scheduleUpdate queues a signal for the update phase.
func (k *Kernel) scheduleUpdate(u updater) {
	k.updates = append(k.updates, u)
}

// scheduleTimed queues a timed notification for e.
func (k *Kernel) scheduleTimed(e *Event, at Time, gen uint64) {
	k.timed.push(at, gen, e)
}
