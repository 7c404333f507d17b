package sim

// Event is a kernel notification primitive, equivalent to sc_event.
//
// Processes become runnable when an event they are sensitive to (statically
// or via a dynamic wait) fires. Events may be notified immediately (within
// the current evaluation phase), for the next delta cycle, or after a timed
// delay. Like SystemC, a pending timed notification is overridden only by an
// *earlier* one: notifying an event that already has a pending notification
// at an earlier or equal time is a no-op.
type Event struct {
	k    *Kernel
	name string

	// static subscribers (processes whose sensitivity list includes this
	// event) and dynamic waiters (processes with an armed NextTrigger) —
	// dynamic waiters are cleared when the event fires.
	static  []*process
	dynamic []*process

	// pendingAt is the simulation time of the outstanding timed
	// notification, or pendingNone. pendingGen invalidates stale heap
	// entries after an earlier notify or a cancel.
	pendingAt    Time
	pendingGen   uint64
	pendingDelta bool
}

const pendingNone Time = -1

// Notify schedules the event to fire after delay. A zero delay schedules a
// delta-cycle notification (SystemC SC_ZERO_TIME semantics). If a timed
// notification is already pending at an earlier or equal time the call has
// no effect; a later pending notification is cancelled and replaced.
func (e *Event) Notify(delay Time) {
	if delay < 0 {
		panic("sim: Event.Notify with negative delay")
	}
	if delay == 0 {
		e.NotifyDelta()
		return
	}
	if e.pendingDelta {
		return // delta notification beats any timed one
	}
	at := e.k.now + delay
	hadPending := e.pendingAt != pendingNone
	if hadPending && e.pendingAt <= at {
		return
	}
	e.pendingGen++
	e.pendingAt = at
	if hadPending {
		// The later notification's heap entry just died (gen moved on);
		// tell the queue so it can compact under churn.
		e.k.timed.noteStale()
	}
	e.k.scheduleTimed(e, at, e.pendingGen)
}

// NotifyDelta schedules the event to fire in the next delta cycle,
// cancelling any pending timed notification.
func (e *Event) NotifyDelta() {
	if e.pendingDelta {
		return
	}
	if e.pendingAt != pendingNone {
		e.pendingGen++ // invalidate the timed entry
		e.pendingAt = pendingNone
		e.k.timed.noteStale()
	}
	e.pendingDelta = true
	e.k.deltaQueue = append(e.k.deltaQueue, e)
}

// Cancel removes any pending (timed or delta) notification.
func (e *Event) Cancel() {
	if e.pendingAt != pendingNone {
		e.pendingGen++
		e.pendingAt = pendingNone
		e.k.timed.noteStale()
	}
	e.pendingDelta = false // delta entry becomes a no-op when drained
}

// fire makes every subscribed process runnable and clears dynamic waiters;
// a static subscriber with an armed dynamic wait is skipped. No timed
// notification is pending here: the timed pop path clears pendingAt before
// calling fire, and a delta notification cancels any timed one.
func (e *Event) fire() {
	e.pendingDelta = false
	for _, p := range e.static {
		if len(p.waitSet) == 0 {
			e.k.makeRunnable(p)
		}
	}
	if len(e.dynamic) > 0 {
		dyn := e.dynamic
		e.dynamic = e.dynamic[:0]
		for _, p := range dyn {
			if p.clearDynamicWait(e) {
				e.k.makeRunnable(p)
			}
		}
	}
}

// subscribeDynamic registers p as a one-shot waiter.
func (e *Event) subscribeDynamic(p *process) {
	e.dynamic = append(e.dynamic, p)
}

// unsubscribeDynamic removes p from the one-shot waiter list (used when a
// sibling event of its wait fired first).
func (e *Event) unsubscribeDynamic(p *process) {
	for i, q := range e.dynamic {
		if q == p {
			e.dynamic = append(e.dynamic[:i], e.dynamic[i+1:]...)
			return
		}
	}
}
