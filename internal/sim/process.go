package sim

// process is the kernel-internal representation of a method process
// (SC_METHOD): a callback that runs to completion on every activation.
type process struct {
	k    *Kernel
	name string
	fn   func()

	// static sensitivity list; fires make the process runnable unless a
	// dynamic wait is armed.
	sensitivity []*Event

	// dynamic one-shot wait set (NextTrigger); while it is non-empty the
	// static sensitivity is suppressed.
	waitSet []*Event

	runnable bool

	// timer is a private event backing NextTriggerAfter; allocated lazily.
	timer *Event

	// dontInit suppresses the initial run at simulation start.
	dontInit bool
}

// Proc is the public handle to a process.
type Proc struct{ p *process }

// Sensitive appends events to the process's static sensitivity list.
func (pr *Proc) Sensitive(evs ...*Event) *Proc {
	for _, e := range evs {
		e.static = append(e.static, pr.p)
		pr.p.sensitivity = append(pr.p.sensitivity, e)
	}
	return pr
}

// DontInitialize suppresses the implicit activation at simulation start
// (the process first runs when its sensitivity triggers).
func (pr *Proc) DontInitialize() *Proc {
	pr.p.dontInit = true
	return pr
}

// NextTrigger arms a one-shot dynamic wait, SystemC's next_trigger(e1 | e2
// | …): the process's next activation comes when the first of evs fires,
// and its static sensitivity is ignored until then. The wait is cleared
// when it fires; a process that arms nothing is activated next by its
// static sensitivity alone. At most one wait may be armed at a time.
func (pr *Proc) NextTrigger(evs ...*Event) {
	p := pr.p
	if len(evs) == 0 {
		panic("sim: NextTrigger with no events")
	}
	if len(p.waitSet) > 0 {
		panic("sim: NextTrigger while a wait is already armed: " + p.name)
	}
	for _, e := range evs {
		e.subscribeDynamic(p)
		p.waitSet = append(p.waitSet, e)
	}
}

// NextTriggerAfter arms the process's private timer, SystemC's
// next_trigger(d): the next activation comes d from now. A non-positive d
// panics, since a zero-length wait would not advance the scheduler
// deterministically.
func (pr *Proc) NextTriggerAfter(d Time) {
	p := pr.p
	if d <= 0 {
		panic("sim: NextTriggerAfter with non-positive duration")
	}
	if p.timer == nil {
		p.timer = p.k.NewEvent(p.name + ".timer")
	}
	p.timer.Notify(d)
	pr.NextTrigger(p.timer)
}

// clearDynamicWait is called when event e fires while p is in the wait set.
// It removes p from the sibling events of the wait and reports whether the
// process should be made runnable.
func (p *process) clearDynamicWait(fired *Event) bool {
	if len(p.waitSet) == 0 {
		return false
	}
	for _, e := range p.waitSet {
		if e != fired {
			e.unsubscribeDynamic(p)
		}
	}
	p.waitSet = p.waitSet[:0]
	return true
}
