package sim

// Ctx is the blocking interface handed to thread processes. All methods must
// be called from the owning thread's body: a wait suspends the body's
// coroutine and switches back to the kernel.
type Ctx struct {
	k *Kernel
	p *process
}

// Now returns the current simulation time.
func (c *Ctx) Now() Time { return c.k.now }

// Kernel returns the owning kernel (for creating events on the fly).
func (c *Ctx) Kernel() *Kernel { return c.k }

// Name returns the name of the running thread process.
func (c *Ctx) Name() string { return c.p.name }

// yieldToKernel suspends the thread's coroutine and returns when the kernel
// resumes it, panicking with killError if the kernel is shutting the thread
// down.
func (c *Ctx) yieldToKernel() {
	if !c.p.yield(struct{}{}) {
		panic(killError{name: c.p.name})
	}
}

// Wait blocks until ev fires.
func (c *Ctx) Wait(ev *Event) {
	ev.subscribeDynamic(c.p)
	c.p.waitSet = append(c.p.waitSet, ev)
	c.yieldToKernel()
}

// WaitAny blocks until any of the events fires and returns the one that did.
func (c *Ctx) WaitAny(evs ...*Event) *Event {
	if len(evs) == 0 {
		panic("sim: WaitAny with no events")
	}
	for _, e := range evs {
		e.subscribeDynamic(c.p)
		c.p.waitSet = append(c.p.waitSet, e)
	}
	c.yieldToKernel()
	return c.p.lastTrigger
}

// WaitAll blocks until every one of the events has fired at least once
// (in any order), like SystemC's wait(e1 & e2). Events that fire multiple
// times before the last one arrives still count once.
func (c *Ctx) WaitAll(evs ...*Event) {
	if len(evs) == 0 {
		panic("sim: WaitAll with no events")
	}
	pending := make(map[*Event]bool, len(evs))
	for _, e := range evs {
		pending[e] = true
	}
	for len(pending) > 0 {
		remaining := make([]*Event, 0, len(pending))
		for e := range pending {
			remaining = append(remaining, e)
		}
		fired := c.WaitAny(remaining...)
		delete(pending, fired)
	}
}

// WaitTime blocks for the given simulated duration. A non-positive duration
// panics: a zero-length wait would not advance the scheduler deterministically.
func (c *Ctx) WaitTime(d Time) {
	if d <= 0 {
		panic("sim: WaitTime with non-positive duration")
	}
	if c.p.timer == nil {
		c.p.timer = c.k.NewEvent(c.p.name + ".timer")
	}
	c.p.timer.Notify(d)
	c.Wait(c.p.timer)
}

// WaitDelta blocks for one delta cycle.
func (c *Ctx) WaitDelta() {
	if c.p.timer == nil {
		c.p.timer = c.k.NewEvent(c.p.name + ".timer")
	}
	c.p.timer.NotifyDelta()
	c.Wait(c.p.timer)
}

// WaitUntil repeatedly waits on ev until cond() is true. cond is checked
// before the first wait, so it returns immediately when already satisfied.
func (c *Ctx) WaitUntil(ev *Event, cond func() bool) {
	for !cond() {
		c.Wait(ev)
	}
}
