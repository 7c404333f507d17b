package sim

import (
	"fmt"
	"iter"
)

// procKind distinguishes method processes (plain callbacks, SC_METHOD) from
// thread processes (coroutines with blocking waits, SC_THREAD).
type procKind int

const (
	kindMethod procKind = iota
	kindThread
)

// process is the kernel-internal representation of a schedulable process.
type process struct {
	k    *Kernel
	name string
	id   int
	kind procKind

	methodFn func()
	threadFn func(*Ctx)

	// static sensitivity list; fires make the process runnable.
	sensitivity []*Event

	// dynamic one-shot wait set (thread Wait/WaitAny, method NextTrigger).
	waitSet []*Event

	runnable   bool
	terminated bool

	// thread machinery: the body runs as an iter.Pull coroutine, created
	// on the first activation. The kernel resumes it with next; the body
	// hands control back through yield, which reports false once stop
	// has been called. Both switches stay on the calling OS thread.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// timer is a private event backing WaitTime; allocated lazily.
	timer *Event

	// dontInit suppresses the initial run at simulation start.
	dontInit bool

	// lastTrigger records the event that most recently woke the process
	// from a dynamic wait (nil after a timed or initial activation).
	lastTrigger *Event
}

// killError is panicked inside a thread coroutine to unwind it at shutdown:
// its deferred calls run and the body returns into the coroutine's exit.
type killError struct{ name string }

func (k killError) Error() string { return "sim: thread killed: " + k.name }

// Proc is the public handle to a process.
type Proc struct{ p *process }

// Name returns the process name.
func (pr *Proc) Name() string { return pr.p.name }

// Terminated reports whether the process has returned (threads) or will
// never be triggered again (never true for methods).
func (pr *Proc) Terminated() bool { return pr.p.terminated }

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

// clearDynamicWait is called when event e fires while p is in the wait set.
// It removes p from all sibling events of a WaitAny and reports whether the
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
	p.lastTrigger = fired
	return true
}

// run executes one activation of the process in the evaluation phase.
func (p *process) run() {
	switch p.kind {
	case kindMethod:
		p.methodFn()
	case kindThread:
		p.resumeThread()
	}
}

// resumeThread switches to the thread coroutine and returns when it yields
// (waits again or terminates).
func (p *process) resumeThread() {
	if p.terminated {
		return
	}
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.threadBody)
	}
	p.next()
}

// threadBody is the coroutine's sequence function. It never lets a panic
// escape into iter.Pull: a kill unwinds silently, and any other panic is
// stashed for the kernel to return from Run with the thread's name.
func (p *process) threadBody(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killError); !ok {
				p.k.threadPanic = fmt.Errorf("sim: thread %q panicked: %v", p.name, r)
			}
		}
		p.terminated = true
	}()
	p.threadFn(&Ctx{k: p.k, p: p})
}
