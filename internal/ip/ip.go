// Package ip implements the functional IP block: a traffic generator (as in
// the paper's evaluation) that walks a workload sequence, requests
// permission from its energy manager before each task, executes the task at
// the granted operating point, and reports idleness back so the manager can
// power it down. Execution power is metered exactly and every task is
// recorded in the delay ledger.
//
// The block is one method process written as a state machine: each point
// at which a SystemC thread would wait is a phase, and the process arms its
// next activation there and returns.
package ip

import (
	"godpm/internal/acpi"
	"godpm/internal/bus"
	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/stats"
	"godpm/internal/task"
	"godpm/internal/workload"
)

// Manager is the energy-management interface the IP talks to: the paper's
// LEM, or one of the baseline policies. Both calls are non-blocking steps:
// each returns nil once done, or the events to wait on (any one of them)
// before the IP calls again with the same argument.
type Manager interface {
	// AcquireOn steps towards executing t and returns the operating point
	// to run at once the IP may execute it.
	AcquireOn(t task.Task) (power.OperatingPoint, []*sim.Event)
	// ReleaseIdle tells the manager the IP just became idle. hint is the
	// actual upcoming idle duration (known to traffic generators); honest
	// managers ignore it — except for the sentinel sim.MaxTime, which
	// means "no further work ever" and asks for the deepest power-down.
	ReleaseIdle(hint sim.Time) []*sim.Event
}

// Config assembles one IP block.
type Config struct {
	Name    string
	Profile *power.Profile
	// Sequence is the closed-loop workload to execute (the paper's model:
	// run a task, then idle for a gap). Mutually exclusive with Arrivals.
	Sequence workload.Sequence
	// Arrivals is the open-loop workload: service requests with absolute
	// arrival times that queue up when the IP runs slowly.
	Arrivals workload.ArrivalSequence
	// Manager grants execution; required.
	Manager Manager
	// PSM is the IP's power state machine (for residual-power metering).
	PSM *acpi.PSM
	// Meter receives the IP's power level; required.
	Meter *stats.EnergyMeter
	// Ledger records task timings; required.
	Ledger *stats.Ledger
	// Bus, when non-nil, delivers each task's service request as a
	// BusWords-word transaction before the task may start. BusPriority
	// orders contending masters when the bus arbitrates by priority.
	Bus         *bus.Bus
	BusWords    int
	BusPriority int
	// OnTask, when non-nil, observes every completed task right after its
	// ledger record is written. The record is passed by value so the nil
	// case costs nothing (no escape to the heap on the execute path).
	OnTask func(rec stats.TaskRecord)
}

// IP is the functional block component.
type IP struct {
	cfg       Config
	k         *sim.Kernel
	proc      *sim.Proc
	executing bool
	tasksDone int
	finished  bool
	doneEv    *sim.Event

	// The state machine: phase is the next step, next the index of the
	// workload item to start.
	phase phase
	next  int
	// The task in progress, with its service-time origin and start.
	task    task.Task
	request sim.Time
	start   sim.Time
	// The idle period in progress, handed to the manager as its hint.
	idle sim.Time
	xfer bus.Transfer
}

// phase is a step of the IP process; each of the waiting ones resumes the
// wait point of the same name.
type phase uint8

const (
	phStart   phase = iota // initial activation
	phNext                 // start the next workload item
	phRelease              // hand the idle period to the manager
	phIdle                 // idle until the gap has passed
	phBus                  // service request over the bus
	phAcquire              // manager grants an operating point
	phExecute              // the task runs
	phFinal                // final release: no further work
	phDone                 // finished: nothing activates the process again
)

// New creates the IP and registers its process on the kernel.
func New(k *sim.Kernel, cfg Config) *IP {
	if cfg.Manager == nil || cfg.Meter == nil || cfg.Ledger == nil || cfg.PSM == nil {
		panic("ip: Manager, PSM, Meter and Ledger are required")
	}
	if (len(cfg.Sequence) > 0) == (len(cfg.Arrivals) > 0) {
		panic("ip: exactly one of Sequence and Arrivals must be set")
	}
	if cfg.Profile == nil {
		cfg.Profile = power.DefaultProfile()
	}
	b := &IP{cfg: cfg, k: k, doneEv: k.NewEvent(cfg.Name + ".done")}

	// Residual power tracking: whenever the PSM lands in a new state while
	// the IP is not executing, the meter follows the state's power.
	k.Method(cfg.Name+".power", func() {
		if !b.executing {
			b.cfg.Meter.SetPower(b.cfg.PSM.StatePower())
		}
	}).Sensitive(cfg.PSM.StateSignal().Changed()).DontInitialize()

	// Transition energy goes to the same meter as discrete quanta.
	cfg.PSM.OnEnergy(cfg.Meter.AddEnergy)

	b.proc = k.Method(cfg.Name+".task", b.step)
	return b
}

// step runs the IP from its current phase to the next wait point, arms the
// process's next activation there and returns.
//
// A closed-loop Sequence executes each task and then idles for the item's
// gap. Open-loop Arrivals idle until the next request is due; when the IP
// falls behind, requests queue and are served back-to-back (the service
// time then includes the queueing delay). Once the workload is done the
// final release hands the manager the sim.MaxTime hint, so it powers the IP
// down as deeply as it can (otherwise a finished IP would burn ON-idle
// power for the rest of the simulation, starving the battery for everyone
// else).
func (b *IP) step() {
	for {
		switch b.phase {
		case phStart:
			b.cfg.Meter.SetPower(b.cfg.PSM.StatePower())
			b.phase = phNext
		case phNext:
			b.startItem()
		case phRelease:
			if b.wait(b.cfg.Manager.ReleaseIdle(b.idle)) {
				return
			}
			b.phase = phIdle
			if b.idle > 0 {
				b.proc.NextTriggerAfter(b.idle)
				return
			}
		case phIdle:
			if len(b.cfg.Sequence) > 0 {
				b.phase = phNext
			} else {
				b.phase = phBus
			}
		case phBus:
			if b.cfg.Bus != nil && b.cfg.BusWords > 0 {
				ev, hold := b.cfg.Bus.TransferPri(&b.xfer, b.cfg.BusWords, b.cfg.BusPriority)
				if ev != nil {
					b.proc.NextTrigger(ev)
					return
				}
				if hold > 0 {
					b.proc.NextTriggerAfter(hold)
					return
				}
			}
			b.phase = phAcquire
		case phAcquire:
			op, w := b.cfg.Manager.AcquireOn(b.task)
			if b.wait(w) {
				return
			}
			b.start = b.k.Now()
			// Execute: active power for the task's instruction class.
			prof := b.cfg.Profile
			b.executing = true
			b.cfg.Meter.SetPower(prof.InstrWeight[b.task.Class]*prof.DynamicPower(op) + prof.LeakagePower(op.Vdd))
			b.phase = phExecute
			b.proc.NextTriggerAfter(prof.TaskDuration(b.task.Instructions, op))
			return
		case phExecute:
			b.finishTask()
		case phFinal:
			if b.wait(b.cfg.Manager.ReleaseIdle(sim.MaxTime)) {
				return
			}
			b.finished = true
			b.doneEv.NotifyDelta()
			b.phase = phDone
			return
		case phDone:
			return
		}
	}
}

// wait arms the process on a manager's wait set and reports whether there
// was one.
func (b *IP) wait(evs []*sim.Event) bool {
	if evs == nil {
		return false
	}
	b.proc.NextTrigger(evs...)
	return true
}

// startItem picks the next workload item: a closed-loop task starts now,
// an open-loop request first waits for its arrival when that lies ahead.
func (b *IP) startItem() {
	if len(b.cfg.Sequence) > 0 {
		if b.next == len(b.cfg.Sequence) {
			b.phase = phFinal
			return
		}
		b.task, b.request = b.cfg.Sequence[b.next].Task, b.k.Now()
		b.next++
		b.phase = phBus
		return
	}
	if b.next == len(b.cfg.Arrivals) {
		b.phase = phFinal
		return
	}
	a := b.cfg.Arrivals[b.next]
	b.next++
	b.task, b.request = a.Task, a.At
	if wait := a.At - b.k.Now(); wait > 0 {
		b.idle = wait
		b.phase = phRelease
		return
	}
	b.phase = phBus
}

// finishTask ends the task's execution and records it in the ledger; a
// closed-loop item then releases for its idle gap.
func (b *IP) finishTask() {
	b.executing = false
	b.cfg.Meter.SetPower(b.cfg.PSM.StatePower())

	rec := stats.TaskRecord{
		IP:      b.cfg.Name,
		TaskID:  b.task.ID,
		Request: b.request,
		Start:   b.start,
		Done:    b.k.Now(),
		State:   b.cfg.PSM.State().String(),
	}
	b.cfg.Ledger.Add(rec)
	if b.cfg.OnTask != nil {
		b.cfg.OnTask(rec)
	}
	b.tasksDone++

	if len(b.cfg.Sequence) > 0 {
		b.idle = b.cfg.Sequence[b.next-1].IdleAfter
		b.phase = phRelease
		return
	}
	b.phase = phNext
}

// TasksDone returns the number of completed tasks.
func (b *IP) TasksDone() int { return b.tasksDone }

// Finished reports whether the whole sequence completed.
func (b *IP) Finished() bool { return b.finished }

// Done fires (delta-notified) when the sequence completes.
func (b *IP) Done() *sim.Event { return b.doneEv }
