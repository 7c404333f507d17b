// Package bus models the shared interconnect of Fig. 1: IP blocks receive
// their service requests over a bus whose occupation is one of the SoC
// resources the GEM may consult. The model is transaction level: a
// requester acquires the bus (FIFO or priority arbitration), holds it for
// the transfer duration (words ÷ bus frequency), and releases it;
// occupancy and per-master statistics are tracked, and each transferred
// word costs a configurable energy.
package bus

import (
	"fmt"

	"godpm/internal/sim"
)

// Arbitration selects how contending masters are ordered.
type Arbitration int

// Arbitration modes.
const (
	// FIFO grants the bus in request order (the default).
	FIFO Arbitration = iota
	// PriorityOrder grants the waiting master with the smallest priority
	// number first (ties broken by request order) — matching the GEM's
	// static IP priorities.
	PriorityOrder
)

// Config parameterises the bus.
type Config struct {
	// FreqHz is the bus clock; one word transfers per cycle.
	FreqHz float64
	// EnergyPerWord is the joules dissipated per transferred word.
	EnergyPerWord float64
	// Arbitration orders contending masters (default FIFO).
	Arbitration Arbitration
}

// DefaultConfig returns a 100 MHz bus at 50 pJ/word.
func DefaultConfig() Config {
	return Config{FreqHz: 100e6, EnergyPerWord: 50e-12}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FreqHz <= 0 {
		return fmt.Errorf("bus: non-positive frequency")
	}
	if c.EnergyPerWord < 0 {
		return fmt.Errorf("bus: negative energy per word")
	}
	return nil
}

// Bus is the shared interconnect component.
type Bus struct {
	k   *sim.Kernel
	cfg Config

	busy     bool
	released *sim.Event
	queue    []*pending
	seq      int

	busyTime sim.Time
	lastAcq  sim.Time

	// onEnergy, if set, receives each transaction's energy (wired to the
	// SoC energy meter).
	onEnergy func(j float64)
}

// pending is one queued bus request.
type pending struct {
	priority int
	seq      int
}

// New creates a bus on the kernel.
func New(k *sim.Kernel, name string, cfg Config) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Bus{
		k: k, cfg: cfg,
		released: k.NewEvent(name + ".released"),
	}
}

// OnEnergy registers the transaction energy sink.
func (b *Bus) OnEnergy(fn func(j float64)) { b.onEnergy = fn }

// TransferDuration returns the bus time for a word count.
func (b *Bus) TransferDuration(words int) sim.Time {
	if words <= 0 {
		return 0
	}
	return sim.Time(float64(words)/b.cfg.FreqHz*float64(sim.Sec) + 0.5)
}

// Transfer is one master's transaction in progress, advanced by
// TransferPri. The zero value is idle, and a completed Transfer is idle
// again, ready for the master's next transaction.
type Transfer struct {
	req   pending
	reqAt sim.Time
	state xferState
	// Waited is the arbitration wait of the last granted transaction.
	Waited sim.Time
}

type xferState uint8

const (
	xferIdle xferState = iota
	xferQueued
	xferHolding
)

// TransferPri advances a master's transaction x of words by one
// non-blocking step and reports what to wait for before calling again:
// the release event while the bus is held or arbitration favours another
// master (ordered by the configured arbitration; priority matters only in
// PriorityOrder mode, smaller wins), then, once granted, the hold time of
// the transfer. It returns (nil, 0) when the transaction is complete — at
// once for words <= 0.
func (b *Bus) TransferPri(x *Transfer, words, priority int) (wait *sim.Event, hold sim.Time) {
	if words <= 0 {
		return nil, 0
	}
	switch x.state {
	case xferIdle:
		x.reqAt = b.k.Now()
		b.seq++
		x.req = pending{priority: priority, seq: b.seq}
		b.queue = append(b.queue, &x.req)
		x.state = xferQueued
		fallthrough
	case xferQueued:
		if b.busy || b.head() != &x.req {
			return b.released, 0
		}
		b.dequeue(&x.req)
		b.busy = true
		b.lastAcq = b.k.Now()
		x.Waited = b.lastAcq - x.reqAt
		x.state = xferHolding
		hold = b.TransferDuration(words)
		if hold <= 0 {
			panic(fmt.Sprintf("bus: a %d-word transfer at %g Hz takes no simulated time", words, b.cfg.FreqHz))
		}
		return nil, hold
	}
	// The hold elapsed: release the bus.
	x.state = xferIdle
	b.busy = false
	b.busyTime += b.k.Now() - b.lastAcq
	e := float64(words) * b.cfg.EnergyPerWord
	if b.onEnergy != nil && e > 0 {
		b.onEnergy(e)
	}
	b.released.NotifyDelta()
	return nil, 0
}

// Occupancy returns the fraction of simulated time the bus was held, so
// far.
func (b *Bus) Occupancy() float64 {
	now := b.k.Now()
	if now == 0 {
		return 0
	}
	busy := b.busyTime
	if b.busy {
		busy += now - b.lastAcq
	}
	return busy.Seconds() / now.Seconds()
}

// head returns the next request the arbitration would grant.
func (b *Bus) head() *pending {
	if len(b.queue) == 0 {
		return nil
	}
	best := b.queue[0]
	for _, p := range b.queue[1:] {
		switch b.cfg.Arbitration {
		case PriorityOrder:
			if p.priority < best.priority || (p.priority == best.priority && p.seq < best.seq) {
				best = p
			}
		default: // FIFO
			if p.seq < best.seq {
				best = p
			}
		}
	}
	return best
}

// dequeue removes a granted request.
func (b *Bus) dequeue(me *pending) {
	for i, p := range b.queue {
		if p == me {
			b.queue = append(b.queue[:i], b.queue[i+1:]...)
			return
		}
	}
}
