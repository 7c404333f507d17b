// Package stats collects the measurements behind the paper's Table 2:
// exact (piecewise-constant) energy integration, time-weighted temperature
// statistics, and a per-task delay ledger from which the energy-saving,
// temperature-reduction and delay-overhead percentages are computed.
package stats

import (
	"fmt"

	"godpm/internal/sim"
)

// EnergyMeter integrates power over time exactly, assuming power is
// piecewise constant between SetPower calls. Discrete energy quanta
// (state-transition costs) are added with AddEnergy.
type EnergyMeter struct {
	k      *sim.Kernel
	name   string
	lastAt sim.Time
	power  float64
	energy float64
}

// NewEnergyMeter creates a meter starting at zero power at the current time.
func NewEnergyMeter(k *sim.Kernel, name string) *EnergyMeter {
	return &EnergyMeter{k: k, name: name, lastAt: k.Now()}
}

// settle accumulates energy up to the current simulation time.
func (m *EnergyMeter) settle() {
	now := m.k.Now()
	if now > m.lastAt {
		m.energy += m.power * (now - m.lastAt).Seconds()
		m.lastAt = now
	}
}

// SetPower changes the current power level (watts) as of the current
// simulation time.
func (m *EnergyMeter) SetPower(w float64) {
	m.settle()
	m.power = w
}

// SetSettled stores energyJ as the meter's energy settled at t. It is for a
// caller that accrued the meter's held power itself, step by step, while
// nothing else touched the meter: with energy += Power()·secs per step,
// the value is bit-identical to settling at each step's end, since settle
// computes the same product whenever the step converts to secs.
func (m *EnergyMeter) SetSettled(t sim.Time, energyJ float64) {
	m.energy, m.lastAt = energyJ, t
}

// AddEnergy records an instantaneous energy quantum (joules).
func (m *EnergyMeter) AddEnergy(j float64) {
	m.energy += j
}

// Power returns the current power level.
func (m *EnergyMeter) Power() float64 { return m.power }

// EnergyJ returns the energy accumulated up to the current simulation time.
func (m *EnergyMeter) EnergyJ() float64 {
	m.settle()
	return m.energy
}

// PeekEnergyJ returns the energy accumulated up to the current simulation
// time without settling the meter. The value is bit-identical to EnergyJ
// (settle computes `energy += power·dt` then returns energy; Peek returns
// `energy + power·dt`), but the meter's accumulation points are left
// untouched — snapshotting a live run through Peek does not perturb how
// later settles split the integral, which a mutating read would.
func (m *EnergyMeter) PeekEnergyJ() float64 {
	now := m.k.Now()
	if now > m.lastAt {
		return m.energy + m.power*(now-m.lastAt).Seconds()
	}
	return m.energy
}

// TimeWeighted is a streaming time-weighted accumulator with O(1) memory.
// Each Add declares the value holding from that time until the next Add
// (piecewise constant). The accumulation order is one area term per
// sample, added left to right — the order the tests' reference Series
// uses, so for identical samples the two produce bit-identical means.
type TimeWeighted struct {
	t0     sim.Time // time of the first sample
	v0     float64  // first value (degenerate zero-span mean)
	lastAt sim.Time
	lastV  float64
	area   float64 // ∫v dt up to lastAt, in value·seconds
	peak   float64
	min    float64
	n      int
}

// Add appends a sample; times must be non-decreasing.
func (w *TimeWeighted) Add(t sim.Time, v float64) {
	if w.n == 0 {
		w.t0, w.lastAt, w.lastV = t, t, v
		w.v0 = v
		w.peak, w.min = v, v
		w.n = 1
		return
	}
	if t < w.lastAt {
		panic(fmt.Sprintf("stats: series times must be non-decreasing (%v after %v)", t, w.lastAt))
	}
	w.AddStep(t, (t - w.lastAt).Seconds(), v)
}

// AddStep is Add(t, v) for a caller that has already converted the hold
// t − (previous sample time) to secs seconds; the result is bit-identical
// to Add whenever the hold converts to secs. There must be a previous
// sample.
func (w *TimeWeighted) AddStep(t sim.Time, secs, v float64) {
	w.area += w.lastV * secs
	w.lastAt, w.lastV = t, v
	w.n++
	if v > w.peak {
		w.peak = v
	}
	if v < w.min {
		w.min = v
	}
}

// Len returns the number of samples accumulated.
func (w *TimeWeighted) Len() int { return w.n }

// Max returns the maximum sample seen (0 when empty).
func (w *TimeWeighted) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.peak
}

// MeanUntil returns the time-weighted mean over [first sample, end],
// extending the last value to end; with no samples it returns 0. Unlike
// Series, the accumulator keeps only O(1) state, so MeanUntil may be called
// with any end >= the last sample time (earlier ends clamp to it, exactly
// as Series.MeanUntil does).
func (w *TimeWeighted) MeanUntil(end sim.Time) float64 {
	if w.n == 0 {
		return 0
	}
	if end < w.lastAt {
		end = w.lastAt
	}
	span := end - w.t0
	if span <= 0 {
		// All samples at one instant: the first value holds, exactly as
		// Series.MeanUntil returns vals[0].
		return w.v0
	}
	area := w.area + w.lastV*(end-w.lastAt).Seconds()
	return area / span.Seconds()
}

// TaskRecord is the ledger entry for one executed task.
type TaskRecord struct {
	IP     string
	TaskID int
	// Request is when the IP wanted to start (after its idle gap).
	Request sim.Time
	// Start is when execution actually began (post wake-up/GEM stalls).
	Start sim.Time
	// Done is when execution completed.
	Done sim.Time
	// State names the ON state the task executed in.
	State string
}

// Service returns the task's total service time (request to completion).
func (r TaskRecord) Service() sim.Time { return r.Done - r.Request }

// Ledger accumulates task records across all IPs.
type Ledger struct {
	records []TaskRecord
}

// NewLedger returns a ledger of records, taking the slice over: the
// caller must not touch it afterwards.
func NewLedger(records []TaskRecord) *Ledger { return &Ledger{records: records} }

// Add appends a record.
func (l *Ledger) Add(r TaskRecord) { l.records = append(l.records, r) }

// Records returns the ledger contents (not a copy; callers must not mutate).
func (l *Ledger) Records() []TaskRecord { return l.records }

// Len returns the number of records.
func (l *Ledger) Len() int { return len(l.records) }

// Clone returns an independent copy of the ledger. Snapshots of a live run
// clone it so records appended after the cut point do not leak into the
// snapshot's view.
func (l *Ledger) Clone() *Ledger {
	return &Ledger{records: append([]TaskRecord(nil), l.records...)}
}

// key identifies a task across two runs of the same workload.
type key struct {
	ip string
	id int
}

// DelayOverheadPct computes the paper's "average delay overhead": for every
// task present in both ledgers, the relative service-time increase of dpm
// over base, averaged over tasks, in percent. An error is returned when the
// ledgers share no tasks or a base service time is zero.
func DelayOverheadPct(base, dpm *Ledger) (float64, error) {
	baseBy := make(map[key]TaskRecord, len(base.records))
	for _, r := range base.records {
		baseBy[key{r.IP, r.TaskID}] = r
	}
	var sum float64
	var n int
	for _, r := range dpm.records {
		b, ok := baseBy[key{r.IP, r.TaskID}]
		if !ok {
			continue
		}
		bs := b.Service()
		if bs <= 0 {
			return 0, fmt.Errorf("stats: task %s/%d has non-positive baseline service", r.IP, r.TaskID)
		}
		sum += float64(r.Service()-bs) / float64(bs)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("stats: ledgers share no tasks")
	}
	return 100 * sum / float64(n), nil
}

// EnergySavingPct returns (base−dpm)/base·100.
func EnergySavingPct(baseJ, dpmJ float64) (float64, error) {
	if baseJ <= 0 {
		return 0, fmt.Errorf("stats: non-positive baseline energy %v", baseJ)
	}
	return 100 * (baseJ - dpmJ) / baseJ, nil
}

// TempReductionPct compares the time-weighted average die temperatures on
// the absolute Celsius scale, as the paper's Table 2 does:
// (baseAvg − dpmAvg)/baseAvg·100. The baseline must be above ambient (a
// baseline that never heats makes the ratio meaningless).
func TempReductionPct(baseAvgC, dpmAvgC, ambientC float64) (float64, error) {
	if baseAvgC <= ambientC {
		return 0, fmt.Errorf("stats: baseline average %v not above ambient %v", baseAvgC, ambientC)
	}
	if baseAvgC <= 0 {
		return 0, fmt.Errorf("stats: non-positive baseline average %v", baseAvgC)
	}
	return 100 * (baseAvgC - dpmAvgC) / baseAvgC, nil
}
