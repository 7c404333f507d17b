package ip

import (
	"math"
	"testing"

	"godpm/internal/acpi"
	"godpm/internal/bus"
	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/stats"
	"godpm/internal/task"
	"godpm/internal/workload"
)

// grantAll is a Manager that grants everything at a fixed ON state.
type grantAll struct {
	psm   *acpi.PSM
	state acpi.State

	acquiring bool
	acquires  int
	releases  int
	lastHint  sim.Time
	taskHint  sim.Time
}

// AcquireOn counts an acquisition on its first step, not on the steps that
// resume it after a transition.
func (m *grantAll) AcquireOn(task.Task) (power.OperatingPoint, []*sim.Event) {
	if !m.acquiring {
		m.acquiring = true
		m.acquires++
	}
	if w := m.psm.StepTo(m.state); w != nil {
		return power.OperatingPoint{}, w
	}
	m.acquiring = false
	return m.psm.Profile().On[m.state.OnIndex()], nil
}

func (m *grantAll) ReleaseIdle(hint sim.Time) []*sim.Event {
	m.releases++
	m.lastHint = hint
	if hint != sim.MaxTime {
		m.taskHint = hint
	}
	return nil
}

func fixedSeq(n int, instr int64, idle sim.Time) workload.Sequence {
	seq := make(workload.Sequence, n)
	for i := range seq {
		seq[i] = workload.Item{
			Task:      task.Task{ID: i, Instructions: instr, Class: power.InstrALU, Priority: task.Medium},
			IdleAfter: idle,
		}
	}
	return seq
}

type ipRig struct {
	k      *sim.Kernel
	psm    *acpi.PSM
	mgr    *grantAll
	meter  *stats.EnergyMeter
	ledger *stats.Ledger
	ip     *IP
}

func newIPRig(t *testing.T, seq workload.Sequence, state acpi.State) *ipRig {
	t.Helper()
	k := sim.NewKernel()
	prof := power.DefaultProfile()
	psm := acpi.NewPSM(k, "ip0", prof, acpi.ON1)
	mgr := &grantAll{psm: psm, state: state}
	meter := stats.NewEnergyMeter(k, "ip0")
	ledger := &stats.Ledger{}
	b := New(k, Config{
		Name: "ip0", Profile: prof, Sequence: seq,
		Manager: mgr, PSM: psm, Meter: meter, Ledger: ledger,
	})
	return &ipRig{k: k, psm: psm, mgr: mgr, meter: meter, ledger: ledger, ip: b}
}

func TestIPExecutesWholeSequence(t *testing.T) {
	r := newIPRig(t, fixedSeq(5, 200_000, sim.Ms), acpi.ON1)
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if !r.ip.Finished() || r.ip.TasksDone() != 5 {
		t.Fatalf("Finished=%v TasksDone=%d", r.ip.Finished(), r.ip.TasksDone())
	}
	// Five per-task releases plus the final "no further work" release.
	if r.mgr.acquires != 5 || r.mgr.releases != 6 {
		t.Fatalf("acquires=%d releases=%d", r.mgr.acquires, r.mgr.releases)
	}
	if r.ledger.Len() != 5 {
		t.Fatalf("ledger %d records", r.ledger.Len())
	}
}

func TestIPTaskTiming(t *testing.T) {
	// 200k instructions at ON1 (200 MHz, 1 cycle/instr) = 1 ms exactly.
	r := newIPRig(t, fixedSeq(2, 200_000, 3*sim.Ms), acpi.ON1)
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	recs := r.ledger.Records()
	if recs[0].Done-recs[0].Start != sim.Ms {
		t.Fatalf("task 0 exec %v, want 1ms", recs[0].Done-recs[0].Start)
	}
	// Second task starts after 1ms exec + 3ms idle.
	if recs[1].Request != 4*sim.Ms {
		t.Fatalf("task 1 requested at %v, want 4ms", recs[1].Request)
	}
}

func TestIPSlowerStateStretchesExecution(t *testing.T) {
	fast := newIPRig(t, fixedSeq(1, 400_000, 0), acpi.ON1)
	slow := newIPRig(t, fixedSeq(1, 400_000, 0), acpi.ON4)
	if err := fast.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if err := slow.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	fd := fast.ledger.Records()[0].Service()
	sd := slow.ledger.Records()[0].Service()
	ratio := float64(sd) / float64(fd)
	// ON4 runs 4× slower, plus the ON1→ON4 transition (3 scaling steps).
	if ratio < 3.9 {
		t.Fatalf("ON4/ON1 service ratio %v, want ≈4+", ratio)
	}
}

func TestIPEnergyMatchesProfile(t *testing.T) {
	prof := power.DefaultProfile()
	r := newIPRig(t, fixedSeq(1, 1_000_000, 0), acpi.ON1)
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	got := r.meter.EnergyJ()
	// The closed form: dynamic energy of every cycle plus leakage over the
	// task's duration.
	const n = 1_000_000
	op := prof.On[0]
	want := float64(n)*prof.CyclesPerInstr*prof.InstrWeight[power.InstrALU]*prof.CeffF*op.Vdd*op.Vdd +
		prof.LeakagePower(op.Vdd)*prof.TaskDuration(n, op).Seconds()
	// The meter also integrates idle power before/after, but with zero
	// idle gaps that's negligible here.
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("energy %v, want ≈%v", got, want)
	}
}

func TestIPInstructionClassWeighting(t *testing.T) {
	alu := fixedSeq(1, 1_000_000, 0)
	io := fixedSeq(1, 1_000_000, 0)
	io[0].Task.Class = power.InstrIO
	ra := newIPRig(t, alu, acpi.ON1)
	rb := newIPRig(t, io, acpi.ON1)
	if err := ra.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if err := rb.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if rb.meter.EnergyJ() <= ra.meter.EnergyJ() {
		t.Fatalf("IO-class task energy %v not above ALU's %v",
			rb.meter.EnergyJ(), ra.meter.EnergyJ())
	}
}

func TestIPIdleHintPassedToManager(t *testing.T) {
	r := newIPRig(t, fixedSeq(1, 1000, 9*sim.Ms), acpi.ON1)
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if r.mgr.lastHint != sim.MaxTime {
		t.Fatalf("final hint %v, want the no-more-work sentinel", r.mgr.lastHint)
	}
	if r.mgr.taskHint != 9*sim.Ms {
		t.Fatalf("per-task hint %v, want 9ms", r.mgr.taskHint)
	}
}

func TestIPDoneEventFires(t *testing.T) {
	r := newIPRig(t, fixedSeq(1, 1000, 0), acpi.ON1)
	fired := false
	r.k.Method("w", func() { fired = true }).Sensitive(r.ip.Done()).DontInitialize()
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("Done event never fired")
	}
}

func TestIPBusTransferDelaysStart(t *testing.T) {
	k := sim.NewKernel()
	prof := power.DefaultProfile()
	psm := acpi.NewPSM(k, "ip0", prof, acpi.ON1)
	mgr := &grantAll{psm: psm, state: acpi.ON1}
	meter := stats.NewEnergyMeter(k, "ip0")
	ledger := &stats.Ledger{}
	theBus := bus.New(k, "bus", bus.DefaultConfig())
	var busEnergy float64
	theBus.OnEnergy(func(j float64) { busEnergy += j })
	New(k, Config{
		Name: "ip0", Profile: prof, Sequence: fixedSeq(1, 1000, 0),
		Manager: mgr, PSM: psm, Meter: meter, Ledger: ledger,
		Bus: theBus, BusWords: 100, // 1 µs at 100 MHz
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	rec := ledger.Records()[0]
	if rec.Start-rec.Request < sim.Us {
		t.Fatalf("start delay %v, want >= 1µs bus transfer", rec.Start-rec.Request)
	}
	if want := 100 * bus.DefaultConfig().EnergyPerWord; busEnergy != want {
		t.Fatalf("bus energy %v J, want %v J for 100 words", busEnergy, want)
	}
}

func TestIPRequiredFieldsPanic(t *testing.T) {
	k := sim.NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(k, Config{Name: "x"})
}

func TestIPRecordsExecutionState(t *testing.T) {
	r := newIPRig(t, fixedSeq(1, 1000, 0), acpi.ON3)
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if got := r.ledger.Records()[0].State; got != "ON3" {
		t.Fatalf("recorded state %q, want ON3", got)
	}
}

func arrivalsOf(times []sim.Time, instr int64) workload.ArrivalSequence {
	var arr workload.ArrivalSequence
	for i, at := range times {
		arr = append(arr, workload.Arrival{
			Task: task.Task{ID: i, Instructions: instr, Class: power.InstrALU, Priority: task.Medium},
			At:   at,
		})
	}
	return arr
}

func newOpenLoopRig(t *testing.T, arr workload.ArrivalSequence, state acpi.State) *ipRig {
	t.Helper()
	k := sim.NewKernel()
	prof := power.DefaultProfile()
	psm := acpi.NewPSM(k, "ip0", prof, acpi.ON1)
	mgr := &grantAll{psm: psm, state: state}
	meter := stats.NewEnergyMeter(k, "ip0")
	ledger := &stats.Ledger{}
	b := New(k, Config{
		Name: "ip0", Profile: prof, Arrivals: arr,
		Manager: mgr, PSM: psm, Meter: meter, Ledger: ledger,
	})
	return &ipRig{k: k, psm: psm, mgr: mgr, meter: meter, ledger: ledger, ip: b}
}

func TestOpenLoopIdlesUntilArrival(t *testing.T) {
	// 1 ms tasks arriving every 5 ms: the IP is idle between requests and
	// each service time is exactly the execution time.
	arr := arrivalsOf([]sim.Time{0, 5 * sim.Ms, 10 * sim.Ms}, 200_000)
	r := newOpenLoopRig(t, arr, acpi.ON1)
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if !r.ip.Finished() || r.ip.TasksDone() != 3 {
		t.Fatalf("Finished=%v TasksDone=%d", r.ip.Finished(), r.ip.TasksDone())
	}
	for i, rec := range r.ledger.Records() {
		if rec.Service() != sim.Ms {
			t.Fatalf("task %d service %v, want 1ms", i, rec.Service())
		}
	}
	// Two gaps between the three spaced arrivals, plus the final
	// "no further work" release.
	if r.mgr.releases != 3 {
		t.Fatalf("releases = %d, want 3", r.mgr.releases)
	}
}

func TestOpenLoopQueuesWhenSlow(t *testing.T) {
	// 4 ms of work (at ON4) arriving every 1 ms: the queue builds and
	// service times grow linearly.
	arr := arrivalsOf([]sim.Time{0, sim.Ms, 2 * sim.Ms}, 200_000) // 1ms at ON1 = 4ms at ON4
	r := newOpenLoopRig(t, arr, acpi.ON4)
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	recs := r.ledger.Records()
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Service() <= recs[i-1].Service() {
			t.Fatalf("service times not growing under overload: %v then %v",
				recs[i-1].Service(), recs[i].Service())
		}
	}
	// The manager never sees an idle period while the queue is backed up;
	// the single release is the final "no further work" one.
	if r.mgr.releases != 1 || r.mgr.lastHint != sim.MaxTime {
		t.Fatalf("releases = %d (hint %v) during overload, want only the final one",
			r.mgr.releases, r.mgr.lastHint)
	}
}

func TestOpenLoopRecordsArrivalAsRequest(t *testing.T) {
	arr := arrivalsOf([]sim.Time{3 * sim.Ms}, 200_000)
	r := newOpenLoopRig(t, arr, acpi.ON1)
	if err := r.k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if got := r.ledger.Records()[0].Request; got != 3*sim.Ms {
		t.Fatalf("Request = %v, want the 3ms arrival", got)
	}
}

func TestBothWorkloadsPanics(t *testing.T) {
	k := sim.NewKernel()
	prof := power.DefaultProfile()
	psm := acpi.NewPSM(k, "ip0", prof, acpi.ON1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(k, Config{
		Name: "ip0", Profile: prof,
		Sequence: fixedSeq(1, 100, 0),
		Arrivals: arrivalsOf([]sim.Time{0}, 100),
		Manager:  &grantAll{psm: psm, state: acpi.ON1},
		PSM:      psm, Meter: stats.NewEnergyMeter(k, "m"), Ledger: &stats.Ledger{},
	})
}
