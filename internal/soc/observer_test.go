package soc

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"godpm/internal/acpi"
	"godpm/internal/battery"
	"godpm/internal/sim"
	"godpm/internal/stats"
	"godpm/internal/thermal"
	"godpm/internal/workload"
)

// observedConfig is a multi-IP DPM configuration with GEM and bus — enough
// moving parts that every observer callback kind fires.
func observedConfig() Config {
	return Config{
		IPs: []IPSpec{
			{Name: "cpu", Sequence: workload.HighActivity(7, 25).MustGenerate()},
			{Name: "dsp", Sequence: workload.LowActivity(8, 25).MustGenerate()},
		},
		Policy:   PolicyDPM,
		UseGEM:   true,
		Battery:  DefaultBattery(0.55),
		BusWords: 16,
	}
}

// recordObserver overrides every callback, counting deliveries.
type recordObserver struct {
	NopObserver
	info                                    RunInfo
	states, transitions, tasks              int
	samples, battery, thermal, starts, ends int
	lastSample                              Sample
	endResult                               *Result
}

func (o *recordObserver) RunStart(info *RunInfo) {
	o.starts++
	o.info = *info
	o.info.IPs = append([]string(nil), info.IPs...)
}
func (o *recordObserver) PSMState(t sim.Time, ip int, s acpi.State)  { o.states++ }
func (o *recordObserver) PSMTransition(t sim.Time, ip int, a bool)   { o.transitions++ }
func (o *recordObserver) TaskDone(t sim.Time, rec *stats.TaskRecord) { o.tasks++ }
func (o *recordObserver) Sample(t sim.Time, s *Sample) {
	o.samples++
	o.lastSample.TempC, o.lastSample.SoC = s.TempC, s.SoC
	o.lastSample.PowerW = append(o.lastSample.PowerW[:0], s.PowerW...)
}
func (o *recordObserver) BatteryStatus(t sim.Time, st battery.Status) { o.battery++ }
func (o *recordObserver) ThermalClass(t sim.Time, c thermal.Class)    { o.thermal++ }
func (o *recordObserver) RunEnd(res *Result)                          { o.ends++; o.endResult = res }

// TestObservedRunBitIdentical is the determinism contract the batch
// engine's caching rests on: attaching observers must not perturb the
// simulation in any way — EnergyJ, AvgTempC and the kernel's delta-cycle
// checksum come out bit-identical to a bare Run of the same Config.
func TestObservedRunBitIdentical(t *testing.T) {
	cfg := observedConfig()
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordObserver{}
	watched, err := RunWith(context.Background(), cfg, RunOptions{Observers: []Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	if bare.EnergyJ != watched.EnergyJ {
		t.Errorf("EnergyJ: bare %v, observed %v", bare.EnergyJ, watched.EnergyJ)
	}
	if bare.AvgTempC != watched.AvgTempC {
		t.Errorf("AvgTempC: bare %v, observed %v", bare.AvgTempC, watched.AvgTempC)
	}
	if bare.Deltas != watched.Deltas {
		t.Errorf("Deltas: bare %d, observed %d", bare.Deltas, watched.Deltas)
	}
	if bare.Duration != watched.Duration || bare.TasksDone != watched.TasksDone {
		t.Errorf("Duration/TasksDone diverged: %v/%d vs %v/%d",
			bare.Duration, bare.TasksDone, watched.Duration, watched.TasksDone)
	}
	for name, e := range bare.EnergyByIP {
		if watched.EnergyByIP[name] != e {
			t.Errorf("EnergyByIP[%s]: bare %v, observed %v", name, e, watched.EnergyByIP[name])
		}
	}
}

// TestObserverCallbackDelivery checks that every callback kind fires and
// that the RunInfo snapshot matches the configuration.
func TestObserverCallbackDelivery(t *testing.T) {
	cfg := observedConfig()
	obs := &recordObserver{}
	res, err := RunWith(context.Background(), cfg, RunOptions{Observers: []Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	if obs.starts != 1 || obs.ends != 1 {
		t.Fatalf("starts=%d ends=%d, want 1/1", obs.starts, obs.ends)
	}
	if obs.endResult != res {
		t.Error("RunEnd result is not the returned Result")
	}
	if len(obs.info.IPs) != 2 || obs.info.IPs[0] != "cpu" || obs.info.IPs[1] != "dsp" {
		t.Errorf("RunInfo.IPs = %v", obs.info.IPs)
	}
	if obs.info.BatterySignal != "battery.status" || obs.info.ThermalSignal != "die.class" {
		t.Errorf("signal names: %q, %q", obs.info.BatterySignal, obs.info.ThermalSignal)
	}
	if obs.tasks != res.TasksDone {
		t.Errorf("TaskDone fired %d times, want %d", obs.tasks, res.TasksDone)
	}
	if obs.states == 0 || obs.transitions == 0 {
		t.Errorf("PSM callbacks: states=%d transitions=%d, want > 0", obs.states, obs.transitions)
	}
	// One sample fires per normalized SampleInterval (default 100 µs); the
	// tick at the stop instant itself may or may not run depending on the
	// completion delta, so allow one sample of slack.
	want := int(res.Duration / (100 * sim.Us))
	if obs.samples < want-1 || obs.samples > want+1 {
		t.Errorf("samples = %d, want about %d (duration %v)", obs.samples, want, res.Duration)
	}
	if len(obs.lastSample.PowerW) != 2 || obs.lastSample.TempC <= 0 {
		t.Errorf("last sample: %+v", obs.lastSample)
	}
}

// TestStopConditions exercises each early-stop class.
func TestStopConditions(t *testing.T) {
	base := observedConfig()
	full, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("energy budget", func(t *testing.T) {
		budget := full.EnergyJ / 4
		res, err := RunWith(context.Background(), base, RunOptions{
			StopWhen: []StopCondition{StopOnEnergyBudget(budget)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.StopReason == "" || res.Completed {
			t.Fatalf("StopReason=%q Completed=%v, want early stop", res.StopReason, res.Completed)
		}
		if res.Duration >= full.Duration {
			t.Errorf("did not stop early: %v >= %v", res.Duration, full.Duration)
		}
		// One sample interval of slack: the condition is evaluated per tick.
		if res.EnergyJ > budget+budget/2 {
			t.Errorf("EnergyJ %v far beyond budget %v", res.EnergyJ, budget)
		}
	})

	t.Run("temperature ceiling", func(t *testing.T) {
		res, err := RunWith(context.Background(), base, RunOptions{
			StopWhen: []StopCondition{StopOnTemperature(1)}, // below ambient: first tick
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.StopReason != "temp>=1" {
			t.Fatalf("StopReason = %q", res.StopReason)
		}
	})

	t.Run("battery empty", func(t *testing.T) {
		cfg := base
		cfg.Battery = DefaultBattery(0.06) // one tick from the Empty class
		cfg.Horizon = 300 * sim.Sec
		res, err := RunWith(context.Background(), cfg, RunOptions{
			StopWhen: []StopCondition{StopOnBatteryEmpty()},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.StopReason != "battery-empty" {
			t.Fatalf("StopReason = %q", res.StopReason)
		}
		if res.FinalBatteryStatus != battery.Empty {
			t.Errorf("FinalBatteryStatus = %v", res.FinalBatteryStatus)
		}
	})

	t.Run("first match wins", func(t *testing.T) {
		res, err := RunWith(context.Background(), base, RunOptions{
			StopWhen: []StopCondition{StopOnTemperature(1), StopOnEnergyBudget(0)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.StopReason != "temp>=1" {
			t.Fatalf("StopReason = %q, want the first matching condition", res.StopReason)
		}
	})

	t.Run("wall clock is volatile", func(t *testing.T) {
		opts := RunOptions{StopWhen: []StopCondition{StopOnWallClock(time.Hour)}}
		if !opts.Volatile() {
			t.Error("wall-clock options not volatile")
		}
		if (RunOptions{StopWhen: []StopCondition{StopOnBatteryEmpty()}}).Volatile() {
			t.Error("battery condition should not be volatile")
		}
	})
}

// TestRunWithCancellation: a cancelled context aborts the run at the next
// sample tick with ctx.Err().
func TestRunWithCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunWith(ctx, observedConfig(), RunOptions{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// A run shorter than one sample tick must still honour the context:
	// the entry check covers what the per-tick poll cannot see.
	short := observedConfig()
	short.Horizon = 10 * sim.Us // below the 100 µs sample interval
	if _, err := RunWith(ctx, short, RunOptions{}); err != context.Canceled {
		t.Fatalf("sub-tick run: err = %v, want context.Canceled", err)
	}
}

// brokenObserver fails during RunStart, like a tracer whose file cannot be
// written.
type brokenObserver struct {
	NopObserver
	failed error
}

func (o *brokenObserver) RunStart(*RunInfo) { o.failed = errBroken }
func (o *brokenObserver) Err() error        { return o.failed }

var errBroken = fmt.Errorf("write refused")

// TestObserverSetupErrorFailsFast: an observer already broken after
// RunStart aborts the run before the kernel starts, preserving the old
// fail-fast behaviour of Config.TraceVCD's header write.
func TestObserverSetupErrorFailsFast(t *testing.T) {
	obs := &brokenObserver{}
	start := time.Now()
	_, err := RunWith(context.Background(), observedConfig(), RunOptions{
		Observers: []Observer{obs},
	})
	if err == nil || !strings.Contains(err.Error(), "write refused") {
		t.Fatalf("err = %v, want wrapped observer failure", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("setup failure took %v — did the simulation run anyway?", elapsed)
	}
}

// TestUnobservedDispatchAllocFree pins the no-observer run: with no
// observers registered and only value-probing stop conditions, the
// accountant tick — now including the stop-condition check — must stay at
// zero allocations per event, protecting the allocation-free hot path.
func TestUnobservedDispatchAllocFree(t *testing.T) {
	k, acct, interval := buildAccountant(t, true)
	acct.stops = []StopCondition{StopOnEnergyBudget(1e18), StopOnBatteryEmpty()}
	for i := 0; i < 64; i++ {
		if err := k.Run(k.Now() + interval); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(1000, func() {
		if err := k.Run(k.Now() + interval); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("unobserved tick with stop conditions: %v allocs/event, want 0", got)
	}
	if acct.stopReason != "" {
		t.Fatalf("spurious stop: %q", acct.stopReason)
	}
}
