package soc

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"godpm/internal/battery"
	"godpm/internal/sim"
	"godpm/internal/stats"
	"godpm/internal/task"
	"godpm/internal/thermal"
	"godpm/internal/workload"
)

// buildAccountant assembles a minimal kernel + accountant: one battery
// pack, the single-node thermal plant and two idle energy meters, driven
// only by the accountant's own tick event — through the idle fast-forward
// when fastForward is set, through the ticked method otherwise.
func buildAccountant(t *testing.T, fastForward bool) (*sim.Kernel, *accountant, sim.Time) {
	return buildAccountantWith(t, fastForward, Config{}, 0.4, 0.2)
}

// buildAccountantWith is buildAccountant with cfg's battery and initial
// temperature and the two meters' powers given.
func buildAccountantWith(t *testing.T, fastForward bool, cfg Config, powerA, powerB float64) (*sim.Kernel, *accountant, sim.Time) {
	t.Helper()
	cfg.IPs = []IPSpec{
		{Name: "a", Sequence: workload.Sequence{{Task: task.Task{ID: 1, Instructions: 100}, IdleAfter: sim.Ms}}},
		{Name: "b", Sequence: workload.Sequence{{Task: task.Task{ID: 1, Instructions: 100}, IdleAfter: sim.Ms}}},
	}
	cfg, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	model, err := cfg.Battery.build()
	if err != nil {
		t.Fatal(err)
	}
	pack := battery.NewPack(k, "battery", model, battery.DefaultThresholds(), cfg.Battery.Mains)
	plant := buildThermalPlant(k, &cfg, []string{"a", "b"})
	meters := []*stats.EnergyMeter{stats.NewEnergyMeter(k, "a"), stats.NewEnergyMeter(k, "b")}
	busEnergy := 0.0
	meters[0].SetPower(powerA)
	meters[1].SetPower(powerB)
	acct := newAccountant(k, &cfg, pack, plant, meters, &busEnergy, nil)
	acct.noFastForward = !fastForward
	acct.start()
	return k, acct, cfg.SampleInterval
}

// TestAccountantTickAllocFree pins one full accountant tick — kernel timed
// event, method activation, battery step, thermal step, temperature
// streaming, re-notify — to zero allocations.
func TestAccountantTickAllocFree(t *testing.T) {
	k, _, interval := buildAccountant(t, false)
	// Warm up: grow kernel buffers and settle battery signal activity.
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
		t.Errorf("accountant tick: %v allocs, want 0", got)
	}
}

// TestAccountantGapAllocFree pins the batched path to zero allocations:
// an idle stretch of several sampler calls (more samples than one call's
// cap) crossed through the kernel's fast-forward.
func TestAccountantGapAllocFree(t *testing.T) {
	k, _, interval := buildAccountant(t, true)
	const gap = 3*maxBatch + 17
	for i := 0; i < 4; i++ {
		if err := k.Run(k.Now() + gap*interval); err != nil {
			t.Fatal(err)
		}
	}
	before := k.FastForwardedInstants()
	got := testing.AllocsPerRun(100, func() {
		if err := k.Run(k.Now() + gap*interval); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("accountant gap: %v allocs, want 0", got)
	}
	if k.FastForwardedInstants() <= before {
		t.Fatal("no instants were fast-forwarded")
	}
}

// TestAccountantClassChangesMatchTicked: a battery or thermal class
// change inside an idle gap, where the sampler runs its steady loop, lands
// at the same instant as in a ticked run, and the run ends in the same
// state. Each battery starts just above a class bound, so it crosses it a
// few dozen samples into the gap, and 1.2 W heats the die from 45 °C past
// the 68 °C Medium threshold.
func TestAccountantClassChangesMatchTicked(t *testing.T) {
	for _, bat := range []BatteryConfig{
		{Kind: "linear", CapacityJ: 60, InitialSoC: 0.3001},
		{Kind: "kibam", CapacityJ: 20, InitialSoC: 0.3005, KiBaMC: 0.35, KiBaMK: 0.08},
	} {
		type change struct {
			at    sim.Time
			batt  battery.Status
			therm thermal.Class
		}
		run := func(fastForward bool) (changes []change, w battery.Wells, tempC, mean float64) {
			k, a, interval := buildAccountantWith(t, fastForward, Config{Battery: bat}, 0.8, 0.4)
			a.pack.StatusSignal().OnChange(func(at sim.Time, s battery.Status) { changes = append(changes, change{at: at, batt: s}) })
			a.plant.classSignal().OnChange(func(at sim.Time, c thermal.Class) { changes = append(changes, change{at: at, therm: c}) })
			end := 3000 * interval
			if err := k.Run(end); err != nil {
				t.Fatal(err)
			}
			return changes, a.cell.Wells(), a.plant.tempC(), a.temp.MeanUntil(end)
		}
		ticked, tw, tt, tm := run(false)
		fast, fw, ft, fm := run(true)
		if len(ticked) < 2 {
			t.Fatalf("%s: %d class changes, want a battery and a thermal one", bat.Kind, len(ticked))
		}
		if fmt.Sprint(fast) != fmt.Sprint(ticked) || fw != tw || ft != tt || fm != tm {
			t.Fatalf("%s: fast-forward changes %v, wells %v, %v °C, mean %v; ticked %v, %v, %v °C, %v",
				bat.Kind, fast, fw, ft, fm, ticked, tw, tt, tm)
		}
	}
}

// TestAccountantStreamsStatistics checks the streaming accumulator against
// a retained reference over the same tick sequence: identical mean and
// peak, bit for bit. The reference integrates the piecewise-constant
// samples left to right, the order the accumulator promises.
func TestAccountantStreamsStatistics(t *testing.T) {
	k, acct, interval := buildAccountant(t, true)
	seed := acct.plant.tempC() // the seeded initial temperature
	times, vals := []sim.Time{0}, []float64{seed}
	refPeak := seed
	const ticks = 500
	for i := 0; i < ticks; i++ {
		if err := k.Run(k.Now() + interval); err != nil {
			t.Fatal(err)
		}
		tc := acct.plant.tempC()
		times, vals = append(times, k.Now()), append(vals, tc)
		if tc > refPeak {
			refPeak = tc
		}
	}
	var area float64
	for i := range times {
		until := k.Now()
		if i+1 < len(times) {
			until = times[i+1]
		}
		area += vals[i] * (until - times[i]).Seconds()
	}
	refMean := area / (k.Now() - times[0]).Seconds()
	if got := acct.temp.MeanUntil(k.Now()); got != refMean {
		t.Errorf("streaming mean = %v, reference mean = %v", got, refMean)
	}
	if got := acct.temp.Max(); got != refPeak {
		t.Errorf("streaming peak = %v, reference peak = %v", got, refPeak)
	}
	if acct.temp.Len() != len(times) {
		t.Errorf("streaming saw %d samples, reference %d", acct.temp.Len(), len(times))
	}
	// Temperature must actually have moved (0.6 W into the default node),
	// or the comparison above is vacuous.
	if acct.temp.Max() <= seed {
		t.Errorf("temperature never rose: max %v, seed %v", acct.temp.Max(), seed)
	}
}

// TestEnergyMeterAllocFree pins the meter's settle/set/add hot path.
func TestEnergyMeterAllocFree(t *testing.T) {
	k := sim.NewKernel()
	m := stats.NewEnergyMeter(k, "m")
	e := k.NewEvent("t")
	k.Method("advance", func() {}).Sensitive(e).DontInitialize()
	got := testing.AllocsPerRun(1000, func() {
		e.Notify(sim.Us)
		if err := k.Run(k.Now() + sim.Us); err != nil {
			t.Fatal(err)
		}
		m.SetPower(0.5)
		m.AddEnergy(1e-6)
		if m.EnergyJ() <= 0 {
			t.Fatal("no energy accumulated")
		}
	})
	if got != 0 {
		t.Errorf("EnergyMeter hot path: %v allocs, want 0", got)
	}
}

// TestCancelDuringIdleGap cancels the context in the middle of a long idle
// gap, from a stop condition's probe. The context is polled once per
// sampler call, so the run must return ctx.Err() having sampled at most
// one call's cap past the cancellation.
func TestCancelDuringIdleGap(t *testing.T) {
	cfg := Config{
		IPs: []IPSpec{{Name: "ip0", Sequence: workload.Sequence{
			{Task: task.Task{ID: 1, Instructions: 100}, IdleAfter: 10 * sim.Sec},
			{Task: task.Task{ID: 2, Instructions: 100}},
		}}},
		Horizon: 20 * sim.Sec,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelAt = sim.Sec
	var last sim.Time
	spy := StopCondition{Reason: "spy", Eval: func(p *Probe) bool {
		last = p.Now
		if p.Now >= cancelAt {
			cancel()
		}
		return false
	}}
	res, err := RunWith(ctx, cfg, RunOptions{StopWhen: []StopCondition{spy}})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("RunWith = %v, %v; want no result and context.Canceled", res, err)
	}
	const interval = 100 * sim.Us // the normalized default
	if last < cancelAt || last > cancelAt+maxBatch*interval {
		t.Errorf("last sample at %s, want within [%s, %s]", last, cancelAt, cancelAt+maxBatch*interval)
	}
}
