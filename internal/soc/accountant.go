package soc

import (
	"godpm/internal/battery"
	"godpm/internal/gem"
	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/stats"
)

// accountant is the simulation's per-sample spine: every SampleInterval it
// feeds the battery and the thermal plant with the average power drawn
// since the last sample and streams the die temperature into a
// time-weighted accumulator.
//
// Every sample goes through one sampler, entered through run. The ticked
// method calls run for a single sample; the kernel's idle fast-forward
// (sim.GapPeriodic) calls it once per idle stretch, with every sample up
// to the next other event, so a gap of thousands of samples costs one
// kernel round trip instead of one per sample. A call's first sample takes
// the general route, since a meter may have been settled mid-interval;
// after it, nothing but the accountant runs until the call ends, so meter
// powers are constant and every step is exactly one interval. Those steady
// samples run in a loop from locals, classify the battery and the die
// temperature by comparing against the bounds of the classes current at
// the start of the call (no division, no signal read), and fall back to
// the general route for a sample that may change a class. The call ends
// right after the first sample that does more than update the accountant's
// own state — changes a battery or thermal signal, fires a stop condition
// or fork watch, or polls the GEM — and the kernel takes that instant from
// there in ticked order. The same float operations run in the same order
// either way, so results are bit-identical to ticked execution.
//
// A steady sample steps a KiBaM battery and the die node through their
// inlined one-sub-step steps (battery.KiBaM.Step and thermal.Node.Step),
// once the call has checked that one interval is one Euler sub-step for
// both. Calling Drain through the battery.Model interface and Advance,
// whose sub-step loop keeps it from being inlined, would spill and reload
// the loop's live floats around each call, since amd64 saves no float
// register across one. Only the KiBaM is devirtualised: it is the battery
// of every shipped scenario, study and arena scenario. A Linear or Peukert
// cell, or an interval longer than a sub-step, keeps the Drain and
// Advance calls, and TestSteadyStepsInline keeps both steps inlined.
//
// Meters, battery wells and die temperature are stored back once per call;
// between calls all state lives in pre-sized fields. The temperature
// statistics stream in O(1) memory, and the sampler is pinned to zero
// allocations by TestAccountantTickAllocFree and TestAccountantGapAllocFree.
type accountant struct {
	k     *sim.Kernel
	pack  *battery.Pack
	cell  battery.Model // the pack's model; nil on mains, which draws nothing
	plant *thermalPlant

	meters    []*stats.EnergyMeter
	busEnergy *float64 // bus energy meter owned by Run
	// held carries each meter's energy and held power through a sampler
	// call when there are more meters than the sampler's local array
	// holds; nil otherwise.
	held []heldMeter

	// DC-DC regulator between battery and rail (nil: battery sees the load
	// directly); railV is the intermediate rail voltage.
	reg   *power.Regulator
	railV float64

	// g is re-evaluated every tick when gemReeval is set (bus-occupancy
	// limited configurations need the periodic poll).
	g         *gem.GEM
	gemReeval bool

	interval sim.Time
	// intervalSecs caches interval.Seconds(): a sample's step is almost
	// always exactly one interval, and reusing the converted value for
	// every meter, the battery, the plant and the temperature accumulator
	// saves their divisions without changing a bit (the same operation on
	// the same input yields the same value).
	intervalSecs float64
	tick         *sim.Event
	// noFastForward skips the GapPeriodic registration, forcing per-tick
	// scheduling (RunOptions.NoFastForward).
	noFastForward bool

	temp   stats.TimeWeighted // streaming time-weighted die temperature
	lastE  float64            // total energy at the previous sample
	lastAt sim.Time           // time of the previous sample
	// perIP and lastEs hold the per-IP power split and the per-IP energy
	// at the previous sample. Only a per-IP thermal network consumes the
	// split, so both are nil for the single die node.
	perIP  []float64
	lastEs []float64

	// Early-stop machinery (RunOptions.StopWhen and context cancellation).
	// All of it is inert — one branch per tick — when unused, which keeps
	// the bare-run tick allocation-free and bit-identical.
	stops      []StopCondition
	done       <-chan struct{} // ctx.Done(); nil for background contexts
	probe      Probe           // reused every evaluation; no allocation
	stopReason string          // Reason of the condition that fired
	canceled   bool            // ctx was cancelled mid-run

	// watches are the forked-run stop sets (see RunForked): each watch is
	// one fork member's StopWhen list, evaluated every tick against the
	// shared trajectory. A watch that fires stops the kernel — like a solo
	// stop — but the session then snapshots just that member and resumes
	// for the rest. nil for solo runs, so the hot path pays one branch.
	watches []*forkWatch
}

// heldMeter is one meter's state as the sampler carries it within a call.
type heldMeter struct{ energy, power float64 }

// localMeters is how many meters the sampler carries in a local array.
const localMeters = 8

// forkWatch tracks one fork member's stop conditions on a shared session.
type forkWatch struct {
	conds []StopCondition
	fired string // Reason of the first matching condition; "" while live
}

// newAccountant wires an accountant for the assembled SoC. It seeds the
// temperature stream with the initial die temperature at t=0, exactly as
// the Series-based accountant did.
func newAccountant(k *sim.Kernel, cfg *Config, pack *battery.Pack, plant *thermalPlant,
	meters []*stats.EnergyMeter, busEnergy *float64, g *gem.GEM) *accountant {
	a := &accountant{
		k: k, pack: pack, plant: plant,
		meters: meters, busEnergy: busEnergy,
		reg:          cfg.Regulator,
		railV:        cfg.IPs[0].Profile.On[0].Vdd,
		g:            g,
		interval:     cfg.SampleInterval,
		intervalSecs: cfg.SampleInterval.Seconds(),
	}
	if !pack.Mains() {
		a.cell = pack.Model()
	}
	if len(meters) > localMeters {
		a.held = make([]heldMeter, len(meters))
	}
	if plant.network != nil {
		a.perIP = make([]float64, len(meters))
		a.lastEs = make([]float64, len(meters))
	}
	a.gemReeval = g != nil && cfg.GEM.BusOccupancyLimit > 0
	a.temp.Add(0, cfg.InitialTempC)
	return a
}

// maxBatch caps the samples of one sampler call. The context is polled
// once per call, so the cap bounds how many samples a cancelled run still
// executes; a cancelled run returns ctx.Err() and no result, so where
// exactly it stopped never reaches a digest.
const maxBatch = 1024

// start registers the tick method, opts it into the kernel's idle
// fast-forward and schedules the first sample. Runs with observers never
// fast-forward: the observer sampler's tick shares every sample instant,
// which keeps Observer.Sample firing per tick.
func (a *accountant) start() {
	a.tick = a.k.NewEvent("accountant.tick")
	a.k.Method("accountant", func() {
		a.run(a.k.Now(), 1)
		a.tick.Notify(a.interval)
	}).Sensitive(a.tick).DontInitialize()
	if !a.noFastForward {
		a.k.GapPeriodic(a.tick, a.interval, a.run)
	}
	a.tick.Notify(a.interval)
}

// run polls the context once, then takes up to n samples from first,
// capped at maxBatch. It is the tick method's sample and the GapPeriodic
// body.
func (a *accountant) run(first sim.Time, n int) (ran int) {
	a.pollCtx()
	if n > maxBatch {
		n = maxBatch
	}
	return a.sample(first, n)
}

// sample is the sampler. It integrates up to n samples at first,
// first+interval, … — the average power since the previous sample into the
// battery and the thermal plant, the temperature into the streaming
// statistics — and returns how many it took. The kernel's time must be
// first. The stop conditions and fork watches are evaluated after every
// sample. A zero-length first interval is a no-op. Must not allocate.
//
// The prologue settles every meter at the kernel's time, since a meter may
// have been settled mid-interval, and the call's first sample takes the
// general route. Every later sample is steady: one interval after the
// previous one with nothing but the sampler running in between, so each
// meter accrues one interval at its held power. Steady samples run in a
// loop from locals — the meters' energies and powers, the battery wells,
// the die temperature and the battery and thermal classes current at the
// start of the call, which no signal update can change within it — and the
// meters, the wells and the temperature are stored back once per call.
//
// A steady sample that would change a class, and every sample of the
// per-IP network (which writes signals), take the general route instead:
// it recomputes the sample from the same operands, so with the same bits,
// and writes the class to its signal. The call ends right after a sample
// whose work reached the kernel (sim.Kernel.Quiet). A GEM poll reads the
// bus occupancy at the kernel's time, which stays at first, so it limits
// the call to one sample.
func (a *accountant) sample(first sim.Time, n int) (ran int) {
	secs := a.intervalSecs
	if dt := first - a.lastAt; dt != a.interval {
		if dt <= 0 {
			return 1
		}
		secs = dt.Seconds()
	}
	if a.gemReeval {
		n = 1
	}
	// Bus first, then meters in slice order: every result digest depends
	// on this summation order. Only processes move the bus meter, and none
	// runs within a call.
	var local [localMeters]heldMeter
	held := a.held
	if held == nil {
		held = local[:len(a.meters)]
	}
	busE := *a.busEnergy
	e := busE
	for i, m := range a.meters {
		held[i] = heldMeter{energy: m.EnergyJ(), power: m.Power()}
		e += held[i].energy
	}

	checking := len(a.stops) > 0 || len(a.watches) > 0
	cell, pack, node := a.cell, a.pack, a.plant.single
	var w battery.Wells
	var battLo, battHi float64 // the available charges that keep the battery's class
	if cell != nil {
		w = cell.Wells()
		battLo, battHi = pack.ClassRange(pack.Status())
	}
	var tempC, thermLo, thermHi float64 // the temperatures that keep the sensor's class
	if node != nil {
		tempC = node.TempC()
		thermLo, thermHi = node.ClassRange()
	}
	// The temperature mean's running state stays in locals through the
	// loop and is stored back once, as the meters and wells are.
	temp := a.temp.Steps()
	lastE := a.lastE
	t := first
	interval, step := a.interval, a.intervalSecs
	// Every steady sample is one interval, and the fan only switches when
	// the GEM evaluates: in its own process, which does not run within a
	// call, or in a poll, which limits the call to one sample. So whether
	// the battery and the die take a steady sample in one Euler sub-step
	// is settled once per call; when they do, the steady loop calls their
	// inlined one-sub-step steps.
	kibam, _ := cell.(*battery.KiBaM)
	if kibam != nil && !kibam.OneStep(step) {
		kibam = nil
	}
	nodeOneStep := node != nil && node.OneStep(step)
samples:
	for {
		// The general route.
		pAvg := (e - lastE) / secs
		lastE = e
		if cell != nil {
			w = cell.Drain(w, a.batteryDraw(pAvg), secs)
			pack.Refresh(w) // a class change reaches the kernel: Quiet ends the call
		}
		if node != nil {
			tempC = node.Advance(tempC, pAvg, secs)
			if !(tempC >= thermLo && tempC < thermHi) {
				node.Set(tempC) // the sensor may change class: Quiet ends the call if it does
			}
		} else {
			for i := range held {
				a.perIP[i] = (held[i].energy - a.lastEs[i]) / secs
				a.lastEs[i] = held[i].energy
			}
			tempC = a.plant.stepNetwork(a.perIP, secs)
		}
		temp = temp.Add(secs, tempC)
		if a.gemReeval {
			a.g.Reevaluate()
		}
		ran++
		if checking {
			a.check(t, tempC, w, e)
		}
		if ran == n || !a.k.Quiet() {
			break
		}

		// Steady samples, until one takes the general route.
		for {
			t += interval
			secs = step
			e = busE
			for i := range held {
				h := &held[i]
				h.energy += h.power * secs
				e += h.energy
			}
			if node == nil {
				break
			}
			pAvg := (e - lastE) / secs
			sw := w
			if cell != nil {
				if kibam != nil {
					sw = kibam.Step(w, a.batteryDraw(pAvg), secs)
				} else {
					sw = cell.Drain(w, a.batteryDraw(pAvg), secs)
				}
				if !(sw.Available >= battLo && sw.Available < battHi) {
					break
				}
			}
			var sTempC float64
			if nodeOneStep {
				sTempC = node.Step(tempC, pAvg, secs)
			} else {
				sTempC = node.Advance(tempC, pAvg, secs)
			}
			if !(sTempC >= thermLo && sTempC < thermHi) {
				break
			}
			w, tempC, lastE = sw, sTempC, e
			temp = temp.Add(secs, tempC)
			ran++
			if checking {
				a.check(t, tempC, w, e)
				if !a.k.Quiet() {
					break samples
				}
			}
			if ran == n {
				break samples
			}
		}
	}
	if ran > 1 {
		for i, m := range a.meters {
			m.SetSettled(t, held[i].energy)
		}
	}
	if cell != nil {
		cell.SetWells(w)
	}
	if node != nil {
		node.Set(tempC)
	}
	a.temp.SetSteps(temp, t, ran)
	a.lastE, a.lastAt = lastE, t
	return ran
}

// check fills the stop probe with the sample at t and evaluates the stop
// conditions and fork watches against it.
func (a *accountant) check(t sim.Time, tempC float64, w battery.Wells, energyJ float64) {
	soc := 1.0 // a mains pack reports full charge
	if a.cell != nil {
		soc = a.cell.SoCOf(w.Available)
	}
	a.probe.Now, a.probe.TempC, a.probe.SoC, a.probe.EnergyJ = t, tempC, soc, energyJ
	a.checkStop()
}

// pollCtx checks the context once per sampler call and stops the kernel
// if it was cancelled.
func (a *accountant) pollCtx() {
	if a.done == nil || a.canceled || a.stopReason != "" {
		return
	}
	select {
	case <-a.done:
		a.canceled = true
		a.k.Stop()
	default:
	}
}

// checkStop evaluates the fork watches and the stop conditions against the
// probe, which the sampler has just filled. A stop condition fires at most
// once; the kernel then halts at the end of the current delta cycle.
func (a *accountant) checkStop() {
	if a.stopReason != "" || a.canceled {
		return
	}
	a.probe.Battery = a.pack.Status()
	if len(a.watches) > 0 {
		a.checkWatches()
	}
	for i := range a.stops {
		if a.stops[i].Eval(&a.probe) {
			a.stopReason = a.stops[i].Reason
			a.k.Stop()
			return
		}
	}
}

// checkWatches evaluates every live fork watch. Unlike the solo list it
// does not short-circuit: every member whose condition holds at this
// instant fires now, exactly as each member's solo run would have, even
// when several members cross in the same tick. Any firing stops the
// kernel so the session can snapshot the fired members and resume.
// Evaluation is pure (conditions only read the probe), so watching extra
// members never changes the shared trajectory.
func (a *accountant) checkWatches() {
	fired := false
	for _, w := range a.watches {
		if w.fired != "" {
			continue
		}
		for i := range w.conds {
			if w.conds[i].Eval(&a.probe) {
				w.fired = w.conds[i].Reason
				fired = true
				break
			}
		}
	}
	if fired {
		a.k.Stop()
	}
}

// batteryDraw maps the load power to the power the battery supplies.
func (a *accountant) batteryDraw(pLoad float64) float64 {
	if a.reg == nil {
		return pLoad
	}
	return a.reg.InputPower(pLoad, a.railV)
}
