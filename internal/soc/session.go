package soc

import (
	"context"
	"fmt"
	"sort"
	"time"

	"godpm/internal/acpi"
	"godpm/internal/battery"
	"godpm/internal/bus"
	"godpm/internal/gem"
	"godpm/internal/ip"
	"godpm/internal/lem"
	"godpm/internal/policy"
	"godpm/internal/sim"
	"godpm/internal/stats"
	"godpm/internal/workload"
)

// session is one fully assembled SoC simulation that can be advanced to
// successive cut points. RunWith builds one, runs it to the horizon and
// finishes it; RunForked builds one and advances it through several
// members' horizons/stop conditions, finishing a Result at each cut
// without perturbing the live trajectory — the sweep warm-start: members
// share the simulated prefix instead of each re-running it from t=0.
type session struct {
	cfg Config // normalized; the accountant and observers point into it
	k   *sim.Kernel

	pack       *battery.Pack
	plant      *thermalPlant
	theBus     *bus.Bus
	busEnergyJ float64
	ledger     *stats.Ledger
	meters     []*stats.EnergyMeter
	ips        []*ip.IP
	lems       map[string]*lem.LEM
	g          *gem.GEM
	disp       *dispatcher
	acct       *accountant
	ipNames    []string

	wallStart time.Time
}

// newSession is the prelude every run shares. It honours an
// already-ended context (a run shorter than one SampleInterval never
// reaches the in-run cancellation poll), refuses the zero NormalConfig,
// assembles the SoC the normalized configuration describes, registers
// the accountant and schedules the first sample. The kernel has not run
// yet.
func newSession(ctx context.Context, n NormalConfig, opts RunOptions) (*session, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	cfg := n.cfg
	if len(cfg.IPs) == 0 {
		return nil, fmt.Errorf("soc: the zero NormalConfig describes no system; build one with Config.Normalize")
	}
	s := &session{cfg: cfg}
	k := sim.NewKernel()
	s.k = k

	model, err := cfg.Battery.build()
	if err != nil {
		return nil, err
	}
	s.pack = battery.NewPack(k, "battery", model, battery.DefaultThresholds(), cfg.Battery.Mains)
	s.ipNames = make([]string, len(cfg.IPs))
	for i := range cfg.IPs {
		s.ipNames[i] = cfg.IPs[i].Name
	}
	s.plant = buildThermalPlant(k, &s.cfg, s.ipNames)

	if cfg.BusWords > 0 {
		s.theBus = bus.New(k, "bus", cfg.Bus)
		s.theBus.OnEnergy(func(j float64) { s.busEnergyJ += j })
	}

	s.ledger = &stats.Ledger{}
	s.meters = make([]*stats.EnergyMeter, len(cfg.IPs))
	psms := make([]*acpi.PSM, len(cfg.IPs))
	s.lems = make(map[string]*lem.LEM, len(cfg.IPs))
	s.ips = make([]*ip.IP, len(cfg.IPs))

	if cfg.UseGEM {
		s.g = gem.New(k, "gem", cfg.GEM, s.pack, s.plant.gemView())
	}

	if len(opts.Observers) > 0 {
		s.disp = &dispatcher{obs: opts.Observers, meters: s.meters}
	}

	for i, spec := range cfg.IPs {
		s.meters[i] = stats.NewEnergyMeter(k, spec.Name)
		psms[i] = acpi.NewPSM(k, spec.Name, spec.Profile, spec.InitialState)

		var mgr ip.Manager
		switch cfg.Policy {
		case PolicyDPM:
			l := lem.New(k, spec.Name+".lem", psms[i], s.pack, s.plant.lemSource(i), cfg.LEM.makeConfig())
			if s.g != nil {
				meter := s.meters[i]
				id, err := s.g.Register(spec.Name, spec.StaticPriority, meter.Power)
				if err != nil {
					return nil, err
				}
				l.AttachGEM(s.g, id)
			}
			s.lems[spec.Name] = l
			mgr = l
		case PolicyAlwaysOn:
			mgr = policy.NewAlwaysOn(psms[i])
		case PolicyTimeout:
			mgr = policy.NewFixedTimeout(k, psms[i], cfg.Timeout, cfg.TimeoutSleepState)
		case PolicyGreedy:
			mgr = policy.NewGreedy(psms[i], cfg.GreedySleepState)
		case PolicyOracle:
			mgr = policy.NewOracle(psms[i])
		default:
			return nil, fmt.Errorf("soc: unknown policy %q", cfg.Policy)
		}

		ipCfg := ip.Config{
			Name:        spec.Name,
			Profile:     spec.Profile,
			Sequence:    spec.Sequence,
			Arrivals:    spec.Arrivals,
			Manager:     mgr,
			PSM:         psms[i],
			Meter:       s.meters[i],
			Ledger:      s.ledger,
			Bus:         s.theBus,
			BusWords:    cfg.BusWords,
			BusPriority: spec.StaticPriority,
		}
		if s.disp != nil {
			ipCfg.OnTask = s.disp.taskDone
		}
		s.ips[i] = ip.New(k, ipCfg)
	}

	// Instrumentation: hook the dispatcher onto the assembled components
	// and announce the run. The sampler is registered here — before the
	// completion watcher and the accountant — so its tick runs first at
	// every sample instant, exactly where the old CSV sampler sat.
	if s.disp != nil {
		s.disp.attach(psms, s.pack, s.plant)
		initialStates := make([]acpi.State, len(psms))
		for i := range psms {
			initialStates[i] = psms[i].StateSignal().Read()
		}
		s.disp.runStart(&RunInfo{
			Config:         &s.cfg,
			IPs:            s.ipNames,
			InitialStates:  initialStates,
			InitialBattery: s.pack.Status(),
			InitialThermal: s.plant.classSignal().Read(),
			BatterySignal:  s.pack.StatusSignal().Name(),
			ThermalSignal:  s.plant.classSignal().Name(),
		})
		// Fail fast on setup errors (e.g. a trace header that cannot be
		// written) instead of simulating to completion for nothing.
		if err := s.disp.err(); err != nil {
			return nil, fmt.Errorf("soc: observer: %w", err)
		}
		s.disp.startSampler(k, cfg.SampleInterval)
	}

	// Completion watcher: stop the kernel when every IP finished.
	doneEvents := make([]*sim.Event, len(s.ips))
	for i, b := range s.ips {
		doneEvents[i] = b.Done()
	}
	k.Method("completion", func() {
		for _, b := range s.ips {
			if !b.Finished() {
				return
			}
		}
		k.Stop()
	}).Sensitive(doneEvents...).DontInitialize()

	// Power accountant: every SampleInterval, feed the battery and the
	// thermal node with the average power since the last sample and stream
	// the temperature statistics (see accountant.go — O(1) memory, zero
	// allocations per tick).
	if s.g != nil && cfg.GEM.BusOccupancyLimit > 0 && s.theBus != nil {
		s.g.SetBusProbe(s.theBus.Occupancy)
	}
	s.acct = newAccountant(k, &s.cfg, s.pack, s.plant, s.meters, &s.busEnergyJ, s.g)
	s.acct.stops = opts.StopWhen
	s.acct.noFastForward = opts.NoFastForward
	if ctx != nil {
		s.acct.done = ctx.Done()
	}
	s.acct.start()

	s.wallStart = time.Now()
	s.acct.probe.wallStart = s.wallStart
	return s, nil
}

// advance runs the kernel until the horizon or an earlier stop, and
// returns ctx.Err() if the run was cancelled on the way.
func (s *session) advance(ctx context.Context, until sim.Time) error {
	if err := s.k.Run(until); err != nil {
		return err
	}
	if s.acct.canceled {
		return ctx.Err()
	}
	return nil
}

// allFinished reports whether every IP has drained its workload.
func (s *session) allFinished() bool {
	for _, b := range s.ips {
		if !b.Finished() {
			return false
		}
	}
	return true
}

// finish builds the Result of a run that ends at the kernel's current
// pause point (the kernel must not be mid-Run). It is the one place a
// Result is assembled: RunWith calls it once, at the end of the run, and
// RunForked once per member, at the member's cut.
//
// The final partial sample, from the last sample instant to now, runs on
// values and leaves the live state untouched: peeked energy meters, the
// battery wells drained as a value, the die temperature advanced as a
// value into a copy of the temperature accumulator. Its arithmetic is
// accountant.sample's term for term, so a forked session can resume past
// the cut on exactly the trajectory a longer solo run follows.
//
// The Result shares the session's ledger and LEM stat maps; a caller that
// resumes the kernel afterwards must deep-copy them first (see RunForked).
func (s *session) finish(stopReason string) *Result {
	k, a := s.k, s.acct
	now := k.Now()

	temp := a.temp // value copy of the streaming accumulator
	finalSoC := s.pack.SoC()
	if dt := now - a.lastAt; dt > 0 {
		secs := a.intervalSecs
		if dt != a.interval {
			secs = dt.Seconds()
		}
		// Bus first, then meters in slice order, as accountant.sample sums.
		e := s.busEnergyJ
		for i, m := range s.meters {
			pe := m.PeekEnergyJ()
			e += pe
			if a.perIP != nil {
				// Sampler scratch: every sample rewrites it before reading.
				a.perIP[i] = (pe - a.lastEs[i]) / secs
			}
		}
		pAvg := (e - a.lastE) / secs
		if a.cell != nil {
			finalSoC = a.cell.SoCOf(a.cell.Drain(a.cell.Wells(), a.batteryDraw(pAvg), secs).Available)
		}
		temp.Add(now, s.plant.peekTempC(pAvg, a.perIP, dt))
		if a.gemReeval {
			// Every sample of a bus-polled GEM re-evaluates it, the final
			// partial one included. This mutates the live GEM, which is
			// why RunForked refuses such configurations.
			s.g.Reevaluate()
		}
	}

	res := &Result{
		EnergyByIP: make(map[string]float64, len(s.meters)),
		Ledger:     s.ledger,
		Duration:   now,
		AmbientC:   s.plant.ambient,
		BusEnergyJ: s.busEnergyJ,
		StopReason: stopReason,
	}
	for i, m := range s.meters {
		pe := m.PeekEnergyJ()
		res.EnergyByIP[s.cfg.IPs[i].Name] = pe
		res.EnergyJ += pe
	}
	res.EnergyJ += s.busEnergyJ
	res.AvgTempC = temp.MeanUntil(now)
	res.PeakTempC = temp.Max()
	res.Completed = s.allFinished()
	for _, b := range s.ips {
		res.TasksDone += b.TasksDone()
	}
	res.Cycles = res.Duration.Seconds() * s.cfg.BaseClockHz
	res.WallSeconds = time.Since(s.wallStart).Seconds()
	res.Deltas = k.DeltaCount()
	res.FinalSoC = finalSoC
	res.FinalBatteryStatus = s.pack.Status()
	res.LEMStats = make(map[string]lem.Stats, len(s.lems))
	for name, l := range s.lems {
		res.LEMStats[name] = l.Stats()
	}
	if s.g != nil {
		res.GEMEvaluations = s.g.Evaluations()
		res.FanSwitches = s.g.FanSwitches()
	}
	if s.theBus != nil {
		res.BusOccupancy = s.theBus.Occupancy()
	}
	return res
}

func copyIntMap(m map[string]int) map[string]int {
	cp := make(map[string]int, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

// ForkMember describes one member of a forked run group: how far (or
// until which stop condition) the shared simulation runs for it. All
// members share every other aspect of the configuration.
type ForkMember struct {
	// Horizon bounds this member's run (0 uses the config's normalized
	// horizon). Members are simulated in ascending horizon order off one
	// shared trajectory.
	Horizon sim.Time
	// StopWhen ends this member's run early, exactly as
	// RunOptions.StopWhen would in a solo run. Conditions must be pure
	// functions of the Probe; volatile (wall-clock) conditions are
	// rejected because members snapshot at different host times.
	StopWhen []StopCondition
}

// RunForked simulates cfg once and returns one Result per member, as if
// each member had been run solo via RunWith with its Horizon and StopWhen
// — bit-identically so: members differing only in horizon/stop share one
// trajectory, so the common prefix is simulated once instead of once per
// member ("sweep warm-start"). The kernel pauses at each member's cut
// point (its horizon, its first matching stop condition, or workload
// completion), the member's Result is finished there without perturbing
// the live state, and the run then resumes for the remaining members.
//
// Results are indexed like members. Configurations that poll the GEM
// every sample tick (UseGEM with GEM.BusOccupancyLimit > 0) are not
// forkable — finishing a member re-evaluates the live GEM — and return an
// error, as do volatile stop conditions. Cancellation is polled like
// RunWith's.
//
// RunForked normalizes cfg and takes the normalized route,
// NormalConfig.RunForked.
func RunForked(ctx context.Context, cfg Config, members []ForkMember) ([]*Result, error) {
	n, err := cfg.Normalize(workload.Spec.Materialize)
	if err != nil {
		return nil, err
	}
	return n.RunForked(ctx, members)
}

// RunForked runs the members off the normalized configuration like the
// package-level RunForked, without normalizing it again. A member's zero
// Horizon selects the configuration's normalized horizon.
func (n NormalConfig) RunForked(ctx context.Context, members []ForkMember) ([]*Result, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("soc: RunForked needs at least one member")
	}
	s, err := newSession(ctx, n, RunOptions{})
	if err != nil {
		return nil, err
	}
	if s.acct.gemReeval {
		return nil, fmt.Errorf("soc: RunForked: bus-occupancy GEM polling is not forkable")
	}
	for _, m := range members {
		for _, c := range m.StopWhen {
			if c.Volatile {
				return nil, fmt.Errorf("soc: RunForked: volatile stop condition %q is not forkable", c.Reason)
			}
		}
	}

	// Watch every member's conditions on the shared trajectory and order
	// the pending cuts by horizon.
	type pending struct {
		idx     int
		horizon sim.Time
		watch   *forkWatch
	}
	queue := make([]*pending, len(members))
	for i, m := range members {
		h := m.Horizon
		if h <= 0 {
			h = s.cfg.Horizon
		}
		p := &pending{idx: i, horizon: h}
		if len(m.StopWhen) > 0 {
			p.watch = &forkWatch{conds: m.StopWhen}
			s.acct.watches = append(s.acct.watches, p.watch)
		}
		queue[i] = p
	}
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].horizon < queue[j].horizon })

	results := make([]*Result, len(members))
	finish := func(p *pending, reason string) {
		// The session runs on for the remaining members, so the Result
		// gets its own copies of the ledger and LEM stat maps.
		res := s.finish(reason)
		res.Ledger = res.Ledger.Clone()
		for name, st := range res.LEMStats {
			st.OnDecisions = copyIntMap(st.OnDecisions)
			st.SleepEntries = copyIntMap(st.SleepEntries)
			res.LEMStats[name] = st
		}
		results[p.idx] = res
		if p.watch != nil {
			p.watch.fired = "finished" // stop evaluating for this member
		}
	}

	for len(queue) > 0 {
		if err := s.advance(ctx, queue[0].horizon); err != nil {
			return nil, err
		}
		// Members whose stop condition fired at this instant end here,
		// exactly as their solo runs would have.
		rest := queue[:0]
		for _, p := range queue {
			switch {
			case p.watch != nil && p.watch.fired != "" && p.watch.fired != "finished":
				finish(p, p.watch.fired)
			case s.k.Now() >= p.horizon:
				finish(p, "")
			default:
				rest = append(rest, p)
			}
		}
		queue = rest
		if len(queue) > 0 && s.allFinished() {
			// Workload completion stopped the kernel (the completion
			// watcher's delta cycle has already run, so the delta count
			// matches a solo run's): every remaining member's solo run
			// would have ended at this same instant.
			for _, p := range queue {
				finish(p, "")
			}
			queue = queue[:0]
		}
	}
	return results, nil
}
