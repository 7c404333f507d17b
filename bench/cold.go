package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"godpm/internal/engine"
	"godpm/internal/experiments"
	"godpm/internal/soc"
	"godpm/internal/stats"
	"godpm/internal/sweep"
	"godpm/internal/workload"
)

const (
	// paperGrids and arenaCycles are the input pools setup generates; a run
	// takes units in order and wraps around if it outlasts the pool.
	paperGrids  = 640
	arenaCycles = 480
	// The oracle covers the first units of a seed-1 run, which every run
	// reaches.
	paperOracleUnits = 4
	arenaOracleUnits = 2
	// arenaTasks sizes every arena workload.
	arenaTasks = 60
)

// coldUnit is one closed-loop unit of work, run on a fresh engine: a Table
// 2 grid, or one arena cycle (a tournament, then a horizon sweep).
type coldUnit struct {
	id   string
	jobs int
	// run executes the unit through the program's exported entry points.
	run func(ctx context.Context, eng *engine.Engine) error
	// plans builds, in order, the plans run executes; the traced replay
	// times each build and then runs the plan's jobs layer by layer.
	plans []func() (engine.Plan, error)
}

// paperGridUnits builds the Table 2 grids: the six paper scenarios plus
// their always-on baselines at the default tuning, grid i with workload
// seed seed+i.
func paperGridUnits(seed int64) []coldUnit {
	units := make([]coldUnit, paperGrids)
	for i := range units {
		t := experiments.DefaultTuning()
		t.Seed = seed + int64(i)
		plan := experiments.Plan(experiments.All(t))
		units[i] = coldUnit{
			id:   fmt.Sprintf("grid@%d", t.Seed),
			jobs: plan.Len(),
			run: func(ctx context.Context, eng *engine.Engine) error {
				_, err := eng.Run(ctx, plan)
				return err
			},
			plans: []func() (engine.Plan, error){func() (engine.Plan, error) { return plan, nil }},
		}
	}
	return units
}

// arenaUnits builds the arena cycles: 4 standard policies × 5 generated
// arena scenarios × 3 seeds, then a horizon sweep the engine folds into
// fork groups. Every cycle derives its seeds from the run seed.
func arenaUnits(seed int64) []coldUnit {
	policies := engine.StandardPolicies()[:4]
	scenarios := engine.ArenaScenarios(arenaTasks)
	units := make([]coldUnit, arenaCycles)
	for i := range units {
		root := workload.NewSeed(uint64(seed)).SplitN(i)
		tour := engine.Tournament{
			Policies:  policies,
			Scenarios: scenarios,
			Seeds:     []workload.Seed{root.SplitN(0), root.SplitN(1), root.SplitN(2)},
		}
		study := sweep.HorizonStudy(int64(root.SplitN(3)>>1), arenaTasks)
		sweepPlan := study.Plan()
		units[i] = coldUnit{
			id:   fmt.Sprintf("cycle@%d.%d", seed, i),
			jobs: len(policies)*len(scenarios)*len(tour.Seeds) + sweepPlan.Len(),
			run: func(ctx context.Context, eng *engine.Engine) error {
				_, terr := engine.RunTournament(ctx, eng, tour)
				_, serr := study.RunWith(ctx, eng)
				return errors.Join(terr, serr)
			},
			plans: []func() (engine.Plan, error){
				tour.Plan,
				func() (engine.Plan, error) { return study.Plan(), nil },
			},
		}
	}
	return units
}

func runPaperGrid(ctx context.Context, o options) (*outcome, error) {
	var units []coldUnit
	setupS, err := timedSetup(o.setups, func(last bool) error {
		if units = paperGridUnits(o.seed); !last {
			units = nil // garbage for the collection before the next repeat
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runCold(ctx, o, units, setupS, paperOracleUnits, paperResolve)
}

func runArenaSweep(ctx context.Context, o options) (*outcome, error) {
	var units []coldUnit
	setupS, err := timedSetup(o.setups, func(last bool) error {
		if units = arenaUnits(o.seed); !last {
			units = nil
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return runCold(ctx, o, units, setupS, arenaOracleUnits, arenaResolve)
}

// paperResolve builds the grid's named scenarios, as a request naming
// them would.
func paperResolve(seed int64) (n int, f func(i int)) {
	ids := []string{"A1", "A2", "A3", "A4", "B", "C"}
	t := experiments.DefaultTuning()
	t.Seed = seed
	return len(ids), func(i int) { _, _ = experiments.ByID(ids[i%len(ids)], t) }
}

// arenaResolve builds the arena catalogs a tournament request resolves.
func arenaResolve(int64) (n int, f func(i int)) {
	return 1, func(int) {
		_ = engine.StandardPolicies()
		_ = engine.ArenaScenarios(arenaTasks)
	}
}

// coldMeter observes every job of the untraced runs through the engine's
// OnStart/OnResult hooks: per-job latency (worker pickup to result),
// served digests per descriptor, failures, and the engines' counters.
type coldMeter struct {
	unit   string // descriptor prefix of the unit running now
	starts map[int]time.Time
	book   *digestBook
	jobs   int64
	errs   []error

	// The measurement proper, cleared by reset after the warm-up.
	lat      map[string][]float64 // ms per job, by job kind
	measured int
	unitRate []float64 // jobs per second of each unit
	stats    engine.Stats
	runLat   stats.HistSnapshot
}

// jobKind names a job's kind, the same in every unit and on every seed:
// its ID without the workload seed a tournament job carries after '@'
// ("A1/dpm", "steady/dpm", "horizon[h=20]").
func jobKind(id string) string {
	if i := strings.IndexByte(id, '@'); i >= 0 {
		return id[:i]
	}
	return id
}

func newColdMeter() *coldMeter {
	return &coldMeter{starts: make(map[int]time.Time), book: newDigestBook(), lat: make(map[string][]float64)}
}

// reset starts the measurement proper; digests, failures and job counts
// carry on.
func (m *coldMeter) reset() {
	m.lat, m.measured, m.unitRate = make(map[string][]float64), 0, nil
	m.stats, m.runLat = engine.Stats{}, stats.HistSnapshot{}
}

// The engine serialises these callbacks; units run one after another, so
// indices of one plan never overlap another's.
func (m *coldMeter) onStart(i int, _ engine.Job) { m.starts[i] = time.Now() }

func (m *coldMeter) onResult(i int, jr engine.JobResult) {
	k := jobKind(jr.Job.ID)
	m.lat[k] = append(m.lat[k], ms(time.Since(m.starts[i])))
	m.measured++
	m.jobs++
	desc := m.unit + "/" + jr.Job.ID
	switch {
	case jr.Err != nil:
		m.errs = append(m.errs, fmt.Errorf("%s: %w", desc, jr.Err))
	case jr.Record != nil:
		if err := m.book.add(desc, jr.Record.Digest()); err != nil {
			m.errs = append(m.errs, err)
		}
	default:
		if err := m.book.add(desc, engine.ResultDigest(jr.Result)); err != nil {
			m.errs = append(m.errs, err)
		}
	}
}

// loop runs units from index next on, in order and each on a fresh
// engine, until at least minUnits ran and d has elapsed. It returns the
// index of the next unit and the wall time taken. Indices past the pool
// wrap around.
func (m *coldMeter) loop(ctx context.Context, units []coldUnit, next, minUnits int, d time.Duration) (int, time.Duration, error) {
	start := time.Now()
	for n := 0; n < minUnits || time.Since(start) < d; n, next = n+1, next+1 {
		if err := ctx.Err(); err != nil {
			return next, time.Since(start), err
		}
		u := units[next%len(units)]
		m.unit = u.id
		before, jobs := len(m.errs), m.jobs
		eng := engine.New(engine.Options{Workers: workers, OnStart: m.onStart, OnResult: m.onResult})
		t0 := time.Now()
		if err := u.run(ctx, eng); err != nil && len(m.errs) == before {
			m.errs = append(m.errs, fmt.Errorf("%s: %w", u.id, err))
		}
		m.unitRate = append(m.unitRate, float64(m.jobs-jobs)/time.Since(t0).Seconds())
		st := eng.Stats()
		m.stats.Hits += st.Hits
		m.stats.Misses += st.Misses
		m.stats.Runs += st.Runs
		m.stats.Deduped += st.Deduped
		m.stats.Forked += st.Forked
		m.stats.Evictions += st.Evictions
		if st.RunLatency != nil {
			if merged, err := m.runLat.Merge(st.RunLatency.Hist); err == nil {
				m.runLat = merged
			}
		}
	}
	return next, time.Since(start), nil
}

// oracleDescs lists the descriptors of the first n units' jobs, as the
// untraced meter books them.
func oracleDescs(m *coldMeter, units []coldUnit, n int) map[string]string {
	var descs []string
	for _, u := range units[:n] {
		prefix := u.id + "/"
		m.book.mu.Lock()
		for d := range m.book.m {
			if len(d) > len(prefix) && d[:len(prefix)] == prefix {
				descs = append(descs, d)
			}
		}
		m.book.mu.Unlock()
	}
	return m.book.subset(descs)
}

func runCold(ctx context.Context, o options, units []coldUnit, setupS float64, oracleUnits int,
	resolve func(seed int64) (int, func(int))) (*outcome, error) {
	out := newOutcome()
	m := newColdMeter()
	// Untimed warm-up: heap growth and the host's wake-up after set-up
	// settle before the clock starts. It covers the units the oracle
	// checks, whatever the host's speed.
	next, _, err := m.loop(ctx, units, 0, oracleUnits, warmupFor(o.dur))
	if err != nil {
		return nil, err
	}
	m.reset()
	d := o.dur
	if o.trace {
		d = o.dur / 4
	}
	end, wall, err := m.loop(ctx, units, next, 1, d)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "%s: %d units, %d jobs of %d kinds measured in %.2fs\n", o.workload, end-next, m.measured, len(m.lat), wall.Seconds())

	// Correctness: the seed-1 prefix against the oracle, every job of the
	// first unit against a solo run outside the engine, and the seed-1
	// Table 2 cells.
	checkOracle(out, o.workload, o.seed == 1, oracleDescs(m, units, oracleUnits))
	solo := crossCheckSolo(ctx, out, units[0], m.book)
	checkTable2(ctx, out)

	if !o.trace {
		rss, err := peakRSSMiB(0)
		if err != nil {
			return nil, err
		}
		out.metrics["setup_s"] = setupS
		out.metrics["peak_rss_mb"] = rss
		// The median unit's throughput, not the run's: about one Table 2
		// grid in eight holds a job that simulates to the horizon and takes
		// the grid several times its usual wall time, and how many such
		// grids a run reaches depends on the seed. The median unit does not.
		out.metrics["jobs_per_s"] = quantile(m.unitRate, 0.5)
		out.metrics["kind_p50_ms"] = kindP50(m.lat)
	} else {
		measured := make([]coldUnit, 0, end-next)
		for i := next; i < end; i++ {
			measured = append(measured, units[i%len(units)])
		}
		runSelfUs, err := traceCold(ctx, o, out, measured, wall, m)
		if err != nil {
			return nil, err
		}
		var cfgs []soc.Config
		var deltas uint64
		for _, build := range units[0].plans {
			plan, err := build()
			if err != nil {
				return nil, err
			}
			for _, job := range plan.Jobs {
				cfgs = append(cfgs, job.Config)
			}
		}
		for _, r := range solo {
			deltas += r.Deltas
		}
		// The first unit's jobs are a fixed set for a seed, so the count
		// repeats exactly however far the run got.
		out.metrics["sim.deltas_per_job"] = ratio(float64(deltas), float64(len(solo)))
		resolveN, resolveF := resolve(o.seed)
		if err := layerMicro(out, layerInputs{cfgs: cfgs, results: solo, resolveN: resolveN, resolve: resolveF}); err != nil {
			return nil, err
		}
		socSetupUs(out, runSelfUs)
	}
	out.attempted += m.jobs
	for _, e := range m.errs {
		out.fail(e)
	}
	return out, nil
}

// crossCheckSolo reruns the unit's jobs one by one with soc.RunWith —
// no engine, no cache, no fork groups — and requires the digests the
// engine served. It returns the solo results.
func crossCheckSolo(ctx context.Context, out *outcome, u coldUnit, book *digestBook) []*soc.Result {
	var results []*soc.Result
	for _, build := range u.plans {
		plan, err := build()
		if err != nil {
			out.fail(fmt.Errorf("%s: plan: %w", u.id, err))
			continue
		}
		for _, job := range plan.Jobs {
			desc := u.id + "/" + job.ID
			res, err := soc.RunWith(ctx, job.Config, job.Options)
			if err != nil {
				out.fail(fmt.Errorf("%s: solo run: %w", desc, err))
				continue
			}
			results = append(results, res)
			if got, ok := book.get(desc); !ok || got != engine.ResultDigest(res) {
				out.fail(fmt.Errorf("%s: engine served %.12s, solo run computes %.12s", desc, got, engine.ResultDigest(res)))
			}
		}
	}
	return results
}

// layerAcc accumulates the traced replay's kernel accounting.
type layerAcc struct {
	mu            sync.Mutex
	cycles, kwall float64 // Σ simulated cycles and kernel wall seconds
	runWall       float64 // Σ soc.RunWith / soc.RunForked wall seconds
	// Solo soc.RunWith calls alone, for soc.run_us and soc.setup_us.
	soloN               int
	soloWall, soloKwall float64
	errs                []error
}

func (a *layerAcc) kernel(cycles, kwall, runWall float64, solo bool) {
	a.mu.Lock()
	a.cycles += cycles
	a.kwall += kwall
	a.runWall += runWall
	if solo {
		a.soloN++
		a.soloWall += runWall
		a.soloKwall += kwall
	}
	a.mu.Unlock()
}

func (a *layerAcc) fail(err error) {
	a.mu.Lock()
	a.errs = append(a.errs, err)
	a.mu.Unlock()
}

// traceCold replays the units the untraced pass ran, calling each layer
// in the engine's order on 2 goroutines with a span around every call,
// and derives the per-layer metrics from the spans. It returns the mean
// wall time per soc.RunWith spent outside the kernel, in microseconds.
func traceCold(ctx context.Context, o options, out *outcome, units []coldUnit, untraced time.Duration, m *coldMeter) (float64, error) {
	tr := newTracer()
	acc := &layerAcc{}
	book := newDigestBook()
	start := time.Now()
	for i, u := range units {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		req := int64(i + 1)
		unitID := tr.id()
		t0 := time.Now()
		cache := engine.NewLRU(engine.LRUOptions{})
		for _, build := range u.plans {
			p0 := time.Now()
			plan, err := build()
			tr.leaf(unitID, req, "workload.plan", p0, time.Now())
			if err != nil {
				acc.fail(fmt.Errorf("%s: plan: %w", u.id, err))
				continue
			}
			tracePlan(ctx, tr, acc, book, cache, u.id, plan, unitID, req)
		}
		tr.add(unitID, 0, req, "bench.unit", t0, time.Now())
		out.attempted += int64(u.jobs)
	}
	traced := time.Since(start)
	for _, e := range acc.errs {
		out.fail(e)
	}
	// The traced path must serve what the engine served.
	book.mu.Lock()
	for desc, d := range book.m {
		if got, ok := m.book.get(desc); ok && got != d {
			out.fail(fmt.Errorf("%s: traced path %.12s, engine %.12s", desc, d, got))
		}
	}
	book.mu.Unlock()

	path, err := tr.write(o.out, o.workload, o.seed)
	if err != nil {
		return 0, fmt.Errorf("spans: %w", err)
	}
	fmt.Fprintf(o.log, "%s: %d spans written to %s\n", o.workload, tr.len(), path)

	self, count := tr.selfTimes()
	var layered time.Duration
	for name, d := range self {
		switch name {
		case "bench.unit", "engine.job", "engine.group":
		default:
			layered += d
		}
	}
	perCall := func(name string) time.Duration {
		if count[name] == 0 {
			return 0
		}
		return self[name] / time.Duration(count[name])
	}
	mt := out.metrics
	mt["trace.coverage"] = ratio(float64(layered), float64(untraced)*workers)
	// The pool's idle share: worker time with no job in hand — planning on
	// the caller, and waiting for a unit's slowest job to finish.
	busy := 0.0
	for _, name := range []string{"engine.job", "engine.group"} {
		for _, d := range tr.durations(name) {
			busy += d
		}
	}
	mt["engine.idle_frac"] = 1 - ratio(busy, float64(traced)*workers)
	mt["trace.overhead_pct"] = 100 * (ratio(float64(traced), float64(untraced)) - 1)
	mt["trace.spans"] = float64(tr.len())
	mt["workload.plan_ms"] = ms(self["workload.plan"]) / float64(len(units))
	mt["engine.fork_prefix_us"] = us(perCall("engine.fork_prefix"))
	mt["soc.run_us"] = ratio(acc.soloWall, float64(acc.soloN)) * 1e6
	if forks := durationsMs(tr, "soc.fork"); len(forks) > 0 {
		mt["soc.fork_ms"] = mean(forks)
	}
	mt["sim.kcycles_per_s"] = ratio(acc.cycles, acc.kwall) / 1000
	mt["sim.kernel_share"] = ratio(acc.kwall, acc.runWall)

	mt["engine.runs"] = float64(m.stats.Runs)
	mt["engine.hit_ratio"] = ratio(float64(m.stats.Hits), float64(m.stats.Hits+m.stats.Misses))
	mt["engine.forked_frac"] = ratio(float64(m.stats.Forked), float64(m.stats.Misses))
	mt["engine.deduped"] = float64(m.stats.Deduped)
	mt["engine.evictions"] = float64(m.stats.Evictions)
	mt["engine.run_p50_ms"] = float64(m.runLat.Quantile(0.5)) / 1000
	return ratio(acc.soloWall-acc.soloKwall, float64(acc.soloN)) * 1e6, nil
}

func durationsMs(tr *tracer, name string) []float64 {
	d := tr.durations(name)
	for i := range d {
		d[i] /= float64(time.Millisecond)
	}
	return d
}

// tracePlan runs one plan like Engine.Run: fork-prefix grouping on the
// caller, then the work units on 2 workers.
func tracePlan(ctx context.Context, tr *tracer, acc *layerAcc, book *digestBook, cache *engine.LRU,
	unit string, plan engine.Plan, parent, req int64) {
	// planUnits' grouping key is the fingerprint of the config with its
	// horizon zeroed; engine.Fingerprint on that config does the same
	// normalise-and-hash work.
	slot := make(map[string]int)
	var groups [][]int
	for i, job := range plan.Jobs {
		t0 := time.Now()
		cfg := job.Config
		cfg.Horizon = 0
		k, err := engine.Fingerprint(cfg)
		tr.leaf(parent, req, "engine.fork_prefix", t0, time.Now())
		if err != nil {
			groups = append(groups, []int{i})
			continue
		}
		if g, ok := slot[k]; ok {
			groups[g] = append(groups[g], i)
			continue
		}
		slot[k] = len(groups)
		groups = append(groups, []int{i})
	}

	work := make(chan []int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				if len(g) == 1 {
					traceJob(ctx, tr, acc, book, cache, unit, plan.Jobs[g[0]], parent, req)
				} else {
					traceGroup(ctx, tr, acc, book, cache, unit, plan.Jobs, g, parent, req)
				}
			}
		}()
	}
	for _, g := range groups {
		work <- g
	}
	close(work)
	wg.Wait()
}

// traceJob is runJob's miss path: fingerprint, cache probe, simulate,
// build the record, store it.
func traceJob(ctx context.Context, tr *tracer, acc *layerAcc, book *digestBook, cache *engine.LRU,
	unit string, job engine.Job, parent, req int64) {
	id := tr.id()
	desc := unit + "/" + job.ID
	t0 := time.Now()
	key, err := engine.Fingerprint(job.Config)
	t1 := time.Now()
	tr.leaf(id, req, "engine.fingerprint", t0, t1)
	if err != nil {
		acc.fail(fmt.Errorf("%s: %w", desc, err))
		return
	}
	_, _ = cache.Get(key)
	t2 := time.Now()
	tr.leaf(id, req, "engine.lru_get", t1, t2)
	res, err := soc.RunWith(ctx, job.Config, job.Options)
	t3 := time.Now()
	runID := tr.leaf(id, req, "soc.run", t2, t3)
	if err != nil {
		acc.fail(fmt.Errorf("%s: %w", desc, err))
		return
	}
	kernel := time.Duration(res.WallSeconds * float64(time.Second))
	tr.leaf(runID, req, "sim.kernel", t3.Add(-kernel), t3)
	acc.kernel(res.Cycles, res.WallSeconds, t3.Sub(t2).Seconds(), true)
	rec, err := engine.NewRecord(key, res)
	t4 := time.Now()
	tr.leaf(id, req, "engine.record_new", t3, t4)
	if err != nil {
		acc.fail(fmt.Errorf("%s: %w", desc, err))
		return
	}
	_ = cache.Put(key, rec)
	t5 := time.Now()
	tr.leaf(id, req, "engine.lru_put", t4, t5)
	tr.add(id, parent, req, "engine.job", t0, t5)
	if err := book.add(desc, rec.Digest()); err != nil {
		acc.fail(err)
	}
}

// traceGroup is runGroup: per-member fingerprint and probe, one shared
// soc.RunForked session, then per-member record and store.
func traceGroup(ctx context.Context, tr *tracer, acc *layerAcc, book *digestBook, cache *engine.LRU,
	unit string, jobs []engine.Job, idx []int, parent, req int64) {
	id := tr.id()
	t0 := time.Now()
	keys := make([]string, len(idx))
	members := make([]soc.ForkMember, len(idx))
	for j, i := range idx {
		f0 := time.Now()
		k, err := engine.Fingerprint(jobs[i].Config)
		f1 := time.Now()
		tr.leaf(id, req, "engine.fingerprint", f0, f1)
		if err != nil {
			acc.fail(fmt.Errorf("%s/%s: %w", unit, jobs[i].ID, err))
			return
		}
		_, _ = cache.Get(k)
		tr.leaf(id, req, "engine.lru_get", f1, time.Now())
		keys[j] = k
		members[j] = soc.ForkMember{Horizon: jobs[i].Config.Horizon, StopWhen: jobs[i].Options.StopWhen}
	}
	r0 := time.Now()
	rs, err := soc.RunForked(ctx, jobs[idx[0]].Config, members)
	r1 := time.Now()
	forkID := tr.leaf(id, req, "soc.fork", r0, r1)
	if err != nil {
		acc.fail(fmt.Errorf("%s/%s: fork: %w", unit, jobs[idx[0]].ID, err))
		return
	}
	// The session simulated up to its last cut once: its kernel time and
	// cycles are the largest member's.
	var cycles, kwall float64
	for _, r := range rs {
		cycles = max(cycles, r.Cycles)
		kwall = max(kwall, r.WallSeconds)
	}
	kernel := time.Duration(kwall * float64(time.Second))
	tr.leaf(forkID, req, "sim.kernel", r1.Add(-kernel), r1)
	acc.kernel(cycles, kwall, r1.Sub(r0).Seconds(), false)
	end := r1
	for j, i := range idx {
		p0 := time.Now()
		rec, err := engine.NewRecord(keys[j], rs[j])
		p1 := time.Now()
		tr.leaf(id, req, "engine.record_new", p0, p1)
		if err != nil {
			acc.fail(fmt.Errorf("%s/%s: %w", unit, jobs[i].ID, err))
			continue
		}
		_ = cache.Put(keys[j], rec)
		end = time.Now()
		tr.leaf(id, req, "engine.lru_put", p1, end)
		if err := book.add(unit+"/"+jobs[i].ID, rec.Digest()); err != nil {
			acc.fail(err)
		}
	}
	tr.add(id, parent, req, "engine.group", t0, end)
}
