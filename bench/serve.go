package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"godpm/internal/engine"
	"godpm/internal/experiments"
	"godpm/internal/soc"
	"godpm/internal/stats"
	"godpm/internal/workload"
)

const (
	// serve_hot holds Poisson arrivals at hotRate for the whole run; the
	// traced run also searches the highest rate whose steps meet the SLO.
	// That search put the knee at 710–1560 req/s on a 2-vCPU VM shared with
	// other tenants, lowest when the host was slow; at half the lowest knee
	// the median latency follows the host's speed instead of amplifying it
	// through queueing.
	hotRate = 300.0
	// sloP99 and sloBacklog decide a search step: p99 latency from due
	// time at most 10 ms, and at most 4 requests waiting at the step's end.
	sloP99     = 10 * time.Millisecond
	sloBacklog = 4
	// maxDoublings and bisections bound the search: rates double from
	// 2×hotRate while a step passes, then 3 log-space bisections narrow the
	// bracket to a factor 2^(1/8) (< 10%).
	maxDoublings = 4
	bisections   = 3
	// The generator's validity guards. A dispatcher whose median lateness
	// exceeds maxLatenessP50 cannot keep the schedule it claims; one whose
	// p99 lateness exceeds maxLatenessP99 stalls for whole stretches of
	// arrivals (four at serve_churn's rate). Shorter stalls, when the host
	// deschedules the whole VM, stall the servers too and are counted in
	// latency from due time; a guard at the 10 ms SLO would fail runs on
	// them.
	maxLatenessP50 = time.Millisecond
	maxLatenessP99 = 50 * time.Millisecond
	// serve_churn: Poisson arrivals at churnRate over a 64-entry replica
	// cache in front of a dpmremote store.
	churnRate         = 80.0
	churnCacheEntries = 64
	churnTourTasks    = 30
	churnTourSeeds    = 8
)

// child is one server process the benchmark started.
type child struct {
	name    string
	cmd     *exec.Cmd
	addr    string
	logDone chan struct{}
	tail    []string // last stderr lines, for diagnostics
}

var listenRE = regexp.MustCompile(`on http://(\S+)`)

// startChild starts a server binary listening on an ephemeral port and
// waits for the address it logs.
func startChild(bin string, args ...string) (*child, error) {
	c := &child{name: filepath.Base(bin), logDone: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	// The kernel kills the child if the benchmark dies without cleaning up.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", c.name, err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(c.logDone)
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if m := listenRE.FindStringSubmatch(line); m != nil && !found {
				found = true
				addrc <- m[1]
			}
			if len(c.tail) == 20 {
				c.tail = c.tail[1:]
			}
			c.tail = append(c.tail, line)
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case c.addr = <-addrc:
		return c, nil
	case <-c.logDone:
		c.stop()
		return nil, fmt.Errorf("%s exited before listening: %s", c.name, strings.Join(c.tail, " | "))
	case <-time.After(10 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s did not log a listen address within 10s", c.name)
	}
}

// stop reads the child's peak resident set, kills it and waits for it.
func (c *child) stop() float64 {
	rss, _ := peakRSSMiB(c.cmd.Process.Pid)
	_ = c.cmd.Process.Kill()
	<-c.logDone
	_ = c.cmd.Wait()
	return rss
}

// fleet is the serving stack under test: dpmserve, and for serve_churn a
// dpmremote with a temporary store behind it.
type fleet struct {
	serve, remote *child
	store         string
	c             *client
}

func startFleet(o options, churn bool) (*fleet, error) {
	f := &fleet{}
	args := []string{"-addr", "127.0.0.1:0", "-workers", fmt.Sprint(workers)}
	if churn {
		var err error
		if f.store, err = os.MkdirTemp("", "godpm-bench-store-"); err != nil {
			return nil, err
		}
		if f.remote, err = startChild(filepath.Join(o.bin, "dpmremote"), "-addr", "127.0.0.1:0", "-store", f.store); err != nil {
			f.stop()
			return nil, err
		}
		args = append(args, "-cache-entries", fmt.Sprint(churnCacheEntries), "-remote-url", "http://"+f.remote.addr)
	}
	var err error
	if f.serve, err = startChild(filepath.Join(o.bin, "dpmserve"), args...); err != nil {
		f.stop()
		return nil, err
	}
	f.c = newClient("http://" + f.serve.addr)
	return f, nil
}

// cpu returns the CPU time the servers have used so far.
func (f *fleet) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, c := range []*child{f.serve, f.remote} {
		if c == nil {
			continue
		}
		t, err := cpuTime(c.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// capacity is the request rate at which the servers would keep both CPUs
// busy, from the CPU time they spent serving n requests. Measured this way
// it holds across runs far better than the rate of a saturating closed
// loop, in which the load generator competes with the servers for the
// same two CPUs.
func capacity(n int, cpu time.Duration) float64 {
	return ratio(float64(n)*workers, cpu.Seconds())
}

// stop kills every child, removes the store and returns the children's
// summed peak resident set in MiB.
func (f *fleet) stop() float64 {
	var rss float64
	if f.c != nil {
		f.c.close()
	}
	if f.serve != nil {
		rss += f.serve.stop()
	}
	if f.remote != nil {
		rss += f.remote.stop()
	}
	if f.store != "" {
		_ = os.RemoveAll(f.store)
	}
	return rss
}

// serveStatsz is the part of dpmserve's /statsz the benchmark reads.
type serveStatsz struct {
	engine.Stats
	Latency map[string]stats.Latency `json:"latency"`
}

// remoteStatsz is the part of dpmremote's /statsz the benchmark reads.
type remoteStatsz struct {
	Puts    int64                    `json:"puts"`
	Latency map[string]stats.Latency `json:"latency"`
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// histDelta subtracts an earlier snapshot of the same histogram from a
// later one: the observations recorded in between.
func histDelta(after, before stats.HistSnapshot) stats.HistSnapshot {
	prev := make(map[int32]int64, len(before.Bucket))
	for i, b := range before.Bucket {
		prev[b] = before.N[i]
	}
	d := stats.HistSnapshot{Sum: after.Sum - before.Sum, Max: after.Max}
	for i, b := range after.Bucket {
		if n := after.N[i] - prev[b]; n > 0 {
			d.Bucket = append(d.Bucket, b)
			d.N = append(d.N, n)
			d.Count += n
		}
	}
	return d
}

// resolveScenario resolves a named scenario the way dpmserve resolves a
// simulate request: a paper scenario by upper-cased ID, else an extension.
func resolveScenario(id string, tasks int, seed int64) (soc.Config, error) {
	t := experiments.DefaultTuning()
	t.NumTasks, t.Seed = tasks, seed
	if sc, err := experiments.ByID(strings.ToUpper(id), t); err == nil {
		return sc.Config, nil
	}
	sc, err := experiments.ExtensionByID(id, t)
	return sc.Config, err
}

// scenarioIDs are the simulate request scenarios: the six paper scenarios
// and the three extensions.
var scenarioIDs = []string{"A1", "A2", "A3", "A4", "B", "C", "B-perip", "B-openloop", "A1-regulator"}

// scenarioKey is one named simulate request.
type scenarioKey struct {
	id    string
	tasks int
	seed  int64
}

func (k scenarioKey) request() *request {
	body, _ := json.Marshal(map[string]any{"scenario": k.id, "tasks": k.tasks, "seed": k.seed})
	return &request{kind: kindSimulate, desc: fmt.Sprintf("sim:%s:%d:%d", k.id, k.tasks, k.seed),
		class: fmt.Sprintf("sim:%s:%d", k.id, k.tasks), body: body}
}

// scenarioKeys crosses the scenarios with tasks and seeds 1..seeds.
func scenarioKeys(tasks []int, seeds int) []scenarioKey {
	var keys []scenarioKey
	for _, id := range scenarioIDs {
		for _, n := range tasks {
			for s := 1; s <= seeds; s++ {
				keys = append(keys, scenarioKey{id, n, int64(s)})
			}
		}
	}
	return keys
}

// poisson lays out n arrivals of a Poisson process at the given rate.
func poisson(rng *rand.Rand, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// within keeps the shots due before d.
func within(shots []shot, d time.Duration) []shot {
	for i, s := range shots {
		if s.due >= d {
			return shots[:i]
		}
	}
	return shots
}

// scaled returns a unit-rate schedule at the given rate, cut at d.
func scaled(unit []shot, rate float64, d time.Duration) []shot {
	out := make([]shot, 0, int(rate*d.Seconds())+1)
	for _, s := range unit {
		due := time.Duration(float64(s.due) / rate)
		if due >= d {
			break
		}
		out = append(out, shot{req: s.req, due: due})
	}
	return out
}

// hotInputs is serve_hot's generated input: the 72-request hot set and the
// Zipf(1.1) draws over a seeded permutation of it, laid on Poisson
// arrivals at hotRate for the measured run and at unit rate for the search
// steps.
type hotInputs struct {
	keys []scenarioKey
	reqs []*request
	warm []shot // untimed traffic before the measurement
	load []shot
	unit []shot // the traced run's SLO search, at unit rate
}

func genHot(seed int64, d time.Duration) hotInputs {
	in := hotInputs{keys: scenarioKeys([]int{20, 120}, 4)}
	for _, k := range in.keys {
		in.reqs = append(in.reqs, k.request())
	}
	// The Zipf ranks go to the 18 (scenario, tasks) classes in a fixed
	// order, round-robin, and within a class to its 4 workload seeds in an
	// order the run seed permutes. A hit's cost depends on its class — a
	// 120-task B request resolves and hashes ten times the data of a
	// 20-task A1 — so fixing which classes are hot keeps every seed's mix
	// equally expensive; the seed still picks the keys, the draws and the
	// arrivals.
	const perClass = 4
	classes := len(in.reqs) / perClass
	classOrder := workload.NewSeed(0).Split("hot-classes").RNG().Perm(classes)
	root := workload.NewSeed(uint64(seed))
	rng := root.Split("mix").RNG()
	ranked := make([]*request, len(in.reqs))
	seedOrder := make([][]int, classes)
	for c := range seedOrder {
		seedOrder[c] = rng.Perm(perClass)
	}
	for r := range ranked {
		c := classOrder[r%classes]
		ranked[r] = in.reqs[c*perClass+seedOrder[c][r/classes]]
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(in.reqs)-1))
	draw := func() *request { return ranked[zipf.Uint64()] }
	arrivals := func(stream string, rate float64, d time.Duration) []shot {
		var shots []shot
		for _, due := range poisson(root.Split(stream).RNG(), int(rate*d.Seconds())+1, rate) {
			shots = append(shots, shot{req: draw(), due: due})
		}
		return shots
	}
	in.warm = arrivals("warmup", hotRate, warmupFor(d))
	in.load = arrivals("arrivals", hotRate, d)
	// Enough unit-rate arrivals for the fastest step the search can take.
	in.unit = arrivals("search", 1, time.Duration(2*hotRate*math.Pow(2, maxDoublings)*float64(searchStep(d))))
	return in
}

// searchStep is the length of one search step: the search takes half the
// run for the usual two doublings, the bisections, and one doubling to
// spare.
func searchStep(d time.Duration) time.Duration {
	return d / 2 / (3 + bisections)
}

// warm sends each request once over the client's connections (all due at
// once) and books what was served.
func warm(ctx context.Context, c *client, out *outcome, book *digestBook, reqs []*request) error {
	shots := make([]shot, len(reqs))
	for i, r := range reqs {
		shots[i] = shot{req: r}
	}
	p := c.fire(ctx, shots, 0, nil)
	before := out.failed
	account(out, book, shots, p)
	if out.failed > before {
		return fmt.Errorf("warm-up: %d of %d requests failed", out.failed-before, len(reqs))
	}
	return nil
}

// serveSetup times setupRepeats set-ups — generate the inputs, then start
// the fleet — and keeps the last fleet running.
func serveSetup(n int, gen func() error, start func() (*fleet, error)) (*fleet, float64, error) {
	var f *fleet
	setupS, err := timedSetup(n, func(last bool) error {
		if err := gen(); err != nil {
			return err
		}
		fl, err := start()
		if err != nil {
			return err
		}
		if last {
			f = fl
		} else {
			fl.stop()
		}
		return nil
	})
	return f, setupS, err
}

// loadgenGCPercent is the benchmark process's GC target while it only
// generates load. Collections stop the dispatcher's goroutine or take the
// processor it needs when it wakes; the load generator is not the system
// under test, so it collects less often.
const loadgenGCPercent = 800

func runServeHot(ctx context.Context, o options) (*outcome, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(loadgenGCPercent))
	out := newOutcome()
	book := newDigestBook()
	var in hotInputs
	gen := func() error {
		in = genHot(o.seed, o.dur)
		return nil
	}
	// A hot fleet is dpmserve with the hot set warmed into its cache.
	start := func() (*fleet, error) {
		f, err := startFleet(o, false)
		if err != nil {
			return nil, err
		}
		if err := warm(ctx, f.c, out, book, in.reqs); err != nil {
			f.stop()
			return nil, err
		}
		return f, nil
	}

	if o.trace {
		if err := gen(); err != nil {
			return nil, err
		}
		search := func(f *fleet, first step) float64 {
			rps, steps := searchMaxRPS(ctx, f.c, out, book, in.unit, searchStep(o.dur), first)
			fmt.Fprintf(o.log, "serve_hot: SLO search %s → %.0f req/s\n", steps, rps)
			return rps
		}
		if err := traceServe(ctx, o, out, book, start, in.warm, within(in.load, o.dur/4), search, hotDecompose(ctx, in.keys)); err != nil {
			return nil, err
		}
	} else {
		f, setupS, err := serveSetup(o.setups, gen, start)
		if err != nil {
			return nil, err
		}
		err = func() error {
			defer func() { out.metrics["peak_rss_mb"] = f.stop() }()
			account(out, book, in.warm, f.c.fire(ctx, in.warm, 0, nil))
			p, cpu, err := measureOpen(ctx, f, out, book, in.load)
			if err != nil {
				return err
			}
			lat := latencies(in.load, p, isSimulate, latOf)
			out.metrics["kind_p50_ms"] = kindP50(latenciesByClass(in.load, p, isSimulate, latOf))
			out.metrics["jobs_per_s"] = capacity(len(lat), cpu)
			fmt.Fprintf(o.log, "serve_hot: %d requests p50 %.3fms (per class %.3fms) p99 %.2fms, dpmserve %.0fµs CPU per request\n",
				len(lat), quantile(lat, 0.5), out.metrics["kind_p50_ms"], quantile(lat, 0.99), us(cpu)/float64(len(lat)))
			return ctx.Err()
		}()
		if err != nil {
			return nil, err
		}
		out.metrics["setup_s"] = setupS
	}

	// The hot set does not depend on the seed, so every run checks it.
	var hotDescs []string
	for _, r := range in.reqs {
		hotDescs = append(hotDescs, r.desc)
	}
	checkOracle(out, o.workload, true, book.subset(hotDescs))
	if err := crossCheckInProcess(ctx, out, book, in.keys[:4], nil, nil); err != nil {
		return nil, err
	}
	checkTable2(ctx, out)
	return out, nil
}

// measureOpen runs the measured open-loop phase against a set-up fleet:
// it books every response, applies the generator's validity guards, and
// returns what the client observed and the CPU time the servers spent.
func measureOpen(ctx context.Context, f *fleet, out *outcome, book *digestBook, shots []shot) (*phase, time.Duration, error) {
	cpu0, err := f.cpu()
	if err != nil {
		return nil, 0, err
	}
	p := f.c.fire(ctx, shots, 0, nil)
	cpu1, err := f.cpu()
	if err != nil {
		return nil, 0, err
	}
	account(out, book, shots, p)
	checkGenerator(out, p)
	return p, cpu1 - cpu0, ctx.Err()
}

// checkGenerator applies the open-loop validity guards: the dispatcher's
// lateness, and no backlog building up over the phase.
func checkGenerator(out *outcome, p *phase) {
	var late []float64
	for i := range p.samples {
		if !p.samples[i].skipped {
			late = append(late, ms(p.samples[i].late))
		}
	}
	if l := quantile(late, 0.5); l > ms(maxLatenessP50) {
		out.check(fmt.Errorf("generator lateness p50 %.3fms > %.3fms: the schedule was not kept", l, ms(maxLatenessP50)))
	}
	if l := quantile(late, 0.99); l > ms(maxLatenessP99) {
		out.check(fmt.Errorf("generator lateness p99 %.3fms > %.3fms: the schedule was not kept", l, ms(maxLatenessP99)))
	}
	if n := len(p.backlog); n > 0 {
		if b := quantile(intsToFloats(p.backlog[n/2:]), 0.5); b > sloBacklog {
			out.check(fmt.Errorf("backlog grew: median %g requests waiting over the phase's second half", b))
		}
	}
}

func intsToFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// step is one search step's verdict.
type step struct {
	rate float64
	p99  time.Duration
	pass bool
}

// verdict judges one search step: it passes when its p99 latency from
// due time is within sloP99, no request failed, the step was not aborted,
// and at most sloBacklog requests were waiting when it ended.
func verdict(rate float64, shots []shot, p *phase) step {
	st := step{rate: rate, p99: time.Duration(quantile(latencies(shots, p, anyKind, latOf), 0.99) * float64(time.Millisecond))}
	for i := range p.samples {
		if !p.samples[i].skipped && p.samples[i].err != nil {
			return st
		}
	}
	last := 0
	if len(p.backlog) > 0 {
		last = p.backlog[len(p.backlog)-1]
	}
	st.pass = !p.aborted && st.p99 <= sloP99 && last <= sloBacklog
	return st
}

// searchMaxRPS finds the highest Poisson rate whose step passes. first is
// the step at hotRate; rates double from there while steps pass, then
// log-space bisections narrow the bracket to a factor 2^(1/8) (< 10%). It
// returns 0 when the step at hotRate already fails.
func searchMaxRPS(ctx context.Context, c *client, out *outcome, book *digestBook, unit []shot, d time.Duration, first step) (float64, string) {
	steps := []step{first}
	try := func(rate float64) bool {
		shots := scaled(unit, rate, d)
		// A step with this much waiting has failed; stop it early.
		p := c.fire(ctx, shots, max(64, int(rate*sloP99.Seconds()*4)), nil)
		account(out, book, shots, p)
		steps = append(steps, verdict(rate, shots, p))
		return steps[len(steps)-1].pass
	}
	if !first.pass {
		return 0, describe(steps)
	}
	lo, hi := hotRate, 0.0
	for r, k := 2*hotRate, 0; k < maxDoublings && ctx.Err() == nil; r, k = 2*r, k+1 {
		if !try(r) {
			hi = r
			break
		}
		lo = r
	}
	for k := 0; hi > 0 && k < bisections && ctx.Err() == nil; k++ {
		if mid := math.Sqrt(lo * hi); try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, describe(steps)
}

func describe(steps []step) string {
	var sb strings.Builder
	for _, s := range steps {
		v := "fail"
		if s.pass {
			v = "pass"
		}
		fmt.Fprintf(&sb, "[%.0f/s p99 %.1fms %s]", s.rate, ms(s.p99), v)
	}
	return sb.String()
}

// churnInputs is serve_churn's generated schedule.
type churnInputs struct {
	shots []shot
	keys  []scenarioKey // the 432 scenario keys
	fill  []*request    // each scenario key once, sent during set-up
	// Every request of each kind, in schedule order, for the in-process
	// checks and per-layer timings.
	simKeys []scenarioKey
	inline  []inlineSample
	tours   []tourSample
}

type inlineSample struct {
	desc string
	cfg  soc.Config
}

type tourSample struct {
	desc string
	tour engine.Tournament
}

// genChurn lays Poisson arrivals at churnRate over d and gives them, in an
// order the seed shuffles, exactly these shares: 60% named scenarios
// (uniform over 9 scenarios × tasks {20, 60, 120} × seeds 1–16), 25%
// distinct inline configs (a seeded single-IP generator spec under a
// policy), 15% small tournaments (2 policies × 2 arena scenarios × 2
// seeds, 30 tasks). Inline configs take the (arena scenario, policy) pairs
// in turn, in a seeded order. A tournament costs several simulations and
// a simulation many cache hits, so drawing each request's kind and pair at
// random would make some seeds' mixes costlier than others'.
func genChurn(seed int64, d time.Duration) (churnInputs, error) {
	in := churnInputs{keys: scenarioKeys([]int{20, 60, 120}, 16)}
	for _, k := range in.keys {
		in.fill = append(in.fill, k.request())
	}
	root := workload.NewSeed(uint64(seed))
	rng := root.Split("mix").RNG()
	policies := engine.StandardPolicies()
	arena := engine.ArenaScenarios(churnTourTasks)
	dues := poisson(root.Split("arrivals").RNG(), int(churnRate*d.Seconds())+1, churnRate)
	kinds := make([]kind, len(dues))
	nSim, nInline := len(dues)*60/100, len(dues)*25/100
	for i := range kinds {
		switch {
		case i < nSim:
			kinds[i] = kindSimulate
		case i < nSim+nInline:
			kinds[i] = kindInline
		default:
			kinds[i] = kindTournament
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	pairs := rng.Perm(len(arena) * len(policies))
	for i, due := range dues {
		var r *request
		switch kinds[i] {
		case kindSimulate:
			k := in.keys[rng.Intn(len(in.keys))]
			r = k.request()
			in.simKeys = append(in.simKeys, k)
		case kindInline:
			pair := pairs[len(in.inline)%len(pairs)]
			sc, pol := arena[pair/len(policies)], policies[pair%len(policies)]
			gseed := workload.NewSeed(rng.Uint64())
			cfg := sc.Config
			cfg.IPs = append([]soc.IPSpec(nil), cfg.IPs...)
			cfg.IPs[0].Gen = cfg.IPs[0].Gen.Reseed(gseed)
			cfg = pol.Apply(cfg)
			body, err := json.Marshal(map[string]any{"config": cfg})
			if err != nil {
				return in, err
			}
			r = &request{kind: kindInline, desc: fmt.Sprintf("inline:%s:%s:%d", sc.Name, pol.Name, uint64(gseed)),
				class: fmt.Sprintf("inline:%s:%s", sc.Name, pol.Name), body: body}
			in.inline = append(in.inline, inlineSample{r.desc, cfg})
		default:
			p := rng.Perm(len(policies))[:2]
			s := rng.Perm(len(arena))[:2]
			k := rng.Perm(churnTourSeeds)[:2]
			pols := []string{policies[p[0]].Name, policies[p[1]].Name}
			scs := []string{arena[s[0]].Name, arena[s[1]].Name}
			seeds := []uint64{uint64(k[0] + 1), uint64(k[1] + 1)}
			body, err := json.Marshal(map[string]any{"policies": pols, "scenarios": scs, "seeds": seeds, "tasks": churnTourTasks})
			if err != nil {
				return in, err
			}
			r = &request{kind: kindTournament, body: body, class: "tour",
				desc: fmt.Sprintf("tour:%s:%s:%d,%d:%d", strings.Join(pols, ","), strings.Join(scs, ","), seeds[0], seeds[1], churnTourTasks)}
			in.tours = append(in.tours, tourSample{r.desc, engine.Tournament{
				Policies:  []engine.PolicyVariant{policies[p[0]], policies[p[1]]},
				Scenarios: []engine.NamedConfig{arena[s[0]], arena[s[1]]},
				Seeds:     []workload.Seed{workload.NewSeed(seeds[0]), workload.NewSeed(seeds[1])},
			}})
		}
		in.shots = append(in.shots, shot{req: r, due: due})
	}
	return in, nil
}

func runServeChurn(ctx context.Context, o options) (*outcome, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(loadgenGCPercent))
	out := newOutcome()
	book := newDigestBook()
	var in churnInputs
	gen := func() (err error) {
		in, err = genChurn(o.seed, o.dur)
		return err
	}
	// A churn fleet is dpmremote on an empty store with dpmserve in front,
	// filled by computing every scenario key once. The fill's cold misses
	// include nine simulations of 100–360 ms; sent in the measured phase,
	// each one, with a tournament waiting for both workers behind it,
	// queued everything for its length, and a handful of such coincidences
	// decided the run's tail. Filled in set-up, their cost shows in
	// setup_s, and the measured phase is the churn the workload is for.
	start := func() (*fleet, error) {
		f, err := startFleet(o, true)
		if err != nil {
			return nil, err
		}
		if err := warm(ctx, f.c, out, book, in.fill); err != nil {
			f.stop()
			return nil, err
		}
		return f, nil
	}

	if o.trace {
		if err := gen(); err != nil {
			return nil, err
		}
		if err := traceServe(ctx, o, out, book, start, nil, within(in.shots, o.dur/4), nil, churnDecompose(ctx, in)); err != nil {
			return nil, err
		}
	} else {
		f, setupS, err := serveSetup(o.setups, gen, start)
		if err != nil {
			return nil, err
		}
		err = func() error {
			defer func() { out.metrics["peak_rss_mb"] = f.stop() }()
			p, cpu, err := measureOpen(ctx, f, out, book, in.shots)
			if err != nil {
				return err
			}
			lat := latencies(in.shots, p, isSimulate, latOf)
			served := len(latencies(in.shots, p, anyKind, latOf))
			out.metrics["kind_p50_ms"] = kindP50(latenciesByClass(in.shots, p, isSimulate, latOf))
			out.metrics["jobs_per_s"] = capacity(served, cpu)
			fmt.Fprintf(o.log, "serve_churn: %d simulate requests p50 %.2fms (per class %.2fms) p99 %.2fms; %d requests, %.2fms server CPU per request\n",
				len(lat), quantile(lat, 0.5), out.metrics["kind_p50_ms"], quantile(lat, 0.99), served, ms(cpu)/float64(served))
			return ctx.Err()
		}()
		if err != nil {
			return nil, err
		}
		out.metrics["setup_s"] = setupS
	}

	// The scenario results do not depend on the seed, so every run checks
	// them; inline configs and tournaments are checked in-process below.
	var fill []string
	for _, r := range in.fill {
		fill = append(fill, r.desc)
	}
	checkOracle(out, o.workload, true, book.subset(fill))
	if err := crossCheckInProcess(ctx, out, book, in.simKeys[:min(2, len(in.simKeys))],
		in.inline[:min(2, len(in.inline))], in.tours[:min(1, len(in.tours))]); err != nil {
		return nil, err
	}
	checkTable2(ctx, out)
	return out, nil
}

// crossCheckInProcess recomputes served answers without the servers —
// resolve and soc.RunWith for simulate requests, engine.RunTournament for
// tournaments — and requires the digests the servers served. Requests of
// the sample that were never served are skipped.
func crossCheckInProcess(ctx context.Context, out *outcome, book *digestBook, keys []scenarioKey, inline []inlineSample, tours []tourSample) error {
	check := func(desc string, want func() (string, error)) {
		got, ok := book.get(desc)
		if !ok {
			return
		}
		w, err := want()
		if err != nil {
			out.fail(fmt.Errorf("%s: in-process: %w", desc, err))
			return
		}
		if got != w {
			out.fail(fmt.Errorf("%s: served %.12s, in-process %.12s", desc, got, w))
		}
	}
	for _, k := range keys {
		check(k.request().desc, func() (string, error) {
			cfg, err := resolveScenario(k.id, k.tasks, k.seed)
			if err != nil {
				return "", err
			}
			return runDigest(ctx, cfg)
		})
	}
	for _, s := range inline {
		check(s.desc, func() (string, error) { return runDigest(ctx, s.cfg) })
	}
	for _, s := range tours {
		check(s.desc, func() (string, error) {
			res, err := engine.RunTournament(ctx, engine.New(engine.Options{Workers: workers}), s.tour)
			if err != nil {
				return "", err
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for _, st := range res.Leaderboard {
				if err := enc.Encode(st); err != nil {
					return "", err
				}
			}
			return leaderboardDigest(append(buf.Bytes(), []byte(`{"done":true}`+"\n")...))
		})
	}
	return ctx.Err()
}

func runDigest(ctx context.Context, cfg soc.Config) (string, error) {
	r, err := soc.RunWith(ctx, cfg, soc.RunOptions{})
	if err != nil {
		return "", err
	}
	return engine.ResultDigest(r), nil
}
