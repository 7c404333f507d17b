package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"godpm/internal/sim"
	"godpm/internal/soc"
	"godpm/internal/stats"
	"godpm/internal/workload"
)

// NamedConfig is one tournament scenario: a configuration template whose
// IPs carry workload generator specs (soc.IPSpec.Gen), so each replicate
// seed can regenerate the workload deterministically.
type NamedConfig struct {
	Name   string
	Config soc.Config
}

// PolicyVariant is one tournament entrant: a named transformation applied
// on top of every scenario configuration (select the policy, tune its
// parameters).
type PolicyVariant struct {
	Name string
	// Apply derives the entrant's configuration from the scenario template.
	Apply func(soc.Config) soc.Config
}

// StandardPolicies returns the paper's policy lineup as tournament
// entrants: the DPM architecture, the always-on baseline, fixed-timeout,
// greedy and oracle.
func StandardPolicies() []PolicyVariant {
	return []PolicyVariant{
		{Name: "dpm", Apply: func(c soc.Config) soc.Config { c.Policy = soc.PolicyDPM; return c }},
		{Name: "alwayson", Apply: func(c soc.Config) soc.Config {
			c.Policy = soc.PolicyAlwaysOn
			c.UseGEM = false
			return c
		}},
		{Name: "timeout", Apply: func(c soc.Config) soc.Config {
			c.Policy = soc.PolicyTimeout
			c.UseGEM = false
			return c
		}},
		{Name: "greedy", Apply: func(c soc.Config) soc.Config {
			c.Policy = soc.PolicyGreedy
			c.UseGEM = false
			return c
		}},
		{Name: "oracle", Apply: func(c soc.Config) soc.Config {
			c.Policy = soc.PolicyOracle
			c.UseGEM = false
			return c
		}},
	}
}

// ArenaScenarios returns the built-in scenario catalog: one single-IP
// scenario per workload generator family, each driven by a Gen spec so
// tournament seeds regenerate it. numTasks sizes every workload.
func ArenaScenarios(numTasks int) []NamedConfig {
	single := func(name string, gen workload.Spec) NamedConfig {
		return NamedConfig{
			Name: name,
			Config: soc.Config{
				IPs:    []soc.IPSpec{{Name: "ip0", Gen: gen}},
				Policy: soc.PolicyDPM,
			},
		}
	}
	seed := workload.NewSeed(0) // overwritten by the tournament's reseed
	return []NamedConfig{
		single("steady", workload.ClosedSpec(workload.HighActivity(0, numTasks))),
		single("bursty", workload.BurstSpec(workload.DefaultBurst(0, numTasks))),
		single("mmpp", workload.MMPPSpec(workload.DefaultMMPP(seed, numTasks))),
		single("periodic", workload.PeriodicSpec(workload.DefaultPeriodic(seed, numTasks))),
		single("heavytail", workload.HeavyTailSpec(workload.DefaultHeavyTail(seed, numTasks))),
	}
}

// Entrants picks tournament entrants by name from the built-in
// catalogues: policies from StandardPolicies, scenarios from
// ArenaScenarios(numTasks). Names are trimmed and matched
// case-insensitively, an empty list selects the whole catalogue, and an
// unknown name is refused with the catalogue's names.
func Entrants(policies, scenarios []string, numTasks int) ([]PolicyVariant, []NamedConfig, error) {
	ps, err := pickByName("policy", StandardPolicies(), policies, func(p PolicyVariant) string { return p.Name })
	if err != nil {
		return nil, nil, err
	}
	ss, err := pickByName("scenario", ArenaScenarios(numTasks), scenarios, func(s NamedConfig) string { return s.Name })
	if err != nil {
		return nil, nil, err
	}
	return ps, ss, nil
}

// pickByName returns the catalogue entries named, in the order named.
func pickByName[T any](kind string, catalogue []T, names []string, name func(T) string) ([]T, error) {
	if len(names) == 0 {
		return catalogue, nil
	}
	out := make([]T, 0, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		i := slices.IndexFunc(catalogue, func(x T) bool { return strings.EqualFold(name(x), n) })
		if i < 0 {
			known := make([]string, len(catalogue))
			for j, x := range catalogue {
				known[j] = name(x)
			}
			return nil, fmt.Errorf("unknown %s %q; available: %v", kind, n, known)
		}
		out = append(out, catalogue[i])
	}
	return out, nil
}

// Tournament crosses policies × scenarios × seeds into one plan and
// aggregates the results into per-cell statistics and a ranked
// leaderboard. For every (scenario, seed) pair all policies run the
// bit-identical generated workload — the paired design that cancels
// workload variance out of the policy comparison.
type Tournament struct {
	// Scenarios are the configuration templates. IPs carrying Gen specs
	// are reseeded per replicate; IPs with explicit workloads repeat them.
	Scenarios []NamedConfig
	// Policies are the entrants; every policy runs every scenario × seed.
	Policies []PolicyVariant
	// Seeds are the replicate roots. Each (scenario, IP) derives its
	// generator seed by splitting: seed.Split(scenario).Split(ip name).
	Seeds []workload.Seed
	// Baseline names the Policies entry paired deltas are computed
	// against ("" selects the first policy).
	Baseline string
	// Deadline is the per-task service-time budget for the deadline-miss
	// column (0 disables the column).
	Deadline sim.Time
	// Progress, when non-nil, observes every finished job: done/total are
	// plan-cell counts and leader is the provisional leaderboard head —
	// the policy with the lowest mean energy over the replicates finished
	// so far ("" until the first success). Calls are serialised by the
	// engine; keep the callback cheap (it runs on a worker's path).
	Progress func(done, total int, leader string)
}

// Validate checks the tournament is runnable.
func (t Tournament) Validate() error {
	if len(t.Scenarios) == 0 {
		return fmt.Errorf("engine: tournament has no scenarios")
	}
	if len(t.Policies) == 0 {
		return fmt.Errorf("engine: tournament has no policies")
	}
	if len(t.Seeds) == 0 {
		return fmt.Errorf("engine: tournament has no seeds")
	}
	names := make(map[string]bool, len(t.Policies))
	for _, p := range t.Policies {
		if p.Name == "" || p.Apply == nil {
			return fmt.Errorf("engine: tournament policy with empty name or nil Apply")
		}
		if names[p.Name] {
			return fmt.Errorf("engine: duplicate tournament policy %q", p.Name)
		}
		names[p.Name] = true
	}
	seen := make(map[string]bool, len(t.Scenarios))
	for _, s := range t.Scenarios {
		if s.Name == "" {
			return fmt.Errorf("engine: tournament scenario with empty name")
		}
		if seen[s.Name] {
			return fmt.Errorf("engine: duplicate tournament scenario %q", s.Name)
		}
		seen[s.Name] = true
	}
	if t.Baseline != "" && !names[t.Baseline] {
		return fmt.Errorf("engine: baseline policy %q is not an entrant", t.Baseline)
	}
	return nil
}

// baseline resolves the baseline policy name.
func (t Tournament) baseline() string {
	if t.Baseline != "" {
		return t.Baseline
	}
	return t.Policies[0].Name
}

// Plan lays the tournament out scenario-major, then seed, then policy —
// job ID "scenario/policy@seed" — so all entrants of one (scenario, seed)
// replicate are adjacent and results stay index-computable.
func (t Tournament) Plan() (Plan, error) {
	if err := t.Validate(); err != nil {
		return Plan{}, err
	}
	var plan Plan
	for _, sc := range t.Scenarios {
		for _, seed := range t.Seeds {
			scSeed := seed.Split(sc.Name)
			base := sc.Config
			base.IPs = append([]soc.IPSpec(nil), base.IPs...)
			for i := range base.IPs {
				spec := &base.IPs[i]
				if spec.Gen.Kind != workload.GenNone {
					name := spec.Name
					if name == "" {
						name = fmt.Sprintf("ip%d", i)
					}
					spec.Gen = spec.Gen.Reseed(scSeed.Split(name))
				}
			}
			for _, pol := range t.Policies {
				plan.Add(fmt.Sprintf("%s/%s@%s", sc.Name, pol.Name, seed), pol.Apply(base))
			}
		}
	}
	return plan, nil
}

// Cell is one (scenario, policy) aggregate over the tournament's seeds.
type Cell struct {
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`
	// EnergyJ / AvgTempC / Misses / DurationS summarize the replicates.
	EnergyJ   stats.Summary `json:"energy_j"`
	AvgTempC  stats.Summary `json:"avg_temp_c"`
	Misses    stats.Summary `json:"deadline_misses"`
	DurationS stats.Summary `json:"duration_s"`
	// EnergyVsBasePct is the paired per-seed percent energy delta against
	// the baseline policy (negative = saves energy). Zero-valued for the
	// baseline itself or when pairs are incomplete.
	EnergyVsBasePct stats.Summary `json:"energy_vs_base_pct"`
	// Errors counts failed replicates (excluded from the summaries).
	Errors int `json:"errors"`
}

// Standing is one leaderboard row: a policy aggregated over every
// scenario × seed run, ranked by mean energy (ascending), deadline misses
// and average temperature breaking ties.
type Standing struct {
	Rank   int    `json:"rank"`
	Policy string `json:"policy"`
	// EnergyJ / AvgTempC / Misses summarize all scenario×seed runs.
	EnergyJ  stats.Summary `json:"energy_j"`
	AvgTempC stats.Summary `json:"avg_temp_c"`
	Misses   stats.Summary `json:"deadline_misses"`
	// EnergyVsBasePct pairs every run against the baseline policy on the
	// identical (scenario, seed) workload.
	EnergyVsBasePct stats.Summary `json:"energy_vs_base_pct"`
	Errors          int           `json:"errors"`
}

// TournamentResult is the aggregated outcome.
type TournamentResult struct {
	// Baseline is the resolved baseline policy name.
	Baseline string `json:"baseline"`
	// Cells are scenario-major, policy-minor (len = scenarios × policies).
	Cells []Cell `json:"cells"`
	// Leaderboard is ranked best-first.
	Leaderboard []Standing `json:"leaderboard"`
	// Stats snapshots the engine counters after the run.
	Stats Stats `json:"stats"`
}

// RunTournament executes the tournament plan on the engine and aggregates
// the leaderboard. Failed jobs are excluded from the statistics (and
// counted per cell); the joined job error is returned alongside the
// partial result when at least one aggregate could be formed.
func RunTournament(ctx context.Context, eng *Engine, t Tournament) (*TournamentResult, error) {
	plan, err := t.Plan()
	if err != nil {
		return nil, err
	}
	results, runErr := eng.RunObserved(ctx, plan, t.progressObserver(plan.Len()))

	nPol, nSeed := len(t.Policies), len(t.Seeds)
	baseName := t.baseline()
	baseIdx := 0
	for i, p := range t.Policies {
		if p.Name == baseName {
			baseIdx = i
		}
	}

	// value extracts one replicate column from the plan-ordered results.
	at := func(si, ki, pi int) JobResult {
		return results[(si*nSeed+ki)*nPol+pi]
	}

	res := &TournamentResult{Baseline: baseName}
	perPolicy := make(map[string]*policyAccum, nPol)
	for _, p := range t.Policies {
		perPolicy[p.Name] = &policyAccum{}
	}

	for si, sc := range t.Scenarios {
		for pi, pol := range t.Policies {
			cell := Cell{Scenario: sc.Name, Policy: pol.Name}
			var energy, temp, misses, dur []float64
			var pairPol, pairBase []float64
			for ki := 0; ki < nSeed; ki++ {
				jr := at(si, ki, pi)
				if jr.Err != nil || jr.Result == nil {
					cell.Errors++
					continue
				}
				r := jr.Result
				m := float64(stats.MissedDeadlines(r.Ledger, t.Deadline))
				energy = append(energy, r.EnergyJ)
				temp = append(temp, r.AvgTempC)
				misses = append(misses, m)
				dur = append(dur, r.Duration.Seconds())
				if bj := at(si, ki, baseIdx); bj.Err == nil && bj.Result != nil && bj.Result.EnergyJ != 0 {
					pairPol = append(pairPol, r.EnergyJ)
					pairBase = append(pairBase, bj.Result.EnergyJ)
				}
				acc := perPolicy[pol.Name]
				acc.energy = append(acc.energy, r.EnergyJ)
				acc.temp = append(acc.temp, r.AvgTempC)
				acc.misses = append(acc.misses, m)
			}
			cell.EnergyJ = stats.Summarize(energy)
			cell.AvgTempC = stats.Summarize(temp)
			cell.Misses = stats.Summarize(misses)
			cell.DurationS = stats.Summarize(dur)
			if pol.Name != baseName && len(pairPol) > 0 {
				if d, err := stats.PairedPct(pairPol, pairBase); err == nil {
					cell.EnergyVsBasePct = d
				}
			}
			acc := perPolicy[pol.Name]
			acc.errors += cell.Errors
			acc.pairPol = append(acc.pairPol, pairPol...)
			acc.pairBase = append(acc.pairBase, pairBase...)
			res.Cells = append(res.Cells, cell)
		}
	}

	for _, pol := range t.Policies {
		acc := perPolicy[pol.Name]
		st := Standing{
			Policy:   pol.Name,
			EnergyJ:  stats.Summarize(acc.energy),
			AvgTempC: stats.Summarize(acc.temp),
			Misses:   stats.Summarize(acc.misses),
			Errors:   acc.errors,
		}
		if pol.Name != baseName && len(acc.pairPol) > 0 {
			if d, err := stats.PairedPct(acc.pairPol, acc.pairBase); err == nil {
				st.EnergyVsBasePct = d
			}
		}
		res.Leaderboard = append(res.Leaderboard, st)
	}
	sort.SliceStable(res.Leaderboard, func(i, j int) bool {
		a, b := res.Leaderboard[i], res.Leaderboard[j]
		if a.EnergyJ.Mean != b.EnergyJ.Mean {
			return a.EnergyJ.Mean < b.EnergyJ.Mean
		}
		if a.Misses.Mean != b.Misses.Mean {
			return a.Misses.Mean < b.Misses.Mean
		}
		if a.AvgTempC.Mean != b.AvgTempC.Mean {
			return a.AvgTempC.Mean < b.AvgTempC.Mean
		}
		return a.Policy < b.Policy
	})
	for i := range res.Leaderboard {
		res.Leaderboard[i].Rank = i + 1
	}
	res.Stats = eng.Stats()
	// Wall-clock latency is volatile — two identical tournaments time
	// differently — and a TournamentResult's renderings are pinned
	// byte-identical across worker counts and reruns, so the latency
	// sketch stays out of the snapshot (servers surface it via /statsz).
	res.Stats.RunLatency = nil
	return res, runErr
}

// progressObserver adapts Progress into an engine result observer,
// tracking the provisional energy leader incrementally. Plans are laid
// out scenario-major, seed, policy, so a job's policy is its plan index
// modulo the policy count. Returns nil when no Progress is registered.
func (t Tournament) progressObserver(total int) func(i int, jr JobResult) {
	if t.Progress == nil {
		return nil
	}
	nPol := len(t.Policies)
	sums := make([]float64, nPol)
	counts := make([]int, nPol)
	done := 0
	return func(i int, jr JobResult) {
		done++
		if jr.Err == nil && jr.Result != nil {
			pi := i % nPol
			sums[pi] += jr.Result.EnergyJ
			counts[pi]++
		}
		leader := ""
		best := math.Inf(1)
		for pi, p := range t.Policies {
			if counts[pi] == 0 {
				continue
			}
			if m := sums[pi] / float64(counts[pi]); m < best {
				best, leader = m, p.Name
			}
		}
		t.Progress(done, total, leader)
	}
}

// policyAccum collects one policy's runs across all scenarios × seeds.
type policyAccum struct {
	energy, temp, misses []float64
	pairPol, pairBase    []float64
	errors               int
}

// WriteLeaderboardCSV renders the ranked leaderboard as CSV.
func (r *TournamentResult) WriteLeaderboardCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "rank,policy,runs,energy_j_mean,energy_j_ci95,energy_vs_base_pct,avg_temp_c_mean,deadline_misses_mean,errors"); err != nil {
		return err
	}
	for _, s := range r.Leaderboard {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%.6g,%.4g,%.4g,%.4g,%.4g,%d\n",
			s.Rank, s.Policy, s.EnergyJ.N, s.EnergyJ.Mean, s.EnergyJ.CI95,
			s.EnergyVsBasePct.Mean, s.AvgTempC.Mean, s.Misses.Mean, s.Errors); err != nil {
			return err
		}
	}
	return nil
}

// WriteCellsCSV renders the per-(scenario, policy) aggregates as CSV.
func (r *TournamentResult) WriteCellsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "scenario,policy,seeds,energy_j_mean,energy_j_stddev,energy_j_ci95,energy_vs_base_pct,avg_temp_c_mean,deadline_misses_mean,duration_s_mean,errors"); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%.6g,%.4g,%.4g,%.4g,%.4g,%.4g,%.6g,%d\n",
			c.Scenario, c.Policy, c.EnergyJ.N, c.EnergyJ.Mean, c.EnergyJ.StdDev, c.EnergyJ.CI95,
			c.EnergyVsBasePct.Mean, c.AvgTempC.Mean, c.Misses.Mean, c.DurationS.Mean, c.Errors); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the full result (cells, leaderboard, engine counters).
func (r *TournamentResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// FormatLeaderboard renders the ranked table for humans.
func (r *TournamentResult) FormatLeaderboard() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-10s %6s %22s %14s %12s %10s\n",
		"rank", "policy", "runs", "energy (J, ±95% CI)", "vs "+r.Baseline+" (%)", "avg temp °C", "misses")
	for _, s := range r.Leaderboard {
		vsBase := "-"
		if s.Policy != r.Baseline && s.EnergyVsBasePct.N > 0 {
			vsBase = fmt.Sprintf("%+.1f", s.EnergyVsBasePct.Mean)
		}
		fmt.Fprintf(&sb, "%-4d %-10s %6d %14.4g ± %-7.3g %14s %12.2f %10.2f\n",
			s.Rank, s.Policy, s.EnergyJ.N, s.EnergyJ.Mean, s.EnergyJ.CI95,
			vsBase, s.AvgTempC.Mean, s.Misses.Mean)
	}
	return sb.String()
}
