package engine

import "godpm/internal/soc"

// Job is one unit of work: a complete simulation configuration plus a
// human-readable identifier (unique within a plan by convention; the
// cache key is the config fingerprint, not the ID).
type Job struct {
	ID     string
	Config soc.Config
	// Options are the run-time options the job simulates with. Observers
	// are pure instrumentation and do not affect caching — but a
	// cache-served job never simulates, so its observers see nothing.
	// StopWhen conditions change the Result; their Reason strings are
	// folded into the cache key, and jobs with Volatile (host-timing)
	// conditions are never cached.
	Options soc.RunOptions
}

// Plan is an ordered list of jobs. Order is significant: the engine's
// results come back index-aligned with the plan regardless of execution
// order, so builders can lay out grids however downstream aggregation
// wants to read them.
type Plan struct {
	Jobs []Job
}

// Add appends one job and returns the plan for chaining.
func (p *Plan) Add(id string, cfg soc.Config) *Plan {
	p.Jobs = append(p.Jobs, Job{ID: id, Config: cfg})
	return p
}

// AddPair appends a run and its reference configuration as two adjacent
// jobs (`id/dpm`, `id/base`) — the layout the Table 2 harness consumes.
func (p *Plan) AddPair(id string, cfg, baseline soc.Config) *Plan {
	p.Add(id+"/dpm", cfg)
	p.Add(id+"/base", baseline)
	return p
}

// Len returns the number of jobs.
func (p *Plan) Len() int { return len(p.Jobs) }
