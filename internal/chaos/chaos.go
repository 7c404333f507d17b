// Package chaos is a deterministic, seed-driven fault-injection layer
// for the engine's cache fleet. A Plan is a pure value derived from a
// workload.Seed — reproducible and hashable exactly like a workload
// Spec — that schedules faults per operation class: injected latency,
// transient and permanent errors, corrupt payloads, torn writes and
// crash points. It is applied through three seams:
//
//   - Tier wraps any engine.Cache (faults become misses and Put errors),
//   - RoundTripper wraps engine.Remote's HTTP transport (faults become
//     network errors, error statuses, corrupt or truncated bodies),
//   - FaultFS wraps the engine.FS seam the Disk cache writes through
//     (faults become torn writes and failed syncs/renames).
//
// Determinism is the point: the decision for the k-th operation of a
// class is a pure function of (seed, spec, k), independent of goroutine
// interleaving, so a failing chaos run is re-runnable from its seed and
// an invariant suite can assert contracts hold under the exact same
// fault schedule every time.
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"godpm/internal/engine"
	"godpm/internal/workload"
)

// ErrInjected marks every error the chaos layer fabricates, so tests and
// logs can tell injected faults from real ones.
var ErrInjected = errors.New("chaos: injected fault")

// Fault is one scheduled fault kind.
type Fault int

const (
	// FaultNone leaves the operation untouched (latency may still apply).
	FaultNone Fault = iota
	// FaultTransient fails the operation with a retryable error.
	FaultTransient
	// FaultPermanent fails the operation definitively (a 4xx on the
	// wire; a plain error elsewhere).
	FaultPermanent
	// FaultCorrupt flips a byte of the payload where the seam carries
	// bytes; at value-level seams it degrades to FaultTransient, because
	// a wrapper handing out decoded values cannot corrupt one without
	// poisoning callers by construction.
	FaultCorrupt
	// FaultTorn truncates the payload (a partial write or response).
	FaultTorn
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultTransient:
		return "transient"
	case FaultPermanent:
		return "permanent"
	case FaultCorrupt:
		return "corrupt"
	case FaultTorn:
		return "torn"
	}
	return "unknown"
}

// Decision is the fault schedule's verdict for one operation.
type Decision struct {
	Fault   Fault
	Latency time.Duration
	// Frac positions payload faults: the corrupted byte (or tear point)
	// sits at Frac of the payload length. In [0, 1).
	Frac float64
}

// Spec sets one seam's fault probabilities. The zero value injects
// nothing. Probabilities are per operation and drawn independently;
// fault kinds are mutually exclusive per op (cumulative draw in the
// order transient, permanent, corrupt, torn).
type Spec struct {
	// PLatency is the probability an op is delayed; the delay is uniform
	// in (0, MaxLatency].
	PLatency   float64       `json:"p_latency,omitempty"`
	MaxLatency time.Duration `json:"max_latency,omitempty"`
	// PTransient / PPermanent / PCorrupt / PTorn select the fault kinds.
	PTransient float64 `json:"p_transient,omitempty"`
	PPermanent float64 `json:"p_permanent,omitempty"`
	PCorrupt   float64 `json:"p_corrupt,omitempty"`
	PTorn      float64 `json:"p_torn,omitempty"`
	// OutageStart/OutageLen schedule a deterministic total outage: ops
	// with index in [OutageStart, OutageStart+OutageLen) all fail
	// transiently regardless of the probability draws. This is what
	// makes breaker trips testable rather than probabilistic. OutageLen
	// 0 means no outage.
	OutageStart int `json:"outage_start,omitempty"`
	OutageLen   int `json:"outage_len,omitempty"`
}

// Plan is a complete seeded fault schedule for a process: one Spec per
// seam, all derived decisions rooted at Seed. It is a pure value — two
// equal Plans inject bit-identical schedules — and hashes like a
// workload Spec, so a chaos run is citable by a short string.
type Plan struct {
	Seed      workload.Seed `json:"seed"`
	Tier      Spec          `json:"tier"`
	Transport Spec          `json:"transport"`
	FS        Spec          `json:"fs"`
}

// DefaultPlan is the stock schedule the -chaos-seed flags apply: enough
// latency, flapping, corruption and torn writes to exercise every
// fail-open path, plus a deterministic transport outage long enough to
// trip the default breaker, while staying sparse enough that a loadgen
// run completes with zero client-visible failures.
func DefaultPlan(seed workload.Seed) Plan {
	return Plan{
		Seed: seed,
		Tier: Spec{
			PLatency: 0.05, MaxLatency: 2 * time.Millisecond,
			PTransient: 0.02,
		},
		Transport: Spec{
			PLatency: 0.10, MaxLatency: 5 * time.Millisecond,
			PTransient: 0.05, PPermanent: 0.01,
			PCorrupt: 0.05, PTorn: 0.02,
			OutageStart: 40, OutageLen: 12,
		},
		FS: Spec{
			PTransient: 0.02, PTorn: 0.02,
		},
	}
}

// Hash is the plan's content fingerprint (SHA-256 over the canonical
// JSON encoding) — the reproduction handle logged by the serving
// commands and recorded by CI.
func (p Plan) Hash() string {
	data, err := json.Marshal(p)
	if err != nil {
		// Plan is plain scalars; Marshal cannot fail. Keep the signature
		// ergonomic for logging.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// WrapCache applies the plan's Tier spec to a cache.
func (p Plan) WrapCache(inner engine.Cache) *Tier {
	return NewTier(inner, p.Seed.Split("tier"), p.Tier)
}

// WrapTransport applies the plan's Transport spec to an HTTP transport
// (the shape engine.RemoteOptions.WrapTransport wants).
func (p Plan) WrapTransport(inner http.RoundTripper) http.RoundTripper {
	return NewRoundTripper(inner, p.Seed.Split("transport"), p.Transport)
}

// WrapFS applies the plan's FS spec to a filesystem seam (the shape
// engine.DiskOptions.FS wants).
func (p Plan) WrapFS(inner engine.FS) *FaultFS {
	return NewFaultFS(inner, p.Seed.Split("fs"), p.FS)
}

// InjectorStats count what one injector actually did.
type InjectorStats struct {
	Ops        int64 `json:"ops"`
	Delayed    int64 `json:"delayed,omitempty"`
	Transients int64 `json:"transients,omitempty"`
	Permanents int64 `json:"permanents,omitempty"`
	Corrupts   int64 `json:"corrupts,omitempty"`
	Torn       int64 `json:"torn,omitempty"`
	// Outage counts ops failed by the deterministic outage window
	// (included in Transients).
	Outage int64 `json:"outage,omitempty"`
}

// Injector turns a (seed, Spec) pair into a deterministic per-operation
// fault schedule. The decision for the k-th Next call is a pure function
// of (seed, spec, k): each op draws from its own split of the seed, so
// schedules do not depend on which goroutine asks first — only on the
// order ops are admitted, which the caller's seam serialises. Safe for
// concurrent use.
type Injector struct {
	seed workload.Seed
	spec Spec

	mu    sync.Mutex
	n     int
	stats InjectorStats
}

// NewInjector builds an injector for one seam.
func NewInjector(seed workload.Seed, spec Spec) *Injector {
	return &Injector{seed: seed, spec: spec}
}

// Next admits one operation and returns its scheduled decision.
func (in *Injector) Next() Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	k := in.n
	in.n++
	in.stats.Ops++
	d := decide(in.seed, in.spec, k)
	switch d.Fault {
	case FaultTransient:
		in.stats.Transients++
		if inOutage(in.spec, k) {
			in.stats.Outage++
		}
	case FaultPermanent:
		in.stats.Permanents++
	case FaultCorrupt:
		in.stats.Corrupts++
	case FaultTorn:
		in.stats.Torn++
	}
	if d.Latency > 0 {
		in.stats.Delayed++
	}
	return d
}

func inOutage(spec Spec, k int) bool {
	return spec.OutageLen > 0 && k >= spec.OutageStart && k < spec.OutageStart+spec.OutageLen
}

// decide computes op k's decision: a pure function of its inputs. The
// draw order (latency, fault, frac) is fixed — part of the schedule's
// definition, so reordering it would silently change every seeded run.
func decide(seed workload.Seed, spec Spec, k int) Decision {
	rng := seed.SplitN(k).RNG()
	var d Decision
	if u := rng.Float64(); spec.PLatency > 0 && u < spec.PLatency {
		d.Latency = time.Duration(rng.Float64() * float64(spec.MaxLatency))
		if d.Latency <= 0 {
			d.Latency = 1
		}
	} else {
		// Burn the latency-magnitude draw so the fault draw's position in
		// the stream does not depend on whether latency fired.
		_ = rng.Float64()
	}
	u := rng.Float64()
	switch {
	case inOutage(spec, k):
		d.Fault = FaultTransient
	case u < spec.PTransient:
		d.Fault = FaultTransient
	case u < spec.PTransient+spec.PPermanent:
		d.Fault = FaultPermanent
	case u < spec.PTransient+spec.PPermanent+spec.PCorrupt:
		d.Fault = FaultCorrupt
	case u < spec.PTransient+spec.PPermanent+spec.PCorrupt+spec.PTorn:
		d.Fault = FaultTorn
	}
	d.Frac = rng.Float64()
	return d
}
