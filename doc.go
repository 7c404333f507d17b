// Package godpm is a pure-Go reproduction of "SystemC Analysis of a New
// Dynamic Power Management Architecture" (Massimo Conti, DATE 2005): an
// ACPI-style dynamic power management architecture for systems-on-chip —
// a Power State Machine and Local Energy Manager per IP block, an optional
// Global Energy Manager arbitrating on battery status, chip temperature and
// static priorities — rebuilt on a SystemC-like discrete-event kernel.
//
// This root package is the public façade: it re-exports everything needed
// to assemble and run a DPM-managed SoC, watch it through streaming
// Observers, cut runs short with StopCondition, regenerate the paper's
// Table 2 scenarios, generate seeded stochastic workloads (bursty, MMPP,
// periodic-with-jitter, heavy-tailed, CSV trace replay — see GenSpec and
// WorkloadSeed), execute grids on the concurrent cached batch engine, and
// rank policies across generated scenarios with RunTournament (the
// cmd/dpmarena CLI). Runs fast-forward across provably idle stretches by
// default — the kernel hands each idle stretch's periodic accounting to
// the accountant in one call instead of scheduling every empty instant,
// bit-identical to classic ticked execution (RunOptions.NoFastForward
// forces the latter for comparison).
// The engine's cache is a sharded bounded LRU with singleflight dedup
// (concurrent identical jobs collapse to one simulation), which is what
// the long-running cmd/dpmserve HTTP service builds on to serve
// simulation and tournament traffic. Plans whose jobs differ only in
// Horizon warm-start from a shared snapshot-forked session: the common
// trajectory prefix simulates once and each job's result is cut at its
// own horizon (Stats.Forked counts the replicates served this way),
// while every job keeps its own cache key. Results live in one store
// (NewTieredCache) whose tiers form a flat list, fastest first: memory,
// then optionally a directory of record files, then optionally a client
// of the shared hash-addressed result store served by cmd/dpmremote
// (RemoteCacheOptions configures it; it speaks a versioned blob
// protocol), so a fleet of dpmserve replicas runs each distinct
// configuration once fleet-wide. Every tier stores one
// currency, CacheRecord: a versioned, checksummed, flate-compressed
// binary container of the result's canonical JSON, so cache hits and
// blob transfers copy pre-encoded bytes instead of re-marshalling, byte
// caps account exactly, and old JSON disk entries heal by
// re-simulation (see the README's "Cache format"). The serving fleet is
// observable end to end: both servers expose mergeable latency sketches
// and rolling rates on /statsz (internal/stats, watched live with
// cmd/dpmtop), and dpmserve can journal every handled request to an
// append-only NDJSON file (internal/journal) that the loadgen's -replay
// mode re-issues with the original request mix and arrival spacing:
//
//	cfg := godpm.Config{
//	    IPs:    []godpm.IPSpec{{Name: "cpu", Sequence: seq}},
//	    Policy: godpm.PolicyDPM,
//	}
//	res, err := godpm.RunWith(ctx, cfg, godpm.RunOptions{
//	    Observers: []godpm.Observer{godpm.NewVCDObserver(f)},
//	    StopWhen:  []godpm.StopCondition{godpm.StopOnBatteryEmpty()},
//	})
//
// See README.md for the package map, the scenario catalog, the experiment
// harness and the migration notes from the pre-2.0 Config.TraceVCD/
// TraceCSV fields. The implementation packages remain under internal/
// (sim, acpi, lem, gem, battery, thermal, rules, workload, bus, soc,
// engine, experiments, stats, journal), commands under cmd/ (dpmsim,
// dpmbatch, dpmarena, dpmserve, dpmremote, dpmtop, dpmtable, dpmtrace)
// and runnable examples under examples/.
package godpm
