package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"godpm/internal/soc"
	"godpm/internal/workload"
)

// The fmt-based canonical encoder the cache keys and result digests were
// first defined by, kept as the reference the appenders in hash.go must
// reproduce byte for byte. Do not change it: its output is what every
// existing store was keyed with.

// refConfigBytes returns the reference encoding of a config's fields.
func refConfigBytes(c *soc.Config) []byte {
	var buf bytes.Buffer
	refWriteConfig(&buf, c)
	return buf.Bytes()
}

// refResultBytes returns the reference ResultDigest input, version tag
// included.
func refResultBytes(r *soc.Result) []byte {
	var buf bytes.Buffer
	io.WriteString(&buf, "godpm-result-v3")
	refWriteResult(&buf, r)
	return buf.Bytes()
}

// refFingerprint is the reference Fingerprint.
func refFingerprint(cfg soc.Config) (string, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	io.WriteString(h, "godpm-config-v4")
	refWriteConfig(h, &norm)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// refJobKey is the reference job key: the fingerprint extended with the
// stop conditions' reasons.
func refJobKey(job Job) (string, error) {
	key, err := refFingerprint(job.Config)
	if err != nil || len(job.Options.StopWhen) == 0 {
		return key, err
	}
	h := sha256.New()
	io.WriteString(h, "godpm-config-v4")
	refField(h, "base", key)
	refField(h, "nstops", len(job.Options.StopWhen))
	for _, c := range job.Options.StopWhen {
		refField(h, "stop", c.Reason)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// refForkPrefixKey is the reference fork-prefix key.
func refForkPrefixKey(cfg soc.Config) (string, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return "", err
	}
	norm.Horizon = 0
	h := sha256.New()
	io.WriteString(h, "godpm-config-v4")
	io.WriteString(h, "|forkprefix")
	refWriteConfig(h, &norm)
	return hex.EncodeToString(h.Sum(nil)), nil
}

func refWriteConfig(w io.Writer, c *soc.Config) {
	refField(w, "policy", c.Policy)
	refField(w, "usegem", c.UseGEM)
	refField(w, "gem", c.GEM)
	refField(w, "battery", c.Battery)
	refField(w, "thermal", c.Thermal)
	refField(w, "initialtempc", c.InitialTempC)
	refField(w, "periptherm", c.PerIPThermal)
	refField(w, "thermalnet", c.ThermalNetwork)
	refField(w, "bus", c.Bus)
	refField(w, "buswords", c.BusWords)
	refField(w, "timeout", c.Timeout)
	refField(w, "timeoutsleep", int(c.TimeoutSleepState))
	refField(w, "greedysleep", int(c.GreedySleepState))
	refField(w, "sample", c.SampleInterval)
	refField(w, "horizon", c.Horizon)
	refField(w, "baseclock", c.BaseClockHz)
	if c.Regulator != nil {
		refField(w, "regulator", *c.Regulator)
	}

	refField(w, "lem.predictor", c.LEM.Predictor)
	refField(w, "lem.alpha", c.LEM.Alpha)
	refField(w, "lem.nobreakeven", c.LEM.DisableBreakEven)
	refField(w, "lem.softoff", c.LEM.AllowSoftOff)
	if c.LEM.Table != nil {
		refField(w, "lem.table", c.LEM.Table.Format())
	}

	refField(w, "nips", len(c.IPs))
	for i := range c.IPs {
		spec := &c.IPs[i]
		refField(w, "ip.name", spec.Name)
		refField(w, "ip.prio", spec.StaticPriority)
		refField(w, "ip.init", int(spec.InitialState))
		refField(w, "ip.profile", *spec.Profile)
		if spec.Gen.Kind != workload.GenNone {
			refField(w, "ip.gen", spec.Gen)
		}
		refField(w, "ip.nseq", len(spec.Sequence))
		for _, it := range spec.Sequence {
			refField(w, "s", it)
		}
		refField(w, "ip.narr", len(spec.Arrivals))
		for _, a := range spec.Arrivals {
			refField(w, "a", a)
		}
	}
}

func refField(w io.Writer, name string, v any) {
	fmt.Fprintf(w, "|%s=%+v", name, v)
}

func refWriteResult(w io.Writer, r *soc.Result) {
	refField(w, "energy", r.EnergyJ)
	refField(w, "deltas", r.Deltas)
	refField(w, "stopreason", r.StopReason)
	refWriteFloatMap(w, "energyby", r.EnergyByIP)
	refField(w, "busenergy", r.BusEnergyJ)
	refField(w, "avgtemp", r.AvgTempC)
	refField(w, "peaktemp", r.PeakTempC)
	refField(w, "ambient", r.AmbientC)
	refField(w, "duration", r.Duration)
	refField(w, "completed", r.Completed)
	refField(w, "tasks", r.TasksDone)
	refField(w, "cycles", r.Cycles)
	refField(w, "soc", r.FinalSoC)
	refField(w, "batt", int(r.FinalBatteryStatus))
	refField(w, "gemev", r.GEMEvaluations)
	refField(w, "fan", r.FanSwitches)
	refField(w, "busocc", r.BusOccupancy)
	if r.Ledger != nil {
		refField(w, "nledger", r.Ledger.Len())
		for _, rec := range r.Ledger.Records() {
			refField(w, "l", rec)
		}
	}
	names := make([]string, 0, len(r.LEMStats))
	for name := range r.LEMStats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.LEMStats[name]
		refWriteIntMap(w, name+".on", s.OnDecisions)
		refWriteIntMap(w, name+".sleep", s.SleepEntries)
		refField(w, name+".park", s.ParkEvents)
		refField(w, name+".parked", s.ParkedTime)
	}
}

func refWriteFloatMap(w io.Writer, name string, m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		refField(w, name+"."+k, m[k])
	}
}

func refWriteIntMap(w io.Writer, name string, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		refField(w, name+"."+k, m[k])
	}
}
