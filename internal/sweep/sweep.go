// Package sweep runs one-dimensional parameter sweeps over SoC
// configurations and reports energy/latency/temperature series — the
// "figure generator" companion to the Table 2 harness, used for the
// ablation studies (timeout length, workload activity, predictor
// smoothing, sleep-state depth) and by dpmbatch -study.
package sweep

import (
	"context"
	"fmt"
	"io"

	"godpm/internal/engine"
	"godpm/internal/soc"
	"godpm/internal/stats"
)

// Point is one sweep sample: the parameter value and the measured outcome.
type Point struct {
	Value     float64
	EnergyJ   float64
	DurationS float64
	AvgTempC  float64
	Completed bool
	// EnergySavingPct / DelayOverheadPct are filled when the sweep builds
	// baselines.
	EnergySavingPct  float64
	DelayOverheadPct float64
}

// Sweep describes a one-dimensional study.
type Sweep struct {
	// Name identifies the study; Param names the swept quantity (CSV
	// column header).
	Name  string
	Param string
	// Values are the parameter samples, in presentation order.
	Values []float64
	// Build returns the configuration under test for a value.
	Build func(v float64) soc.Config
	// BuildBaseline, when non-nil, returns the reference configuration
	// for a value; saving/overhead columns are computed against it.
	BuildBaseline func(v float64) soc.Config
}

// Validate checks the sweep is runnable.
func (s Sweep) Validate() error {
	if s.Name == "" || s.Param == "" {
		return fmt.Errorf("sweep: missing Name or Param")
	}
	if len(s.Values) == 0 {
		return fmt.Errorf("sweep %s: no values", s.Name)
	}
	if s.Build == nil {
		return fmt.Errorf("sweep %s: nil Build", s.Name)
	}
	return nil
}

// Plan lays the sweep out as engine jobs: per value the config under test
// and, when BuildBaseline is set, its reference config as the adjacent job.
func (s Sweep) Plan() engine.Plan {
	var p engine.Plan
	for _, v := range s.Values {
		p.Add(fmt.Sprintf("%s[%s=%g]", s.Name, s.Param, v), s.Build(v))
		if s.BuildBaseline != nil {
			p.Add(fmt.Sprintf("%s[%s=%g]/base", s.Name, s.Param, v), s.BuildBaseline(v))
		}
	}
	return p
}

// RunWith executes the sweep's plan on the given engine, sharing its
// worker pool, cache and counters with other batches.
func (s Sweep) RunWith(ctx context.Context, eng *engine.Engine) ([]Point, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	results, err := eng.Run(ctx, s.Plan())
	if err != nil {
		return nil, fmt.Errorf("sweep %s: %w", s.Name, err)
	}
	stride := 1
	if s.BuildBaseline != nil {
		stride = 2
	}
	pts := make([]Point, 0, len(s.Values))
	for i, v := range s.Values {
		res := results[stride*i].Result
		p := Point{
			Value:     v,
			EnergyJ:   res.EnergyJ,
			DurationS: res.Duration.Seconds(),
			AvgTempC:  res.AvgTempC,
			Completed: res.Completed,
		}
		if s.BuildBaseline != nil {
			base := results[stride*i+1].Result
			if p.EnergySavingPct, err = stats.EnergySavingPct(base.EnergyJ, res.EnergyJ); err != nil {
				return nil, fmt.Errorf("sweep %s at %v: %w", s.Name, v, err)
			}
			if p.DelayOverheadPct, err = stats.DelayOverheadPct(base.Ledger, res.Ledger); err != nil {
				return nil, fmt.Errorf("sweep %s at %v: %w", s.Name, v, err)
			}
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// WriteCSV renders points as CSV with the given parameter column name.
func WriteCSV(w io.Writer, param string, pts []Point, withBaseline bool) error {
	hdr := param + ",energy_j,duration_s,avg_temp_c,completed"
	if withBaseline {
		hdr += ",energy_saving_pct,delay_overhead_pct"
	}
	if _, err := fmt.Fprintln(w, hdr); err != nil {
		return err
	}
	for _, p := range pts {
		line := fmt.Sprintf("%g,%.6g,%.6g,%.4g,%v", p.Value, p.EnergyJ, p.DurationS, p.AvgTempC, p.Completed)
		if withBaseline {
			line += fmt.Sprintf(",%.4g,%.4g", p.EnergySavingPct, p.DelayOverheadPct)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
