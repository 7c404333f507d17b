package soc_test

import (
	"testing"

	"godpm/internal/experiments"
	"godpm/internal/soc"
)

// BenchmarkAccountantSample runs scenario B's DPM configuration (the
// Table 2 tuning of the root benchmarks) and reports the run's wall time
// per fast-forwarded accountant sample. Fast-forwarded samples are the
// idle stretches the sampler's steady loop takes, and they are most of
// the run's samples, so ns/sample tracks the sampler's per-sample cost;
// it also carries the run's share of event-driven work.
func BenchmarkAccountantSample(b *testing.B) {
	t := experiments.DefaultTuning()
	t.NumTasks = 60
	cfg := experiments.B(t).Config
	b.ReportAllocs()
	var samples uint64
	for b.Loop() {
		_, n, err := soc.RunCountingSamples(cfg)
		if err != nil {
			b.Fatal(err)
		}
		samples += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
	b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
}
