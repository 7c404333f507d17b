package stats

import (
	"math"
	"strings"
	"testing"

	"godpm/internal/sim"
)

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if s := Summarize([]float64{3}); s.N != 1 || s.Mean != 3 || s.StdDev != 0 || s.CI95 != 0 {
		t.Fatalf("singleton summary = %+v", s)
	}
	// 2, 4, 4, 4, 5, 5, 7, 9: mean 5, sample stddev sqrt(32/7).
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(xs)
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary = %+v", s)
	}
	wantSD := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.StdDev-wantSD) > 1e-12 {
		t.Errorf("stddev = %v, want %v", s.StdDev, wantSD)
	}
	// df=7 → t=2.365.
	wantCI := 2.365 * wantSD / math.Sqrt(8)
	if math.Abs(s.CI95-wantCI) > 1e-12 {
		t.Errorf("ci95 = %v, want %v", s.CI95, wantCI)
	}
	// Above 30 observations the normal quantile applies.
	big := make([]float64, 40)
	for i := range big {
		big[i] = float64(i % 2)
	}
	bs := Summarize(big)
	if want := 1.96 * bs.StdDev / math.Sqrt(40); math.Abs(bs.CI95-want) > 1e-12 {
		t.Errorf("large-n ci95 = %v, want %v", bs.CI95, want)
	}
}

func TestSummaryString(t *testing.T) {
	if got := Summarize(nil).String(); got != "n/a" {
		t.Errorf("empty summary renders %q", got)
	}
	s := Summarize([]float64{1, 2, 3}).String()
	if !strings.Contains(s, "±") || !strings.Contains(s, "n=3") {
		t.Errorf("summary renders %q", s)
	}
}

func TestPairedPct(t *testing.T) {
	p, err := PairedPct([]float64{50, 150}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if p.Mean != 0 || p.Min != -50 || p.Max != 50 {
		t.Fatalf("paired pct = %+v", p)
	}
	if _, err := PairedPct([]float64{1}, []float64{0}); err == nil {
		t.Error("zero baseline accepted")
	}
}

func TestMissedDeadlines(t *testing.T) {
	l := &Ledger{}
	l.Add(TaskRecord{IP: "a", TaskID: 0, Request: 0, Done: 5 * sim.Ms})
	l.Add(TaskRecord{IP: "a", TaskID: 1, Request: 0, Done: 20 * sim.Ms})
	l.Add(TaskRecord{IP: "b", TaskID: 0, Request: 10 * sim.Ms, Done: 12 * sim.Ms})
	if got := MissedDeadlines(l, 10*sim.Ms); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := MissedDeadlines(l, sim.Ms); got != 3 {
		t.Errorf("misses = %d, want 3", got)
	}
	if got := MissedDeadlines(l, 0); got != 0 {
		t.Errorf("disabled deadline counted %d misses", got)
	}
	if got := MissedDeadlines(nil, sim.Ms); got != 0 {
		t.Errorf("nil ledger counted %d misses", got)
	}
}
