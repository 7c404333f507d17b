package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/task"
)

// totalIdle sums a sequence's idle gaps.
func totalIdle(s Sequence) sim.Time {
	var t sim.Time
	for _, it := range s {
		t += it.IdleAfter
	}
	return t
}

func TestGenerateDeterministic(t *testing.T) {
	p := HighActivity(42, 100)
	a := p.MustGenerate()
	b := p.MustGenerate()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := HighActivity(1, 50).MustGenerate()
	b := HighActivity(2, 50).MustGenerate()
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestGenerateValidates(t *testing.T) {
	s := HighActivity(7, 200).MustGenerate()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s) != 200 {
		t.Fatalf("len = %d", len(s))
	}
}

func TestInstructionJitterBounds(t *testing.T) {
	p := HighActivity(3, 500)
	s := p.MustGenerate()
	lo := float64(p.MeanInstructions) * (1 - p.InstrJitter)
	hi := float64(p.MeanInstructions) * (1 + p.InstrJitter)
	for _, it := range s {
		n := float64(it.Task.Instructions)
		if n < lo-1 || n > hi+1 {
			t.Fatalf("instructions %v outside [%v,%v]", n, lo, hi)
		}
	}
}

func TestActivityLevels(t *testing.T) {
	hi := HighActivity(5, 300).MustGenerate()
	lo := LowActivity(5, 300).MustGenerate()
	if totalIdle(lo) <= totalIdle(hi) {
		t.Fatalf("low-activity idle %v not greater than high-activity %v",
			totalIdle(lo), totalIdle(hi))
	}
	// Same seed and task parameters: the busy work is identical.
	if hi.TotalInstructions() != lo.TotalInstructions() {
		t.Fatal("activity level changed the task work")
	}
}

func TestFixedDistribution(t *testing.T) {
	p := HighActivity(1, 50)
	p.IdleDist = Fixed
	for _, it := range p.MustGenerate() {
		if it.IdleAfter != p.MeanIdle {
			t.Fatalf("fixed idle gap %v, want %v", it.IdleAfter, p.MeanIdle)
		}
	}
}

func TestExponentialMeanApproximate(t *testing.T) {
	p := HighActivity(11, 4000)
	s := p.MustGenerate()
	mean := float64(totalIdle(s)) / float64(len(s))
	want := float64(p.MeanIdle)
	if math.Abs(mean-want)/want > 0.1 {
		t.Fatalf("empirical mean idle %v deviates >10%% from %v", mean, want)
	}
}

func TestParetoBoundedAndPositive(t *testing.T) {
	p := HighActivity(13, 2000)
	p.IdleDist = Pareto
	for _, it := range p.MustGenerate() {
		if it.IdleAfter <= 0 {
			t.Fatal("non-positive Pareto gap")
		}
		if it.IdleAfter > 50*p.MeanIdle {
			t.Fatalf("Pareto gap %v beyond clamp", it.IdleAfter)
		}
	}
}

func TestDistributionString(t *testing.T) {
	if Fixed.String() != "Fixed" || Exponential.String() != "Exponential" || Pareto.String() != "Pareto" {
		t.Fatal("distribution names wrong")
	}
	if !strings.Contains(Distribution(9).String(), "9") {
		t.Fatal("unknown distribution string")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	mut := []func(*Profile){
		func(p *Profile) { p.NumTasks = 0 },
		func(p *Profile) { p.MeanInstructions = 0 },
		func(p *Profile) { p.InstrJitter = 1.0 },
		func(p *Profile) { p.MeanIdle = -1 },
		func(p *Profile) { p.ClassWeights[0] = -1 },
		func(p *Profile) { p.PriorityWeights[0] = -1 },
	}
	for i, m := range mut {
		p := HighActivity(1, 10)
		m(&p)
		if _, err := p.Generate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestZeroWeightsDefaults(t *testing.T) {
	p := Profile{Seed: 1, NumTasks: 10, MeanInstructions: 1000, MeanIdle: sim.Ms}
	s := p.MustGenerate()
	for _, it := range s {
		if it.Task.Class != power.InstrALU {
			t.Fatalf("default class should be ALU, got %v", it.Task.Class)
		}
		if it.Task.Priority != task.Medium {
			t.Fatalf("default priority should be Medium, got %v", it.Task.Priority)
		}
	}
}

func TestPriorityMixCoversClasses(t *testing.T) {
	s := HighActivity(17, 2000).MustGenerate()
	var seen [task.NumPriorities]int
	for _, it := range s {
		seen[it.Task.Priority]++
	}
	for p, n := range seen {
		if n == 0 {
			t.Errorf("priority %v never generated", task.Priority(p))
		}
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	s := HighActivity(23, 100).MustGenerate()
	var sb strings.Builder
	if err := ExportCSV(&sb, s); err != nil {
		t.Fatal(err)
	}
	got, err := ImportCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("len %d vs %d", len(got), len(s))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("item %d differs after round trip: %+v vs %+v", i, got[i], s[i])
		}
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	bad := []string{
		"1,1000,ALU",          // short line
		"x,1000,ALU,Medium,5", // bad id
		"1,1000,FPU,Medium,5", // bad class
		"1,1000,ALU,Urgent,5", // bad priority
		"1,0,ALU,Medium,5",    // zero instructions (fails Validate)
		"1,100,ALU,Medium,-5", // negative idle
	}
	for _, src := range bad {
		if _, err := ImportCSV(strings.NewReader(src)); err == nil {
			t.Errorf("ImportCSV(%q) succeeded", src)
		}
	}
}

// Property: generation never produces invalid sequences for any seed.
func TestGenerateAlwaysValidProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		p := HighActivity(seed, int(n%50)+1)
		s, err := p.Generate()
		if err != nil {
			return false
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateArrivalsOrderedAndDeterministic(t *testing.T) {
	p := HighActivity(31, 100)
	a := p.MustGenerateArrivals(200e6)
	b := p.MustGenerateArrivals(200e6)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a) != 100 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("arrivals not deterministic")
		}
	}
	if a[0].At != 0 {
		t.Fatalf("first arrival at %v, want 0", a[0].At)
	}
}

func TestGenerateArrivalsMatchesClosedLoopWork(t *testing.T) {
	p := HighActivity(31, 200)
	closed := p.MustGenerate()
	open := p.MustGenerateArrivals(200e6)
	if closed.TotalInstructions() != open.TotalInstructions() {
		t.Fatalf("work differs: %d vs %d",
			closed.TotalInstructions(), open.TotalInstructions())
	}
}

func TestGenerateArrivalsBadFreq(t *testing.T) {
	if _, err := HighActivity(1, 5).GenerateArrivals(0); err == nil {
		t.Fatal("zero frequency accepted")
	}
}

func TestArrivalSequenceValidateRejectsDisorder(t *testing.T) {
	good := HighActivity(1, 5).MustGenerateArrivals(200e6)
	bad := append(ArrivalSequence{}, good...)
	bad[0], bad[1] = bad[1], bad[0]
	if err := bad.Validate(); err == nil {
		t.Fatal("disordered arrivals accepted")
	}
	neg := ArrivalSequence{{Task: good[0].Task, At: -1}}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative arrival accepted")
	}
}

func TestBurstProfileGenerates(t *testing.T) {
	p := DefaultBurst(5, 300)
	s := p.MustGenerate()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s) != 300 {
		t.Fatalf("len = %d", len(s))
	}
	// Deterministic.
	s2 := p.MustGenerate()
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("bursty generation not deterministic")
		}
	}
}

func TestBurstProfileBimodalGaps(t *testing.T) {
	p := DefaultBurst(7, 2000)
	s := p.MustGenerate()
	short, long := 0, 0
	for _, it := range s {
		if it.IdleAfter < 10*p.ShortIdle {
			short++
		} else if it.IdleAfter > p.LongIdle/4 {
			long++
		}
	}
	if short == 0 || long == 0 {
		t.Fatalf("gaps not bimodal: short=%d long=%d", short, long)
	}
	// Bursts dominate: most gaps are short.
	if short < 3*long {
		t.Fatalf("expected mostly short gaps: short=%d long=%d", short, long)
	}
}

func TestBurstProfileValidation(t *testing.T) {
	mut := []func(*BurstProfile){
		func(p *BurstProfile) { p.NumTasks = 0 },
		func(p *BurstProfile) { p.TasksPerBurst = 0.5 },
		func(p *BurstProfile) { p.MeanInstructions = 0 },
		func(p *BurstProfile) { p.InstrJitter = 1 },
		func(p *BurstProfile) { p.LongIdle = p.ShortIdle },
	}
	for i, m := range mut {
		p := DefaultBurst(1, 10)
		m(&p)
		if _, err := p.Generate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// refDistributionString is String as first written with fmt; the table-driven
// String and its Append must render every value exactly like it.
func refDistributionString(d Distribution) string {
	switch d {
	case Fixed:
		return "Fixed"
	case Exponential:
		return "Exponential"
	case Pareto:
		return "Pareto"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

func TestDistributionAppendMatchesString(t *testing.T) {
	for v := Distribution(-40); v <= 40; v++ {
		want := refDistributionString(v)
		if got := v.String(); got != want {
			t.Errorf("Distribution(%d).String() = %q, want %q", int(v), got, want)
		}
		if got := string(v.Append([]byte("x="))); got != "x="+want {
			t.Errorf("Distribution(%d).Append = %q, want %q", int(v), got, "x="+want)
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = Distribution(1).Append(buf[:0]); _ = Distribution(2).String() }); n != 0 {
		t.Errorf("Append/String of an in-range value allocate %.0f times, want 0", n)
	}
}
