package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"godpm/internal/power"
	"godpm/internal/sim"
	"godpm/internal/task"
)

func TestSeedSplitIndependence(t *testing.T) {
	root := NewSeed(42)
	a, b := root.Split("gap"), root.Split("size")
	if a == b {
		t.Fatalf("Split(gap) == Split(size) == %v", a)
	}
	if a == root || b == root {
		t.Fatal("child seed equals parent")
	}
	if root.Split("gap") != a {
		t.Fatal("Split is not deterministic")
	}
	if root.SplitN(1) == root.SplitN(2) {
		t.Fatal("SplitN collision on adjacent indices")
	}
	// Distinct roots must split to distinct children.
	if NewSeed(1).Split("x") == NewSeed(2).Split("x") {
		t.Fatal("same child from different parents")
	}
	// The RNG stream is reproducible.
	r1, r2 := a.RNG(), a.RNG()
	for i := 0; i < 16; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("RNG stream not reproducible")
		}
	}
}

// TestSeedSplitStreamsIndependent pins the splittable property the
// generators rely on: changing one stream's label (or draws) leaves a
// sibling stream untouched.
func TestSeedSplitStreamsIndependent(t *testing.T) {
	root := NewSeed(7)
	want := root.Split("size").RNG().Uint64()
	// Drawing any amount from a sibling stream cannot change "size".
	other := root.Split("gap").RNG()
	for i := 0; i < 100; i++ {
		other.Uint64()
	}
	if got := root.Split("size").RNG().Uint64(); got != want {
		t.Fatalf("sibling stream perturbed: %v != %v", got, want)
	}
}

func TestMMPPGenerateDeterministic(t *testing.T) {
	p := DefaultMMPP(NewSeed(9), 200)
	a := p.MustGenerate()
	b := p.MustGenerate()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same MMPP profile generated different arrivals")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	p2 := p
	p2.Seed = NewSeed(10)
	if reflect.DeepEqual(a, p2.MustGenerate()) {
		t.Fatal("different seeds generated identical arrivals")
	}
	// The modulation must actually produce both dense and sparse regions:
	// with Busy at 20× Quiet rate, the max gap dwarfs the median gap.
	var gapMax sim.Time
	var gaps []sim.Time
	for i := 1; i < len(a); i++ {
		g := a[i].At - a[i-1].At
		gaps = append(gaps, g)
		if g > gapMax {
			gapMax = g
		}
	}
	var small int
	for _, g := range gaps {
		if g < 10*sim.Ms {
			small++
		}
	}
	if small == 0 || gapMax < 50*sim.Ms {
		t.Errorf("no ON/OFF structure: %d small gaps, max gap %v", small, gapMax)
	}
	// Busy phases dominate the arrival count (~8 of every ~9.6 arrivals
	// with the default rates), so intra-burst gaps must be the majority —
	// this fails if quiet-rate draws swallow the busy phases they span.
	if small <= len(gaps)/2 {
		t.Errorf("bursts underpopulated: %d of %d gaps are intra-burst", small, len(gaps))
	}
}

func TestPeriodicGenerateOrderedAndJittered(t *testing.T) {
	p := DefaultPeriodic(NewSeed(3), 100)
	a := p.MustGenerate()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, p.MustGenerate()) {
		t.Fatal("periodic generation not deterministic")
	}
	offNominal := 0
	for i, ar := range a {
		nominal := sim.Time(i) * p.Period
		d := ar.At - nominal
		if d < 0 {
			d = -d
		}
		if d > sim.Time(float64(p.Period)*p.JitterFrac/2)+1 {
			t.Fatalf("arrival %d jitter %v exceeds bound", i, d)
		}
		if d != 0 {
			offNominal++
		}
	}
	if offNominal == 0 {
		t.Error("no arrival was jittered at all")
	}
}

func TestHeavyTailGenerate(t *testing.T) {
	p := DefaultHeavyTail(NewSeed(5), 400)
	s := p.MustGenerate()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, p.MustGenerate()) {
		t.Fatal("heavy-tail generation not deterministic")
	}
	// Pareto(1.5): the max gap should dominate the median, and the cap
	// must hold.
	var gapMax sim.Time
	for _, it := range s {
		if it.IdleAfter > gapMax {
			gapMax = it.IdleAfter
		}
		if it.IdleAfter > sim.Time(p.TailCap*float64(p.MeanIdle)) {
			t.Fatalf("gap %v exceeds TailCap", it.IdleAfter)
		}
	}
	if gapMax < 5*p.MeanIdle {
		t.Errorf("tail too light: max gap %v with mean %v", gapMax, p.MeanIdle)
	}
}

// TestZeroWeightsDefault pins the weight defaulting: all-zero class and
// priority weights fall back to ALU / Medium across every new generator.
func TestZeroWeightsDefault(t *testing.T) {
	mm := DefaultMMPP(NewSeed(1), 40)
	mm.ClassWeights = [power.NumInstrClasses]float64{}
	mm.PriorityWeights = [task.NumPriorities]float64{}
	for _, a := range mm.MustGenerate() {
		if a.Task.Class != power.InstrALU || a.Task.Priority != task.Medium {
			t.Fatalf("zero weights drew %v/%v", a.Task.Class, a.Task.Priority)
		}
	}
	ht := DefaultHeavyTail(NewSeed(1), 40)
	ht.ClassWeights = [power.NumInstrClasses]float64{}
	ht.PriorityWeights = [task.NumPriorities]float64{}
	for _, it := range ht.MustGenerate() {
		if it.Task.Class != power.InstrALU || it.Task.Priority != task.Medium {
			t.Fatalf("zero weights drew %v/%v", it.Task.Class, it.Task.Priority)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	bad := []Spec{
		MMPPSpec(MMPPProfile{NumTasks: 0, MeanInstructions: 1, BusyRate: 2, QuietRate: 1, MeanBusy: 1, MeanQuiet: 1}),
		MMPPSpec(MMPPProfile{NumTasks: 1, MeanInstructions: 0, BusyRate: 2, QuietRate: 1, MeanBusy: 1, MeanQuiet: 1}),
		MMPPSpec(MMPPProfile{NumTasks: 1, MeanInstructions: 1, InstrJitter: 1, BusyRate: 2, QuietRate: 1, MeanBusy: 1, MeanQuiet: 1}),
		MMPPSpec(MMPPProfile{NumTasks: 1, MeanInstructions: 1, BusyRate: 1, QuietRate: 2, MeanBusy: 1, MeanQuiet: 1}),
		MMPPSpec(MMPPProfile{NumTasks: 1, MeanInstructions: 1, BusyRate: 2, QuietRate: 1}),
		PeriodicSpec(PeriodicProfile{NumTasks: 1, MeanInstructions: 1, Period: 0}),
		PeriodicSpec(PeriodicProfile{NumTasks: 1, MeanInstructions: 1, Period: sim.Ms, JitterFrac: 1}),
		HeavyTailSpec(HeavyTailProfile{NumTasks: 1, MeanInstructions: 1, MeanIdle: sim.Ms, Shape: 0.5}),
		HeavyTailSpec(HeavyTailProfile{NumTasks: 1, MeanInstructions: 1, MeanIdle: 0}),
		TraceSpec(nil),
		{Kind: "nope"},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d validated but should not: %+v", i, s)
		}
		if _, _, err := s.Materialize(); err == nil {
			t.Errorf("spec %d materialized but should not", i)
		}
	}
}

// TestNumTasksCapped: every generator refuses a task count above MaxTasks
// (2⁶² among them) with an error before it allocates, and accepts MaxTasks
// itself.
func TestNumTasksCapped(t *testing.T) {
	specs := func(n int) []Spec {
		return []Spec{
			ClosedSpec(HighActivity(1, n)),
			BurstSpec(DefaultBurst(1, n)),
			MMPPSpec(DefaultMMPP(1, n)),
			PeriodicSpec(DefaultPeriodic(1, n)),
			HeavyTailSpec(DefaultHeavyTail(1, n)),
		}
	}
	for _, n := range []int{MaxTasks + 1, 1 << 62} {
		for _, s := range specs(n) {
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds the cap") {
				t.Errorf("%s with %d tasks: Validate = %v, want the cap refusal", s.Kind, n, err)
			}
			if _, _, err := s.Materialize(); err == nil {
				t.Errorf("%s with %d tasks materialized", s.Kind, n)
			}
		}
	}
	if _, err := HighActivity(1, MaxTasks+1).GenerateArrivals(200e6); err == nil {
		t.Error("GenerateArrivals accepted a task count above the cap")
	}
	for _, s := range specs(MaxTasks) {
		if err := s.Validate(); err != nil {
			t.Errorf("%s with MaxTasks tasks: %v", s.Kind, err)
		}
	}
}

func TestSpecMaterializeAndReseed(t *testing.T) {
	specs := []Spec{
		ClosedSpec(HighActivity(1, 10)),
		BurstSpec(DefaultBurst(1, 10)),
		MMPPSpec(DefaultMMPP(NewSeed(1), 10)),
		PeriodicSpec(DefaultPeriodic(NewSeed(1), 10)),
		HeavyTailSpec(DefaultHeavyTail(NewSeed(1), 10)),
		TraceSpec(HighActivity(1, 10).MustGenerate()),
	}
	for _, s := range specs {
		seq, arr, err := s.Materialize()
		if err != nil {
			t.Fatalf("%s: %v", s.Kind, err)
		}
		if (len(seq) > 0) == (len(arr) > 0) {
			t.Fatalf("%s: want exactly one of seq/arr, got %d/%d", s.Kind, len(seq), len(arr))
		}
		// Reseeding changes the workload for every random generator and is
		// a no-op for traces.
		rs := s.Reseed(NewSeed(999))
		seq2, arr2, err := rs.Materialize()
		if err != nil {
			t.Fatalf("%s reseeded: %v", s.Kind, err)
		}
		same := reflect.DeepEqual(seq, seq2) && reflect.DeepEqual(arr, arr2)
		if s.Kind == GenTrace && !same {
			t.Errorf("trace spec changed under Reseed")
		}
		if s.Kind != GenTrace && same {
			t.Errorf("%s: reseed produced an identical workload", s.Kind)
		}
	}
	var none Spec
	if seq, arr, err := none.Materialize(); err != nil || seq != nil || arr != nil {
		t.Fatalf("GenNone materialized to %v/%v (%v)", seq, arr, err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	seq := DefaultHeavyTail(NewSeed(11), 50).MustGenerate()
	var buf bytes.Buffer
	if err := ExportCSV(&buf, seq); err != nil {
		t.Fatal(err)
	}
	got, err := ImportCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, got) {
		t.Fatal("CSV round trip altered the sequence")
	}
	// Replay through a trace spec is byte-identical as well.
	rseq, _, err := TraceSpec(got).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, rseq) {
		t.Fatal("trace replay altered the sequence")
	}
}

func TestCSVImportRejectsGarbage(t *testing.T) {
	cases := []string{
		"id,instructions,class,priority,idle_ns\nx,1,ALU,Medium,0\n",
		"0,notanumber,ALU,Medium,0\n",
		"0,1,NoSuchClass,Medium,0\n",
		"0,1,ALU,NoSuchPriority,0\n",
		"0,1,ALU,Medium,nope\n",
		"0,1,ALU,Medium\n",
		"0,-5,ALU,Medium,0\n", // fails sequence validation
	}
	for i, c := range cases {
		if _, err := ImportCSV(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("case %d: garbage CSV imported without error", i)
		}
	}
}

// TestGeneratedTasksValid runs every generator long enough to exercise the
// samplers and validates every produced task.
func TestGeneratedTasksValid(t *testing.T) {
	seed := NewSeed(123)
	seqs := []Sequence{
		DefaultHeavyTail(seed, 300).MustGenerate(),
	}
	arrs := []ArrivalSequence{
		DefaultMMPP(seed, 300).MustGenerate(),
		DefaultPeriodic(seed, 300).MustGenerate(),
	}
	prios := map[task.Priority]int{}
	for _, s := range seqs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, it := range s {
			prios[it.Task.Priority]++
		}
	}
	for _, a := range arrs {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, ar := range a {
			prios[ar.Task.Priority]++
		}
	}
	// The default weights cover all four priority classes; with 900 draws
	// each class must appear.
	for p := task.Priority(0); int(p) < task.NumPriorities; p++ {
		if prios[p] == 0 {
			t.Errorf("priority %v never drawn", p)
		}
	}
}
