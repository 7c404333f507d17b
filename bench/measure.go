package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// workers is the engine pool, dpmserve's -workers and the number of
	// client connections: the load fits a 2-CPU host.
	workers = 2
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 3
	// warmup runs the workload untimed before the measurement starts (a
	// quarter of shorter runs).
	warmup = time.Second
)

// quantile returns the nearest-rank q-quantile of xs (0 for an empty
// slice), leaving xs as it was.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// kindP50 is every workload's latency metric: the geometric mean, over
// the kinds of job or request, of each kind's median latency. Latencies
// cluster by kind (a Table 2 grid's twelve jobs, a hot request's scenario
// and size), and the median of them all falls in a gap between two
// clusters, where it jumped from one to the other from run to run; each
// kind's own median does not, and the geometric mean weighs a relative
// change of any kind alike.
func kindP50(byKind map[string][]float64) float64 {
	if len(byKind) == 0 {
		return 0
	}
	var logs float64
	for _, xs := range byKind {
		logs += math.Log(quantile(xs, 0.5))
	}
	return math.Exp(logs / float64(len(byKind)))
}

// cpuTime reads the CPU time a process's threads have run, in nanoseconds
// from /proc/<pid>/task/*/schedstat; /proc/<pid>/stat counts in ticks of
// 10 ms, too coarse for a few seconds of serving.
func cpuTime(pid int) (time.Duration, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("process %d: no threads in /proc", pid)
	}
	var sum time.Duration
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // the thread exited while the threads were listed
			}
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, fmt.Errorf("%s: empty", path)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timedSetup runs setup n times and returns the median wall time in
// seconds. Every repeat must succeed; the last one's state is the one the
// run keeps (earlier repeats tear themselves down inside setup). Each
// repeat starts from a collected heap, so none pays for the garbage of the
// one before.
func timedSetup(n int, setup func(last bool) error) (float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(i == n-1); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return quantile(times, 0.5), nil
}

// warmupFor is the untimed warm-up before a run of length d measures.
func warmupFor(d time.Duration) time.Duration { return min(warmup, d/4) }

// peakRSSMiB reads a process's peak resident set (VmHWM) in MiB; pid 0
// means this process.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: VmHWM: %w", path, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// serial calls f n times on this goroutine and returns the mean wall time
// per call in microseconds and the mean heap allocations per call.
func serial(n int, f func(i int)) (perCallUs, allocs float64) {
	if n <= 0 {
		return 0, 0
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return us(d) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// span is one traced interval. Spans of one unit of work (a grid, an arena
// cycle, a request) share Req; Parent is the causing span (0 = root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so a parent can be named before it ends.
func (t *tracer) id() int64 { return t.ids.Add(1) }

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// leaf records a span with a fresh id and returns the id.
func (t *tracer) leaf(parent, req int64, name string, start, end time.Time) int64 {
	id := t.id()
	t.add(id, parent, req, name, start, end)
	return id
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover, and counts the spans of each name.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	self = make(map[string]time.Duration)
	count = make(map[string]int)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End-s.Start) - children[s.ID]
		count[s.Name]++
	}
	return self, count
}

// durations returns every span duration of one name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON at dir/<workload>-<seed>.spans.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.spans.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
