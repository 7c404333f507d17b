package engine

import (
	"fmt"
	"sync"

	"godpm/internal/workload"
)

// materializeSpec generates one workload for a genMemo; tests count the
// calls.
var materializeSpec = workload.Spec.Materialize

// genMemo generates each distinct workload spec once per Run. Every
// entrant of a tournament replicate carries the same Gen spec, so without
// it each job's normalization would generate the same workload again.
// Entries are keyed by the normalized spec's canonical encoding
// (appendSpec) and filled once: two goroutines keying jobs of one
// replicate at the same time share one generation instead of both
// paying for it.
//
// Jobs then share the materialized Sequence and Arrivals backing arrays.
// soc.Config.Normalized already shares them with its receiver, and a run
// only reads its workload, so sharing them across concurrent runs is
// safe. A memo lives for one Run call and holds nothing afterwards; the
// engine keeps no workload across calls.
type genMemo struct {
	mu sync.Mutex
	m  map[string]*genEntry
}

// genEntry is one spec's workload, generated by the first caller.
type genEntry struct {
	once sync.Once
	seq  workload.Sequence
	arr  workload.ArrivalSequence
	err  error
}

func newGenMemo() *genMemo { return &genMemo{m: make(map[string]*genEntry)} }

// materialize is the memo's soc.Materializer. A trace spec bypasses the
// memo: its "generation" returns its own inline sequence, and its
// encoding is as long as that sequence.
func (g *genMemo) materialize(s workload.Spec) (workload.Sequence, workload.ArrivalSequence, error) {
	if s.Kind == workload.GenTrace {
		return materializeSpec(s)
	}
	var stack [1024]byte
	enc := appendSpec(stack[:0], &s)
	g.mu.Lock()
	e := g.m[string(enc)]
	if e == nil {
		e = new(genEntry)
		g.m[string(enc)] = e
	}
	g.mu.Unlock()
	e.once.Do(func() {
		// Every job sharing the spec gets this error, so a panic must
		// not leave the entry looking generated and empty.
		defer func() {
			if p := recover(); p != nil {
				e.err = fmt.Errorf("%w: generating a workload panicked: %v", ErrInternal, p)
			}
		}()
		e.seq, e.arr, e.err = materializeSpec(s)
	})
	return e.seq, e.arr, e.err
}
