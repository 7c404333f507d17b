package engine_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"godpm/internal/engine"
	"godpm/internal/sim"
	"godpm/internal/soc"
)

// waitForFlightWaiter polls until some job blocks on a flight another job
// leads: a goroutine parked in a select whose innermost frame is an engine
// function other than a Run's dispatch loop.
func waitForFlightWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			lines := strings.SplitN(g, "\n", 3)
			if len(lines) >= 2 && strings.Contains(lines[0], "[select") &&
				strings.HasPrefix(lines[1], "godpm/internal/engine.") &&
				!strings.HasPrefix(lines[1], "godpm/internal/engine.(*Engine).RunObserved(") {
				return
			}
		}
	}
	t.Fatal("no job came to wait on another job's flight")
}

// TestGroupMemberWaitsOnAConcurrentFlight: fork group A = {x, y} is held
// in its shared session while a concurrent Run of group B = {x, z} finds
// x's flight led by A. B's x waits on that flight: it is served A's result
// when A finishes, and retakes the flight and simulates x itself when A's
// context is canceled while B's lives. Every result B gets equals a solo
// run, and the counters are those of the one order the test enforces.
func TestGroupMemberWaitsOnAConcurrentFlight(t *testing.T) {
	cfgAt := func(h sim.Time) soc.Config {
		cfg := testConfig(5, soc.PolicyDPM, 10)
		cfg.Horizon = h
		return cfg
	}
	x, y, z := cfgAt(60*sim.Sec), cfgAt(30*sim.Ms), cfgAt(75*sim.Ms)
	solo := func(cfg soc.Config) string {
		r, err := soc.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return engine.ResultDigest(r)
	}
	want := map[sim.Time]string{x.Horizon: solo(x), y.Horizon: solo(y), z.Horizon: solo(z)}

	for _, tc := range []struct {
		name     string
		cancelA  bool
		wantStat engine.Stats
	}{
		{"served", false, engine.Stats{Runs: 2, Misses: 3, Hits: 1, Deduped: 1, Forked: 1}},
		{"leader-canceled", true, engine.Stats{Runs: 3, Misses: 4, Canceled: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			held, release := make(chan struct{}), make(chan struct{})
			defer engine.HoldRunForked(func(ctx context.Context, members []soc.ForkMember) {
				for _, m := range members {
					if m.Horizon == y.Horizon { // group A's session
						close(held)
						<-release
						return
					}
				}
			})()

			eng := engine.New(engine.Options{Workers: 2})
			ctxA, cancelA := context.WithCancel(context.Background())
			defer cancelA()
			var planA, planB engine.Plan
			planA.Add("a/x", x)
			planA.Add("a/y", y)
			planB.Add("b/x", x)
			planB.Add("b/z", z)

			var wg sync.WaitGroup
			var resA, resB []engine.JobResult
			var errB error
			wg.Add(2)
			go func() {
				defer wg.Done()
				resA, _ = eng.Run(ctxA, planA)
			}()
			<-held
			go func() {
				defer wg.Done()
				resB, errB = eng.Run(context.Background(), planB)
			}()
			waitForFlightWaiter(t)
			if tc.cancelA {
				cancelA()
			}
			close(release)
			wg.Wait()

			if errB != nil {
				t.Fatalf("group B: %v", errB)
			}
			for _, jr := range resB {
				if got := engine.ResultDigest(jr.Result); got != want[jr.Job.Config.Horizon] {
					t.Errorf("job %s: digest %s, solo %s", jr.Job.ID, got, want[jr.Job.Config.Horizon])
				}
			}
			if resB[0].CacheHit == tc.cancelA {
				t.Errorf("b/x CacheHit = %v with A canceled = %v", resB[0].CacheHit, tc.cancelA)
			}
			for _, jr := range resA {
				if tc.cancelA && !errors.Is(jr.Err, context.Canceled) {
					t.Errorf("job %s of the canceled group: err %v", jr.Job.ID, jr.Err)
				}
				if !tc.cancelA && engine.ResultDigest(jr.Result) != want[jr.Job.Config.Horizon] {
					t.Errorf("job %s: digest differs from a solo run", jr.Job.ID)
				}
			}
			counters := func(st engine.Stats) [7]int64 {
				return [7]int64{st.Runs, st.Misses, st.Hits, st.Deduped, st.Forked, st.Errors, st.Canceled}
			}
			if got, want := counters(eng.Stats()), counters(tc.wantStat); got != want {
				t.Errorf("runs/misses/hits/deduped/forked/errors/canceled %v, want %v", got, want)
			}
			if n := engine.InFlight(eng); n != 0 {
				t.Errorf("%d flights left unfinished", n)
			}
		})
	}
}
