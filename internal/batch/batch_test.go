package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/acmp"
	"repro/internal/artifacts"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// ebsSession builds a real (but cheap) session: one EBS simulation of a
// short synthetic trace.
func ebsSession(t testing.TB, app string, seed int64) Session {
	t.Helper()
	spec, err := webapp.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	p := acmp.Exynos5410()
	return Session{
		Key: Key{Platform: p.Name, App: app, TraceSeed: seed, Scheduler: "EBS"},
		Run: func() (*engine.Result, time.Duration, error) {
			tr := trace.Generate(spec, seed, trace.Options{MaxEvents: 25})
			evs := tr.Events
			return engine.RunReactive(p, app, evs, sched.NewEBS(p)), 0, nil
		},
	}
}

func TestRunnerMemoizesDuplicateSessions(t *testing.T) {
	r := NewRunner(4)
	var sessions []Session
	// 40 sessions over 5 unique keys, interleaved.
	for i := 0; i < 40; i++ {
		sessions = append(sessions, ebsSession(t, "cnn", int64(i%5)))
	}
	out, err := r.Run(sessions)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Sessions != 40 || st.UniqueRuns != 5 || st.CacheHits != 35 {
		t.Errorf("stats = %+v, want 40 sessions / 5 unique / 35 hits", st)
	}
	for i, res := range out {
		if res == nil {
			t.Fatalf("result %d missing", i)
		}
		// Duplicate keys share one result instance.
		if res != out[i%5] {
			t.Errorf("result %d not memoized", i)
		}
	}
	// A second batch with the same keys is served entirely from the cache.
	out2, err := r.Run(sessions[:5])
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.UniqueRuns != 5 {
		t.Errorf("second batch re-simulated: %+v", st)
	}
	for i := range out2 {
		if out2[i] != out[i] {
			t.Errorf("second batch result %d differs", i)
		}
	}
}

// TestRunnerConcurrentCache hammers one runner from many goroutines with
// overlapping keys; run under -race this exercises the cache's concurrency
// safety, and the engine results must stay deterministic.
func TestRunnerConcurrentCache(t *testing.T) {
	r := NewRunner(8)
	want, err := r.Run([]Session{ebsSession(t, "ebay", 1), ebsSession(t, "ebay", 2)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sessions []Session
			for i := 0; i < 10; i++ {
				sessions = append(sessions, ebsSession(t, "ebay", int64(1+(g+i)%4)))
			}
			out, err := r.Run(sessions)
			if err != nil {
				t.Error(err)
				return
			}
			for i, res := range out {
				if res == nil {
					t.Errorf("goroutine %d: result %d missing", g, i)
					continue
				}
				if res.TotalEnergyMJ <= 0 || len(res.Outcomes) == 0 {
					t.Errorf("goroutine %d: result %d empty", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := r.Stats(); st.UniqueRuns != 4 {
		t.Errorf("unique runs = %d, want 4", st.UniqueRuns)
	}
	// Deterministic: re-requesting the first keys returns the same instances.
	again, err := r.Run([]Session{ebsSession(t, "ebay", 1), ebsSession(t, "ebay", 2)})
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != want[0] || again[1] != want[1] {
		t.Error("cached results changed identity across concurrent batches")
	}
}

func TestRunnerPropagatesErrors(t *testing.T) {
	r := NewRunner(2)
	boom := errors.New("boom")
	sessions := []Session{
		ebsSession(t, "cnn", 1),
		{Key: Key{App: "bad", Scheduler: "x"}, Run: func() (*engine.Result, time.Duration, error) { return nil, 0, boom }},
		ebsSession(t, "cnn", 2),
	}
	out, err := r.Run(sessions)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if out[1] != nil {
		t.Error("failed session should have nil result")
	}
	if out[0] == nil || out[2] == nil {
		t.Error("healthy sessions should still complete")
	}
	// The error is memoized like a result.
	if _, err := r.Run(sessions[1:2]); !errors.Is(err, boom) {
		t.Error("memoized error lost")
	}
}

func TestRunnerWorkerDefaults(t *testing.T) {
	if NewRunner(0).Workers() < 1 {
		t.Error("default worker count must be at least 1")
	}
	if got := NewRunner(7).Workers(); got != 7 {
		t.Errorf("workers = %d, want 7", got)
	}
	// A serial runner handles duplicate keys without deadlocking.
	r := NewRunner(1)
	out, err := r.Run([]Session{ebsSession(t, "cnn", 3), ebsSession(t, "cnn", 3)})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != out[1] {
		t.Error("serial runner should memoize too")
	}
}

// TestRunnerParallelMatchesSerial checks that a parallel batch produces
// field-identical results to a serial one — the concurrency must not leak
// into the simulation.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	var sessions []Session
	for seed := int64(1); seed <= 6; seed++ {
		sessions = append(sessions, ebsSession(t, "espn", seed))
	}
	serial, err := NewRunner(1).Run(sessions)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(6).Run(sessions)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sessions {
		s, p := serial[i], parallel[i]
		if s.TotalEnergyMJ != p.TotalEnergyMJ || s.Violations != p.Violations ||
			len(s.Outcomes) != len(p.Outcomes) {
			t.Errorf("session %d: serial %v/%d differs from parallel %v/%d",
				i, s.TotalEnergyMJ, s.Violations, p.TotalEnergyMJ, p.Violations)
		}
	}
}

func ExampleRunner() {
	r := NewRunner(2)
	p := acmp.Exynos5410()
	spec, _ := webapp.ByName("cnn")
	mk := func(seed int64) Session {
		return Session{
			Key: Key{Platform: p.Name, App: "cnn", TraceSeed: seed, Scheduler: "EBS"},
			Run: func() (*engine.Result, time.Duration, error) {
				tr := trace.Generate(spec, seed, trace.Options{MaxEvents: 10})
				evs := tr.Events
				return engine.RunReactive(p, "cnn", evs, sched.NewEBS(p)), 0, nil
			},
		}
	}
	// Three requests, two unique sessions: seed 7 simulates once.
	out, err := r.Run([]Session{mk(7), mk(8), mk(7)})
	if err != nil {
		panic(err)
	}
	st := r.Stats()
	fmt.Println(len(out), st.UniqueRuns, st.CacheHits, out[0] == out[2])
	// Output: 3 2 1 true
}

func TestRunWithProgress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := NewRunner(workers)
		var sessions []Session
		for i := 0; i < 12; i++ {
			sessions = append(sessions, ebsSession(t, "cnn", int64(i%3)))
		}
		var (
			mu    sync.Mutex
			calls int
			max   int
			total int
		)
		_, err := r.RunContext(context.Background(), sessions, func(completed, tot int) {
			mu.Lock()
			calls++
			if completed > max {
				max = completed
			}
			total = tot
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		// One callback per session (cache hits included), reaching the batch
		// size exactly once.
		if calls != len(sessions) || max != len(sessions) || total != len(sessions) {
			t.Errorf("workers=%d: %d calls, max completed %d, total %d, want all %d",
				workers, calls, max, total, len(sessions))
		}
	}
}

func TestRunWithProgressErrorsStillReport(t *testing.T) {
	r := NewRunner(1)
	boom := errors.New("boom")
	sessions := []Session{
		{Key: Key{App: "x", TraceSeed: 1}, Run: func() (*engine.Result, time.Duration, error) { return nil, 0, boom }},
		ebsSession(t, "cnn", 2),
	}
	calls := 0
	_, err := r.RunContext(context.Background(), sessions, func(completed, total int) { calls++ })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Errorf("progress called %d times, want 2 (failed sessions count as resolved)", calls)
	}
}

func TestStatsCarryAttachedArtifacts(t *testing.T) {
	store := artifacts.NewStore()
	r := NewRunner(1)
	if r.Stats().Artifacts != nil {
		t.Error("unattached runner must not report artifact stats")
	}
	if got := r.AttachArtifacts(store); got != r {
		t.Error("AttachArtifacts must return the runner for chaining")
	}
	spec := webapp.SeenApps()[0]
	tr := store.Trace(spec, 31, trace.PurposeEval, trace.Options{})
	store.Fingerprint(acmp.Exynos5410(), tr)
	st := r.Stats()
	if st.Artifacts == nil {
		t.Fatal("attached runner must snapshot artifact stats")
	}
	if st.Artifacts.TraceBuilds != 1 || st.Artifacts.FingerprintBuilds != 1 {
		t.Errorf("artifact counters not threaded: %+v", st.Artifacts)
	}
}

// TestRunnerLRUBound exercises the memo-cache LRU through the runner: the
// cache never exceeds its bound, evicted sessions re-simulate
// deterministically, and the counters report it all.
func TestRunnerLRUBound(t *testing.T) {
	r := NewRunner(1).WithMaxEntries(3)
	// Four unique keys through a 3-slot cache: the oldest (seed 0) falls out.
	for seed := int64(0); seed < 4; seed++ {
		if _, err := r.Run([]Session{ebsSession(t, "cnn", seed)}); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.UniqueRuns != 4 || st.CacheEntries != 3 || st.CacheEvictions != 1 {
		t.Fatalf("after 4 inserts: %+v, want 4 unique / 3 entries / 1 eviction", st)
	}

	// A cached key hits; a fifth key evicts one more. (Which key the LRU
	// picks is internal/memo's to test.)
	if _, err := r.Run([]Session{ebsSession(t, "cnn", 1)}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.CacheHits != 1 {
		t.Fatalf("touching a cached key did not hit: %+v", st)
	}
	if _, err := r.Run([]Session{ebsSession(t, "cnn", 4)}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.CacheEntries != 3 || st.CacheEvictions != 2 {
		t.Fatalf("after a fifth key: %+v, want 3 entries / 2 evictions", st)
	}

	// An evicted session re-simulates and reproduces the same result.
	first, err := r.Run([]Session{ebsSession(t, "cnn", 0)})
	if err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.UniqueRuns != 6 { // 5 distinct seeds + the re-simulated seed 0
		t.Errorf("evicted session was not re-simulated: %+v", st)
	}
	if first[0] == nil || first[0].TotalEnergyMJ <= 0 {
		t.Errorf("re-simulated result malformed: %+v", first[0])
	}
}

// TestRunnerLRUBoundConcurrent hammers a tightly bounded cache from many
// goroutines; under -race this exercises eviction racing lookups, and every
// request must still resolve to a result.
func TestRunnerLRUBoundConcurrent(t *testing.T) {
	r := NewRunner(8).WithMaxEntries(2)
	var sessions []Session
	for i := 0; i < 60; i++ {
		sessions = append(sessions, ebsSession(t, "cnn", int64(i%6)))
	}
	out, err := r.Run(sessions)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if res == nil {
			t.Fatalf("result %d missing", i)
		}
	}
	st := r.Stats()
	if st.CacheEntries > 2 {
		t.Errorf("cache grew past its bound: %+v", st)
	}
	if st.CacheEvictions == 0 {
		t.Errorf("no evictions on a 2-slot cache over 6 keys: %+v", st)
	}
}

func TestRunContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := NewRunner(workers)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var started atomic.Int64
			var sessions []Session
			const total = 50
			for i := 0; i < total; i++ {
				i := i
				sessions = append(sessions, Session{
					Key: Key{Platform: "p", App: "a", TraceSeed: int64(i), Scheduler: "s"},
					Run: func() (*engine.Result, time.Duration, error) {
						// The 10th simulation triggers the cancellation; later
						// sessions must never be dispatched.
						if started.Add(1) == 10 {
							cancel()
						}
						return &engine.Result{App: "a"}, 0, nil
					},
				})
			}
			out, err := r.RunContext(ctx, sessions, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext error = %v, want context.Canceled", err)
			}
			ran := started.Load()
			if ran >= total {
				t.Fatalf("cancellation did not stop dispatch: all %d sessions ran", total)
			}
			// Every completed session's result is retained (resumable work),
			// every unreached session's slot is nil.
			var got int
			for _, res := range out {
				if res != nil {
					got++
				}
			}
			if got == 0 || got > int(ran) {
				t.Fatalf("%d results retained for %d started sessions", got, ran)
			}
			// A fresh uncanceled run completes the tail from the warm cache.
			out2, err := r.RunContext(context.Background(), sessions, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range out2 {
				if res == nil {
					t.Fatalf("re-run result %d missing", i)
				}
			}
		})
	}
}

// TestRunContextDispatchesLongestFirst: a one-worker runner runs its
// sessions in descending Cost, equal costs in input order, and still
// returns results index-aligned with the input. Canceled after its second
// simulation, it has run a prefix of that order: exactly those sessions
// have results, and the rest stay nil.
func TestRunContextDispatchesLongestFirst(t *testing.T) {
	costs := []int{0, 2, 1, 2, 0, 3, 1}
	want := []int{5, 1, 3, 2, 6, 0, 4}
	for _, cancelAfter := range []int{0, 2} {
		t.Run(fmt.Sprintf("cancelAfter=%d", cancelAfter), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var (
				mu    sync.Mutex
				order []int
			)
			sessions := make([]Session, len(costs))
			for i, c := range costs {
				sessions[i] = Session{
					Key: Key{Platform: "p", App: fmt.Sprint(i), Scheduler: "s"},
					Run: func() (*engine.Result, time.Duration, error) {
						mu.Lock()
						order = append(order, i)
						if len(order) == cancelAfter {
							cancel()
						}
						mu.Unlock()
						return &engine.Result{App: fmt.Sprint(i)}, 0, nil
					},
					Cost: c,
				}
			}
			out, err := NewRunner(1).RunContext(ctx, sessions, nil)
			n := len(want) // sessions that must have run
			if cancelAfter > 0 {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("RunContext error = %v, want context.Canceled", err)
				}
				n = min(max(len(order), cancelAfter), len(want))
			} else if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(order) != fmt.Sprint(want[:n]) {
				t.Fatalf("sessions ran in order %v, want %v", order, want[:n])
			}
			ran := map[int]bool{}
			for _, i := range order {
				ran[i] = true
			}
			for i, res := range out {
				switch {
				case ran[i] && (res == nil || res.App != fmt.Sprint(i)):
					t.Errorf("result %d = %v, want session %d's", i, res, i)
				case !ran[i] && res != nil:
					t.Errorf("unreached session %d has result %v", i, res)
				}
			}
		})
	}
}
