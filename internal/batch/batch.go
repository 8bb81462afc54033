// Package batch is the concurrent batch-session runner on top of the
// unified simulation engine. An experiment sweep simulates the same user
// sessions many times over — the same (platform, app, trace seed, scheduler,
// predictor configuration) tuple reappears across figures — so the runner
// memoizes results by that tuple and executes distinct sessions in parallel
// on a worker pool. Each unique session simulates exactly once per Runner,
// no matter how many times or how concurrently it is requested.
package batch

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifacts"
	"repro/internal/engine"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/store"
)

// Key identifies one unique session simulation. Two sessions with equal keys
// must be guaranteed by the caller to produce identical results; the runner
// then simulates only one of them.
type Key struct {
	// Platform is the hardware model name (e.g. "Exynos5410").
	Platform string
	// App is the application name.
	App string
	// TraceSeed is the user/session seed the trace was generated from.
	TraceSeed int64
	// Scheduler is the scheduler name (e.g. "PES").
	Scheduler string
	// Predictor is a canonical encoding of the predictor configuration, or
	// empty for schedulers that have none.
	Predictor string
	// Variant distinguishes any further state the simulation depends on
	// that the fields above do not capture — e.g. a trace fingerprint when
	// traces are generated with non-default options, or the identity of a
	// shared trained model. Leave empty when the other fields fully
	// determine the result.
	Variant string
}

// Session is one unit of batch work: the memoization key plus the function
// that simulates the session on a cache miss. Run must be self-contained
// (construct its own scheduler instance) so that sessions can execute on
// any worker concurrently. Beside the result it returns the wall time its
// scheduler spent in the solver: a host measurement the runner feeds to its
// solve-time histogram and trace spans, and which never enters the result.
// Cost is the session's relative expected simulation cost: a runner starts
// its costlier sessions first, so the longest ones do not start last and
// leave the other workers idle at the end of a batch. Only the order of
// the costs matters; equal costs keep their input order.
type Session struct {
	Key  Key
	Run  func() (*engine.Result, time.Duration, error)
	Cost int
}

// Stats reports the work a Runner has performed.
type Stats struct {
	// Sessions is the number of sessions requested.
	Sessions int64 `metric:"pes_sessions_total" help:"Sessions requested through the batch runner (memo hits included)."`
	// UniqueRuns is the number of simulations actually executed.
	UniqueRuns int64 `metric:"pes_unique_runs_total" help:"Simulations actually executed (memo and store misses)."`
	// CacheHits is the number of sessions served from the memo cache.
	CacheHits int64 `metric:"pes_cache_hits_total" help:"Sessions served from the in-memory memo cache."`
	// CacheEntries is the number of results currently retained in the memo
	// cache.
	CacheEntries int64 `metric:"pes_cache_entries" help:"Results currently retained in the memo cache."`
	// CacheEvictions is the number of results dropped by the LRU bound
	// (zero on unbounded runners). An evicted session re-simulates on its
	// next request — results are deterministic, so eviction never changes
	// what a session returns, only whether it is recomputed.
	CacheEvictions int64 `metric:"pes_cache_evictions_total" help:"Memo-cache results dropped by the LRU bound."`
	// StoreHits is the number of sessions served from the persistent store
	// (zero when none is attached): the memo cache missed, but the session's
	// result was already on disk — from an earlier process, another runner
	// sharing the store, or an entry this runner built and later evicted —
	// so no simulation ran. Store-served sessions count toward neither
	// UniqueRuns nor CacheHits.
	StoreHits int64 `metric:"pes_store_hits_total" help:"Sessions served from the persistent store instead of simulated."`
	// Solver sums the constrained-optimization work of the unique runs
	// (sessions served from the memo cache or the persistent store
	// contribute nothing — their solver work was never repeated).
	Solver optimizer.SolverCounts
	// Artifacts snapshots the shared artifact store attached to the runner
	// (nil when none is attached): how often the session inputs — traces,
	// fingerprints, trained learners, DOM pages — were served from cache
	// instead of regenerated. The tag matches the
	// sibling fields' (untagged) PascalCase so the served stats payload
	// keeps one casing style.
	Artifacts *artifacts.Stats `json:"Artifacts,omitempty"`
	// Store snapshots the persistent store attached to the runner (nil when
	// none is attached): records on disk, recovery outcome, raw hit/miss
	// counters. Tagged PascalCase to match the sibling untagged fields.
	Store *store.Stats `json:"Store,omitempty"`
}

// Runner executes batches of sessions on a worker pool with a memoized
// result cache. A Runner is safe for concurrent use and may be reused
// across batches; the cache persists for its lifetime.
type Runner struct {
	workers   int
	artifacts *artifacts.Store
	persist   *store.Store

	cache memo.Cache[Key, *engine.Result]

	sessions   atomic.Int64
	uniqueRuns atomic.Int64
	cacheHits  atomic.Int64
	storeHits  atomic.Int64

	solverMu sync.Mutex
	solver   optimizer.SolverCounts

	// sessionSeconds and solveSeconds are native latency histograms set by
	// RegisterMetrics at wiring time (nil when telemetry is unwired — all
	// observations are nil-safe no-ops).
	sessionSeconds *obs.Histogram
	solveSeconds   *obs.Histogram
}

// NewRunner creates a runner with the given worker-pool size; workers <= 0
// selects runtime.NumCPU().
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Runner{workers: workers}
}

// WithMaxEntries bounds the memo cache to at most n completed results,
// evicting least-recently-used entries beyond it; n <= 0 keeps the cache
// unbounded (the default). It returns the runner for chaining. The write is
// synchronized, but the bound only applies to entries completed after it is
// set — set it before running batches.
func (r *Runner) WithMaxEntries(n int) *Runner {
	r.cache.SetMax(n)
	return r
}

// Workers returns the worker-pool size.
func (r *Runner) Workers() int { return r.workers }

// AttachArtifacts associates the shared artifact store whose counters Stats
// should report alongside the memo-cache counters. It returns the runner for
// chaining. Attach before the runner is shared across goroutines.
func (r *Runner) AttachArtifacts(s *artifacts.Store) *Runner {
	r.artifacts = s
	return r
}

// WithStore layers a persistent content-addressed store under the in-memory
// memo cache: every memo miss consults the store before simulating, and
// every fresh simulation is written through. Results decode from stored
// bytes bit-identically (engine.Result round-trips through JSON exactly), so
// a store-served session is indistinguishable from a memoized one — which is
// also what makes LRU eviction cheap: an evicted entry falls back to a store
// hit instead of a re-simulation. Several Runners may share one store (the
// store's own singleflight keeps builds exactly-once across them); set it
// before the runner is shared across goroutines. It returns the runner for
// chaining; ps may be nil (no persistence, the default).
func (r *Runner) WithStore(ps *store.Store) *Runner {
	r.persist = ps
	return r
}

// storeKey renders a memo key as the persistent store's content address.
// Every component of Key is content-derived (Variant carries the platform,
// trace and learner fingerprints), so equal strings across processes mean
// bit-identical results.
func storeKey(k Key) string {
	return fmt.Sprintf("result|%s|%s|%d|%s|%s|%s",
		k.Platform, k.App, k.TraceSeed, k.Scheduler, k.Predictor, k.Variant)
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Stats {
	r.solverMu.Lock()
	solver := r.solver
	r.solverMu.Unlock()
	st := Stats{
		Sessions:       r.sessions.Load(),
		UniqueRuns:     r.uniqueRuns.Load(),
		CacheHits:      r.cacheHits.Load(),
		CacheEntries:   int64(r.cache.Len()),
		CacheEvictions: r.cache.Evictions(),
		StoreHits:      r.storeHits.Load(),
		Solver:         solver,
	}
	if r.artifacts != nil {
		a := r.artifacts.Stats()
		st.Artifacts = &a
	}
	if r.persist != nil {
		p := r.persist.Stats()
		st.Store = &p
	}
	return st
}

// one resolves a single session through the cache. It returns the solver
// wall time of the simulation it ran, which is 0 when the memo cache or the
// persistent store served the session.
func (r *Runner) one(s Session) (*engine.Result, time.Duration, error) {
	r.sessions.Add(1)
	var start time.Time
	if r.sessionSeconds != nil {
		start = time.Now()
	}
	var solve time.Duration
	res, hit, err := r.cache.Get(s.Key, func() (res *engine.Result, err error) {
		res, solve, err = r.build(s)
		return res, err
	})
	if hit {
		r.cacheHits.Add(1)
	}
	if r.sessionSeconds != nil {
		r.sessionSeconds.ObserveSeconds(int64(time.Since(start)))
	}
	return res, solve, err
}

// build resolves a memo-cache miss: straight simulation when no persistent
// store is attached, otherwise get-or-build through the store. The store's
// singleflight spans runners — when another runner sharing the store is
// already simulating this key, we block on its build instead of starting a
// second one. Only a simulation this runner actually executed counts as a
// unique run and contributes solver counters and solve time; a session
// decoded from stored bytes counts as a store hit.
func (r *Runner) build(s Session) (*engine.Result, time.Duration, error) {
	if r.persist == nil {
		r.uniqueRuns.Add(1)
		res, solve, err := s.Run()
		r.addSolver(res, solve)
		return res, solve, err
	}
	var built *engine.Result
	var solve time.Duration
	val, _, err := r.persist.GetOrBuild(storeKey(s.Key), func() ([]byte, error) {
		res, d, err := s.Run()
		if err != nil {
			return nil, err
		}
		built, solve = res, d
		return res.AppendJSON(nil)
	})
	if err != nil {
		return nil, 0, err
	}
	if built != nil {
		r.uniqueRuns.Add(1)
		r.addSolver(built, solve)
		return built, solve, nil
	}
	res := new(engine.Result)
	if err := json.Unmarshal(val, res); err != nil {
		return nil, 0, fmt.Errorf("batch: decoding stored result for %s: %w", storeKey(s.Key), err)
	}
	r.storeHits.Add(1)
	return res, 0, nil
}

// addSolver folds a unique run's solver work into the aggregate.
func (r *Runner) addSolver(res *engine.Result, solve time.Duration) {
	if res == nil {
		return
	}
	r.solveSeconds.ObserveSeconds(int64(solve))
	r.solverMu.Lock()
	r.solver = r.solver.Add(res.Solver)
	r.solverMu.Unlock()
}

// Run simulates every session and returns the results index-aligned with
// the input. Duplicate keys — within the batch or across earlier batches —
// are served from the cache. On error the first error is returned and the
// corresponding results are nil; the remaining sessions still complete.
func (r *Runner) Run(sessions []Session) ([]*engine.Result, error) {
	return r.RunContext(context.Background(), sessions, nil)
}

// RunContext is Run bounded by a context, with a progress callback. After
// each session resolves (from the cache or a fresh simulation, successfully
// or not), progress is called with the number of sessions resolved so far
// and the batch size. The callback may run concurrently from several
// workers and completed counts may arrive out of order; it must be cheap
// and safe for concurrent use. A nil progress is ignored.
//
// Sessions are dispatched in descending Cost, equal costs in input order,
// so the workers start the longest simulations first; results stay
// index-aligned with the input whatever the order.
//
// The runner checks ctx before dispatching each session and stops
// dispatching new work once it is done, returning ctx.Err() as the error
// (unless a session error came first). Simulations already in flight run
// to completion — the engine is not preemptible — and their results stay in
// the cache and the persistent store, so a canceled batch re-run later
// costs only the sessions it never reached. Results for unreached sessions
// are nil.
//
// When ctx carries an obs.Recorder, the call records two spans: "simulate",
// its wall time, and "solve", the solver wall time of the sessions this
// call simulated summed over the workers (memo and store hits add nothing).
func (r *Runner) RunContext(ctx context.Context, sessions []Session, progress func(completed, total int)) ([]*engine.Result, error) {
	start := time.Now()
	out := make([]*engine.Result, len(sessions))
	var (
		completed atomic.Int64
		solveNS   atomic.Int64
		wg        sync.WaitGroup
		errMu     sync.Mutex
		firstErr  error
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	// A serial run is a pool of one: the unbuffered channel hands each
	// index to a worker only once one is free, so nothing is dispatched
	// ahead of the context check.
	idx := make(chan int)
	for range min(r.workers, len(sessions)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, solve, err := r.one(sessions[i])
				solveNS.Add(int64(solve))
				if progress != nil {
					progress(int(completed.Add(1)), len(sessions))
				}
				if err != nil {
					setErr(err)
					continue
				}
				out[i] = res
			}
		}()
	}
	order := make([]int, len(sessions))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(sessions[b].Cost, sessions[a].Cost)
	})
feed:
	for _, i := range order {
		if err := ctx.Err(); err != nil {
			setErr(err)
			break
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			setErr(ctx.Err())
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if rec := obs.TraceFrom(ctx); rec != nil {
		startUS := start.UnixMicro()
		rec.Record(obs.Span{Name: "simulate", Sessions: len(sessions),
			StartUS: startUS, DurUS: time.Since(start).Microseconds()})
		rec.Record(obs.Span{Name: "solve", Sessions: len(sessions),
			StartUS: startUS, DurUS: solveNS.Load() / 1e3})
	}
	return out, firstErr
}
