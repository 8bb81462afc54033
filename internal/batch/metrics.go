package batch

import (
	"repro/internal/obs"
	"repro/internal/optimizer"
)

// solverSnapshot returns the aggregated solver counters under the lock.
func (r *Runner) solverSnapshot() optimizer.SolverStats {
	r.solverMu.Lock()
	defer r.solverMu.Unlock()
	return r.solver
}

// RegisterMetrics exposes every counter family the runner's Stats snapshot
// reports as Prometheus series on reg, and attaches the two native latency
// histograms (session wall time, solve wall time) the snapshot cannot carry.
// The sampled series read the same atomic counters Stats reads — the
// registry is a view, not a second write path — so /healthz, results stats,
// and /metrics can never disagree. Call once at wiring time, before the
// runner is shared; returns the runner for chaining.
func (r *Runner) RegisterMetrics(reg *obs.Registry) *Runner {
	reg.CounterFunc("pes_sessions_total",
		"Sessions requested through the batch runner (memo hits included).",
		func() float64 { return float64(r.sessions.Load()) })
	reg.CounterFunc("pes_unique_runs_total",
		"Simulations actually executed (memo and store misses).",
		func() float64 { return float64(r.uniqueRuns.Load()) })
	reg.CounterFunc("pes_cache_hits_total",
		"Sessions served from the in-memory memo cache.",
		func() float64 { return float64(r.cacheHits.Load()) })
	reg.GaugeFunc("pes_cache_entries",
		"Results currently retained in the memo cache.",
		func() float64 {
			r.mu.Lock()
			n := len(r.cache)
			r.mu.Unlock()
			return float64(n)
		})
	reg.CounterFunc("pes_cache_evictions_total",
		"Memo-cache results dropped by the LRU bound.",
		func() float64 { return float64(r.evictions.Load()) })
	reg.CounterFunc("pes_store_hits_total",
		"Sessions served from the persistent store instead of simulated.",
		func() float64 { return float64(r.storeHits.Load()) })

	reg.CounterFunc("pes_solver_solves_total",
		"ilp.Solver calls across unique runs.",
		func() float64 { return float64(r.solverSnapshot().Solves) })
	reg.CounterFunc("pes_solver_nodes_total",
		"Branch-and-bound nodes explored across unique runs.",
		func() float64 { return float64(r.solverSnapshot().Nodes) })
	reg.CounterFunc("pes_solver_plan_cache_hits_total",
		"Always 0: the schedulers keep no plan cache (kept for scrape compatibility).",
		func() float64 { return float64(r.solverSnapshot().PlanCacheHits) })
	reg.CounterFunc("pes_solver_budget_aborts_total",
		"Solves that exhausted the branch-and-bound node budget.",
		func() float64 { return float64(r.solverSnapshot().BudgetAborts) })

	if a := r.artifacts; a != nil {
		kinds := []struct {
			kind         string
			builds, hits func() float64
		}{
			{"trace",
				func() float64 { return float64(a.Stats().TraceBuilds) },
				func() float64 { return float64(a.Stats().TraceHits) }},
			{"runtime",
				func() float64 { return float64(a.Stats().RuntimeBuilds) },
				func() float64 { return float64(a.Stats().RuntimeHits) }},
			{"fingerprint",
				func() float64 { return float64(a.Stats().FingerprintBuilds) },
				func() float64 { return float64(a.Stats().FingerprintHits) }},
			{"learner",
				func() float64 { return float64(a.Stats().LearnerBuilds) },
				func() float64 { return float64(a.Stats().LearnerHits) }},
			{"page",
				func() float64 { return float64(a.Stats().PageBuilds) },
				func() float64 { return float64(a.Stats().PageHits) }},
		}
		for _, k := range kinds {
			reg.CounterFunc("pes_artifact_builds_total",
				"Artifacts built (by kind).", k.builds, obs.L("kind", k.kind))
			reg.CounterFunc("pes_artifact_hits_total",
				"Artifacts served from cache (by kind).", k.hits, obs.L("kind", k.kind))
		}
		reg.GaugeFunc("pes_artifact_trace_entries",
			"Traces currently retained in the artifact cache.",
			func() float64 { return float64(a.Stats().TraceEntries) })
		reg.CounterFunc("pes_artifact_trace_evictions_total",
			"Traces dropped by the artifact LRU bound.",
			func() float64 { return float64(a.Stats().TraceEvictions) })
		reg.CounterFunc("pes_artifact_store_hits_total",
			"Artifacts loaded from the persistent store (by kind).",
			func() float64 { return float64(a.Stats().TraceStoreHits) }, obs.L("kind", "trace"))
		reg.CounterFunc("pes_artifact_store_hits_total",
			"Artifacts loaded from the persistent store (by kind).",
			func() float64 { return float64(a.Stats().LearnerStoreHits) }, obs.L("kind", "learner"))
	}

	if ps := r.persist; ps != nil {
		reg.GaugeFunc("pes_store_log_records",
			"Distinct keys currently readable from the persistent log.",
			func() float64 { return float64(ps.Stats().Records) })
		reg.GaugeFunc("pes_store_log_recovered",
			"Intact records replayed when the log was opened.",
			func() float64 { return float64(ps.Stats().Recovered) })
		reg.CounterFunc("pes_store_log_corrupt_records_total",
			"Records dropped for a checksum mismatch.",
			func() float64 { return float64(ps.Stats().CorruptRecords) })
		reg.GaugeFunc("pes_store_log_torn_bytes",
			"Unparseable log tail truncated at open, in bytes.",
			func() float64 { return float64(ps.Stats().TornBytes) })
		reg.CounterFunc("pes_store_log_hits_total",
			"Persistent-log lookups that found a record.",
			func() float64 { return float64(ps.Stats().Hits) })
		reg.CounterFunc("pes_store_log_misses_total",
			"Persistent-log lookups that missed.",
			func() float64 { return float64(ps.Stats().Misses) })
		reg.CounterFunc("pes_store_log_puts_total",
			"Records appended to the persistent log.",
			func() float64 { return float64(ps.Stats().Puts) })
		reg.CounterFunc("pes_store_log_syncs_total",
			"Explicit log flushes to stable storage.",
			func() float64 { return float64(ps.Stats().Syncs) })
		reg.CounterFunc("pes_store_log_shared_builds_total",
			"GetOrBuild callers served by another caller's in-flight build.",
			func() float64 { return float64(ps.Stats().SharedBuilds) })
	}

	r.sessionSeconds = reg.Histogram("pes_session_seconds",
		"Wall time to resolve one session (cache hits included).")
	r.solveSeconds = reg.Histogram("pes_solve_seconds",
		"Solver wall time per unique run.")
	return r
}
