package batch

import "repro/internal/obs"

// RegisterMetrics exposes every metric-tagged field of the runner's Stats
// snapshot (sessions, memo and store hits, solver, artifacts, store log) as
// Prometheus series on reg, and attaches the two native latency histograms
// (session wall time, solve wall time) the snapshot cannot carry. A scrape
// samples Stats once — the registry is a second encoding of the snapshot
// /healthz serves, not a second write path — so the two can never disagree.
// Call once at wiring time, after AttachArtifacts and WithStore and before
// the runner is shared; returns the runner for chaining.
func (r *Runner) RegisterMetrics(reg *obs.Registry) *Runner {
	obs.Snapshot(reg, r.Stats)
	r.sessionSeconds = reg.Histogram("pes_session_seconds",
		"Wall time to resolve one session (cache hits included).")
	r.solveSeconds = reg.Histogram("pes_solve_seconds",
		"Solver wall time per unique run.")
	return r
}
