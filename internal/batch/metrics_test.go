package batch

import (
	"strings"
	"testing"

	"repro/internal/artifacts"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestRegisterMetricsExposesEveryFamily wires a fully-loaded runner (memo
// cache, artifact store, persistent log) into a registry and scrapes it.
// The sampled closures only execute at exposition time, so rendering is the
// only way to prove each family is live and reads the right counter.
func TestRegisterMetricsExposesEveryFamily(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	r := NewRunner(1).AttachArtifacts(artifacts.NewStore()).WithStore(st).RegisterMetrics(reg)
	if r.sessionSeconds == nil || r.solveSeconds == nil {
		t.Fatal("RegisterMetrics did not attach the native latency histograms")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, series := range []string{
		"pes_sessions_total 0",
		"pes_unique_runs_total 0",
		"pes_cache_hits_total 0",
		"pes_cache_entries 0",
		"pes_cache_evictions_total 0",
		"pes_store_hits_total 0",
		"pes_solver_solves_total 0",
		"pes_solver_nodes_total 0",
		"pes_solver_plan_cache_hits_total 0",
		"pes_solver_budget_aborts_total 0",
		`pes_artifact_builds_total{kind="trace"} `,
		`pes_artifact_builds_total{kind="fingerprint"} `,
		`pes_artifact_builds_total{kind="learner"} `,
		`pes_artifact_builds_total{kind="page"} `,
		`pes_artifact_hits_total{kind="trace"} `,
		"pes_artifact_trace_entries ",
		"pes_artifact_trace_evictions_total ",
		`pes_artifact_store_hits_total{kind="learner"} `,
		"pes_store_log_records ",
		"pes_store_log_recovered ",
		"pes_store_log_corrupt_records_total ",
		"pes_store_log_torn_bytes ",
		"pes_store_log_hits_total ",
		"pes_store_log_misses_total ",
		"pes_store_log_puts_total ",
		"pes_store_log_syncs_total ",
		"pes_store_log_shared_builds_total ",
		"pes_session_seconds_count 0",
		"pes_solve_seconds_count 0",
	} {
		if !strings.Contains(body, "\n"+series) {
			t.Errorf("scrape is missing series %q", series)
		}
	}
	// Traces are regenerated, never loaded from the persistent store.
	if strings.Contains(body, `pes_artifact_store_hits_total{kind="trace"}`) {
		t.Error("scrape still has a trace store-hits series")
	}
}
