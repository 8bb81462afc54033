package experiments

import (
	"testing"

	"repro/internal/artifacts"
	"repro/internal/batch"
	"repro/internal/sessions"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// TestCacheCountersArePinned runs one small serial campaign through caches
// bounded tightly enough to evict — when the evaluation corpus is assembled
// (its 18 traces overflow the trace cache) and during the campaign (evicted
// traces are regenerated, and the memo cache overflows) — and pins every
// build, hit, entry and eviction count of the batch runner and the artifact
// store. The counters are what /healthz and /metrics report, so a cache
// rewrite that shifts one of them changes what operators see.
func TestCacheCountersArePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness tests are slow")
	}
	cfg := DefaultConfig()
	cfg.TrainTracesPerApp = 1
	cfg.EvalTracesPerApp = 1
	cfg.Parallel = 1
	cfg.CacheMaxEntries = 16
	cfg.Artifacts = artifacts.NewStore()
	s, err := NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A second identically configured setup shares the learner through the
	// store.
	if _, err := NewSetup(cfg); err != nil {
		t.Fatal(err)
	}
	eval := s.evalCorpus()
	campaign := func(names ...string) {
		t.Helper()
		var run []batch.Session
		for _, name := range names {
			for _, ev := range eval[:10] {
				// Re-requesting the trace regenerates the evicted ones.
				spec, err := webapp.ByName(ev.App)
				if err != nil {
					t.Fatal(err)
				}
				tr := s.Artifacts.Trace(spec, ev.Seed, trace.PurposeEval, trace.Options{})
				sess, err := sessions.New(sessions.Spec{
					Platform:  s.Config.Platform,
					Trace:     tr,
					Scheduler: name,
					Learner:   s.Learner,
					Predictor: s.Config.Predictor,
					Artifacts: s.Artifacts,
				})
				if err != nil {
					t.Fatal(err)
				}
				run = append(run, sess)
			}
		}
		if _, err := s.Runner.Run(run); err != nil {
			t.Fatal(err)
		}
	}
	campaign(sessions.Interactive, sessions.PES)
	campaign(sessions.PES, sessions.Interactive, sessions.PES)

	st := s.Runner.Stats()
	if st.Artifacts == nil {
		t.Fatal("runner reports no artifact stats")
	}
	got := *st.Artifacts
	// The page-tree counters are process-wide, not per store.
	got.PageBuilds, got.PageHits = 0, 0
	// 18 evaluation traces, then the campaign's first pass regenerates the
	// 10 it asks for: evicting the least recently used one each time means
	// every one of them misses (the setups themselves generate none).
	wantArtifacts := artifacts.Stats{
		TraceBuilds: 28, TraceHits: 40,
		FingerprintBuilds: 10, FingerprintHits: 40,
		LearnerBuilds: 1, LearnerHits: 1,
		TraceEntries: 16, TraceEvictions: 12,
	}
	if got != wantArtifacts {
		t.Errorf("artifact counters:\n got %+v\nwant %+v", got, wantArtifacts)
	}
	gotBatch := [5]int64{st.Sessions, st.UniqueRuns, st.CacheHits, st.CacheEntries, st.CacheEvictions}
	wantBatch := [5]int64{50, 40, 10, 16, 24}
	if gotBatch != wantBatch {
		t.Errorf("batch counters (sessions, unique runs, hits, entries, evictions) = %v, want %v", gotBatch, wantBatch)
	}
}
