package experiments

import (
	"testing"

	"repro/internal/store"
	"repro/internal/webapp"
)

// TestStoreStaysWithItsSetup: a setup's persistent store receives only that
// setup's records. A later setup in the same process, configured without a
// store, must not write through it — the persistent layer belongs to the
// first setup's artifact store alone.
func TestStoreStaysWithItsSetup(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness tests are slow")
	}
	ps, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })

	cfg := DefaultConfig()
	cfg.TrainTracesPerApp = 1
	cfg.EvalTracesPerApp = 1
	cfg.Store = ps
	stored, err := NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := ps.Keys("")
	if len(before) == 0 {
		t.Fatal("stored setup wrote nothing to its store")
	}

	// A learner configuration no other setup in this package trains, so a
	// leak would show as a new learner record.
	cfg.Store = nil
	cfg.Seed = 7
	plain, err := NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after := ps.Keys(""); len(after) != len(before) {
		t.Fatalf("a store-less setup grew another setup's store from %d to %d records (learners %q)",
			len(before), len(after), ps.Keys("learner|"))
	}
	if plain.Artifacts == stored.Artifacts {
		t.Fatal("a store-backed setup shares its artifact store with a store-less one")
	}
}

// TestCacheBoundStaysWithItsSetup: a setup's CacheMaxEntries bounds only its
// own trace cache. A later unbounded setup in the same process must evict
// nothing and hold every trace it built.
func TestCacheBoundStaysWithItsSetup(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness tests are slow")
	}
	cfg := DefaultConfig()
	cfg.TrainTracesPerApp = 1
	cfg.EvalTracesPerApp = 1
	cfg.CacheMaxEntries = 4
	bounded, err := NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The setup itself generates no trace; a figure fills the cache with
	// the evaluation corpus.
	if _, err := bounded.Table1(); err != nil {
		t.Fatal(err)
	}
	if st := bounded.Artifacts.Stats(); st.TraceEntries > 4 || st.TraceEvictions == 0 {
		t.Fatalf("bounded setup holds %d traces after %d evictions, want at most 4 after some",
			st.TraceEntries, st.TraceEvictions)
	}

	cfg.CacheMaxEntries = 0
	cfg.Seed = 9
	unbounded, err := NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unbounded.Table1(); err != nil {
		t.Fatal(err)
	}
	st := unbounded.Artifacts.Stats()
	want := int64(len(webapp.Registry()) * cfg.EvalTracesPerApp)
	if st.TraceEvictions != 0 || st.TraceBuilds != want || st.TraceEntries != want {
		t.Fatalf("unbounded setup: %d traces built, %d held, %d evicted; want %d built and held, 0 evicted",
			st.TraceBuilds, st.TraceEntries, st.TraceEvictions, want)
	}
}

// TestSetupGeneratesNoTrace: NewSetup, which every server and worker start
// runs, trains the learner and generates nothing else. The first figure
// that reads the evaluation corpus builds its traces (18 applications × 3),
// and a second figure reuses them.
func TestSetupGeneratesNoTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness tests are slow")
	}
	cfg := DefaultConfig()
	cfg.TrainTracesPerApp = 1
	cfg.Seed = 11
	s, err := NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Artifacts.Stats(); st.TraceBuilds != 0 || st.TraceEntries != 0 || st.LearnerBuilds != 1 {
		t.Fatalf("after NewSetup: %+v, want 1 learner build and no trace", st)
	}
	if _, err := s.Table1(); err != nil {
		t.Fatal(err)
	}
	if st := s.Artifacts.Stats(); st.TraceBuilds != 54 || st.TraceHits != 0 {
		t.Fatalf("first figure built %d traces (%d hits), want the 54 evaluation traces", st.TraceBuilds, st.TraceHits)
	}
	if _, err := s.Fig8(); err != nil {
		t.Fatal(err)
	}
	if st := s.Artifacts.Stats(); st.TraceBuilds != 54 || st.TraceHits != 54 {
		t.Fatalf("second figure: %d trace builds, %d hits; want 54 and 54", st.TraceBuilds, st.TraceHits)
	}
}

// TestStoredLearnerSetupGeneratesNoTrace: a setup whose persistent store
// already holds its learner loads it, and generates no trace at all — not
// even the training corpus the learner was fitted on.
func TestStoredLearnerSetupGeneratesNoTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness tests are slow")
	}
	ps, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	cfg := DefaultConfig()
	cfg.TrainTracesPerApp = 1
	cfg.Seed = 13
	cfg.Store = ps
	first, err := NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := second.Artifacts.Stats()
	if st.TraceBuilds != 0 || st.LearnerBuilds != 0 || st.LearnerStoreHits != 1 {
		t.Fatalf("second setup: %d trace builds, %d learner builds, %d store hits; want 0, 0, 1",
			st.TraceBuilds, st.LearnerBuilds, st.LearnerStoreHits)
	}
	if first.Learner.Fingerprint() != second.Learner.Fingerprint() {
		t.Fatalf("stored learner %s differs from trained %s", second.Learner.Fingerprint(), first.Learner.Fingerprint())
	}
}
