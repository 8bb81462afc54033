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
	st := unbounded.Artifacts.Stats()
	want := int64(len(webapp.SeenApps())*cfg.TrainTracesPerApp + len(unbounded.Eval))
	if st.TraceEvictions != 0 || st.TraceBuilds != want || st.TraceEntries != want {
		t.Fatalf("unbounded setup: %d traces built, %d held, %d evicted; want %d built and held, 0 evicted",
			st.TraceBuilds, st.TraceEntries, st.TraceEvictions, want)
	}
}
