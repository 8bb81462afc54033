package experiments

import (
	"testing"

	"repro/internal/store"
)

// TestStoreStaysWithItsSetup: a setup's persistent store receives only that
// setup's records. A later setup in the same process, configured without a
// store, must not write through it — the persistent layer belongs to the
// first setup's artifact store, not to the process-wide one.
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
