package artifacts

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/acmp"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/webapp"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	ps, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	return ps
}

// TestPersistentStoreHoldsNoTraces: a persistent store under an artifact
// store gets no trace record, and a second artifact store on the same
// directory regenerates the trace — deeply equal, with the identical
// platform/trace fingerprint, so batch memo keys match across restarts.
func TestPersistentStoreHoldsNoTraces(t *testing.T) {
	dir := t.TempDir()
	spec, err := webapp.ByName("cnn")
	if err != nil {
		t.Fatal(err)
	}
	p := acmp.Exynos5410()

	psCold := openStore(t, dir)
	cold := NewStore().WithPersistent(psCold)
	trCold := cold.Trace(spec, 42, trace.PurposeEval, trace.Options{})
	fpCold := cold.Fingerprint(p, trCold)
	if keys := psCold.Keys("trace|"); len(keys) != 0 || psCold.Len() != 0 {
		t.Fatalf("persistent store holds %d records, trace keys %q; want none", psCold.Len(), keys)
	}

	// "Restart": a fresh artifact store on a fresh handle to the same dir.
	warm := NewStore().WithPersistent(openStore(t, dir))
	trWarm := warm.Trace(spec, 42, trace.PurposeEval, trace.Options{})
	if st := warm.Stats(); st.TraceBuilds != 1 {
		t.Fatalf("warm store built %d traces, want 1 (regenerated): %+v", st.TraceBuilds, st)
	}
	if !reflect.DeepEqual(trCold, trWarm) {
		t.Fatal("regenerated trace differs from the first process's trace")
	}
	if fpWarm := warm.Fingerprint(p, trWarm); fpWarm != fpCold {
		t.Fatalf("fingerprint changed across restart: %s != %s", fpWarm, fpCold)
	}
}

// TestPersistentLearnerTrainedOnce: the second artifact store sharing the
// directory loads the trained model instead of re-running SGD, and the
// loaded learner predicts from bit-identical weights.
func TestPersistentLearnerTrainedOnce(t *testing.T) {
	dir := t.TempDir()
	k := LearnerKey{TracesPerApp: 1, CorpusSeed: 1, TrainSeed: 1}

	cold := NewStore().WithPersistent(openStore(t, dir))
	lCold, err := cold.Learner(k)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.LearnerBuilds != 1 || st.LearnerStoreHits != 0 {
		t.Fatalf("cold stats: %+v", st)
	}

	warm := NewStore().WithPersistent(openStore(t, dir))
	lWarm, err := warm.Learner(k)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.LearnerBuilds != 0 {
		t.Fatalf("warm store re-trained: %+v", st)
	}
	if st.LearnerStoreHits != 1 {
		t.Fatalf("LearnerStoreHits = %d, want 1", st.LearnerStoreHits)
	}
	// A loaded learner needs no training corpus, so none is generated.
	if st.TraceBuilds != 0 {
		t.Fatalf("warm store generated %d traces for a stored learner, want 0", st.TraceBuilds)
	}
	if !reflect.DeepEqual(lCold.Model(), lWarm.Model()) {
		t.Fatal("loaded model weights differ from trained model")
	}
	if lCold.Fingerprint() != lWarm.Fingerprint() {
		t.Fatalf("learner fingerprint changed across restart: %s != %s", lWarm.Fingerprint(), lCold.Fingerprint())
	}
}

// TestConcurrentStoresShareOneTraining: N artifact stores sharing one
// persistent store and racing on the same learner key run SGD exactly once
// between them (persistent-store singleflight). Run under -race.
func TestConcurrentStoresShareOneTraining(t *testing.T) {
	ps := openStore(t, t.TempDir())
	k := LearnerKey{TracesPerApp: 1, CorpusSeed: 2, TrainSeed: 3}
	const n = 4
	stores := make([]*Store, n)
	for i := range stores {
		stores[i] = NewStore().WithPersistent(ps)
	}
	var wg sync.WaitGroup
	models := make([]any, n)
	for i, s := range stores {
		wg.Add(1)
		go func(i int, s *Store) {
			defer wg.Done()
			l, err := s.Learner(k)
			if err != nil {
				t.Errorf("store %d: %v", i, err)
				return
			}
			models[i] = l.Model()
		}(i, s)
	}
	wg.Wait()
	var builds, loads int64
	for _, s := range stores {
		st := s.Stats()
		builds += st.LearnerBuilds
		loads += st.LearnerStoreHits
	}
	if builds != 1 {
		t.Fatalf("SGD ran %d times across %d stores, want 1", builds, n)
	}
	// The builder's siblings either blocked on the shared build (a shared
	// singleflight result, not counted as a store hit) or loaded from disk.
	if builds+loads > n {
		t.Fatalf("accounting off: %d builds + %d loads > %d requests", builds, loads, n)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(models[0], models[i]) {
			t.Fatalf("store %d got a different model", i)
		}
	}
}
