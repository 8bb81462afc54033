package artifacts

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/acmp"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// TestConcurrentBuildsExactlyOnce hammers one store from many goroutines —
// the shape of overlapping campaigns expanding the same (app, seed) cross
// product — and proves every artifact is built exactly once. Run under
// -race this also proves the singleflight construction is sound.
func TestConcurrentBuildsExactlyOnce(t *testing.T) {
	store := NewStore()
	apps := webapp.SeenApps()[:3]
	seeds := []int64{1, 2}
	platform := acmp.Exynos5410()
	platform.Configs()
	lk := LearnerKey{TracesPerApp: 1, CorpusSeed: 77, TrainSeed: 1}

	const campaigns = 8
	var wg sync.WaitGroup
	errs := make(chan error, campaigns)
	for c := 0; c < campaigns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := store.Learner(lk); err != nil {
				errs <- err
				return
			}
			for _, spec := range apps {
				for _, seed := range seeds {
					tr := store.Trace(spec, seed, trace.PurposeEval, trace.Options{})
					store.Fingerprint(platform, tr)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := store.Stats()
	wantTraces := int64(len(apps)*len(seeds)) + int64(len(webapp.SeenApps())*lk.TracesPerApp)
	if st.TraceBuilds != wantTraces {
		t.Errorf("TraceBuilds = %d, want %d (each (app, seed, purpose) generated exactly once)", st.TraceBuilds, wantTraces)
	}
	if want := int64(len(apps) * len(seeds)); st.FingerprintBuilds != want {
		t.Errorf("FingerprintBuilds = %d, want %d", st.FingerprintBuilds, want)
	}
	if st.LearnerBuilds != 1 {
		t.Errorf("LearnerBuilds = %d, want 1", st.LearnerBuilds)
	}
	if st.TraceHits == 0 || st.FingerprintHits == 0 || st.LearnerHits == 0 {
		t.Errorf("expected cache hits under %d concurrent campaigns, got %+v", campaigns, st)
	}
}

// TestArtifactsMatchDirectConstruction proves the cached artifacts are
// bit-identical to what the direct (cold) constructors produce.
func TestArtifactsMatchDirectConstruction(t *testing.T) {
	store := NewStore()
	spec := webapp.SeenApps()[0]
	platform := acmp.Exynos5410()

	cachedTrace := store.Trace(spec, 42, trace.PurposeEval, trace.Options{})
	directTrace := trace.Generate(spec, 42, trace.Options{})
	if !reflect.DeepEqual(cachedTrace, directTrace) {
		t.Error("cached trace differs from trace.Generate output")
	}
	if again := store.Trace(spec, 42, trace.PurposeEval, trace.Options{}); again != cachedTrace {
		t.Error("second Trace request returned a different instance")
	}

	// Runtime is the trace's own event list, nothing parsed or copied.
	if evs, err := store.Runtime(cachedTrace); err != nil || len(evs) != cachedTrace.Count() || evs[0] != cachedTrace.Events[0] {
		t.Errorf("Runtime = %d events (err %v), want the trace's own %d", len(evs), err, cachedTrace.Count())
	}

	// Fingerprints of identical content must agree across instances and
	// stores (they key the batch memo cache).
	other := NewStore()
	if a, b := store.Fingerprint(platform, cachedTrace), other.Fingerprint(platform, directTrace); a != b {
		t.Errorf("fingerprint mismatch for identical content: %q vs %q", a, b)
	}

	// The corpus assembled from cached traces must equal GenerateCorpus.
	cachedCorpus := store.Corpus(webapp.SeenApps()[:2], 2, 900, trace.PurposeTrain, trace.Options{})
	directCorpus := trace.GenerateCorpus(webapp.SeenApps()[:2], 2, 900, trace.PurposeTrain, trace.Options{})
	if !reflect.DeepEqual(cachedCorpus, directCorpus) {
		t.Error("cached corpus differs from trace.GenerateCorpus output")
	}
}

// TestExternalTracesAreNotRetained guards the store against unbounded
// growth on traces it did not generate: pointer-keyed entries for external
// traces would never be hit again, so Fingerprint must compute without
// caching (correctly) instead of inserting one dead entry per call.
func TestExternalTracesAreNotRetained(t *testing.T) {
	store := NewStore()
	spec := webapp.SeenApps()[0]
	platform := acmp.Exynos5410()
	owned := store.Trace(spec, 1, trace.PurposeEval, trace.Options{})

	for i := 0; i < 10; i++ {
		external := trace.Generate(spec, 1, trace.Options{})
		if fp := store.Fingerprint(platform, external); fp != store.Fingerprint(platform, owned) {
			t.Fatal("uncached fingerprint disagrees with cached one for identical content")
		}
	}
	store.mu.Lock()
	indexed := len(store.index)
	store.mu.Unlock()
	if indexed != 1 {
		t.Errorf("external traces were retained: %d indexed traces, want 1 (the store's own)", indexed)
	}
	if st := store.Stats(); st.FingerprintBuilds != 1 {
		t.Errorf("FingerprintBuilds = %d, want 1 (external hashes are not cache builds)", st.FingerprintBuilds)
	}
}

// TestLearnerSharedAcrossEqualKeys proves equal training configurations
// share one model instance while distinct ones do not.
func TestLearnerSharedAcrossEqualKeys(t *testing.T) {
	store := NewStore()
	a, _, err := store.Learner(LearnerKey{TracesPerApp: 1, CorpusSeed: 5, TrainSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := store.Learner(LearnerKey{TracesPerApp: 1, CorpusSeed: 5, TrainSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("equal learner keys returned distinct instances")
	}
	c, _, err := store.Learner(LearnerKey{TracesPerApp: 1, CorpusSeed: 6, TrainSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("distinct learner keys shared one instance")
	}
	if st := store.Stats(); st.LearnerBuilds != 2 {
		t.Errorf("LearnerBuilds = %d, want 2", st.LearnerBuilds)
	}
}

// TestTracePurposeKeysSeparately guards the purpose field's place in the
// trace key: the same (app, seed) requested for training and evaluation
// must not share one (mutable-metadata) instance.
func TestTracePurposeKeysSeparately(t *testing.T) {
	store := NewStore()
	spec := webapp.SeenApps()[0]
	train := store.Trace(spec, 7, trace.PurposeTrain, trace.Options{})
	eval := store.Trace(spec, 7, trace.PurposeEval, trace.Options{})
	if train == eval {
		t.Fatal("train and eval purposes shared one trace instance")
	}
	if train.Purpose != trace.PurposeTrain || eval.Purpose != trace.PurposeEval {
		t.Errorf("purposes = %q/%q, want train/eval", train.Purpose, eval.Purpose)
	}
	for i := range train.Events {
		if !reflect.DeepEqual(train.Events[i], eval.Events[i]) {
			t.Fatal("trace content must not depend on purpose")
		}
	}
}

func ExampleStore_Trace() {
	store := NewStore()
	spec := webapp.SeenApps()[0]
	a := store.Trace(spec, 1, trace.PurposeEval, trace.Options{})
	b := store.Trace(spec, 1, trace.PurposeEval, trace.Options{})
	fmt.Println(a == b, store.Stats().TraceBuilds)
	// Output: true 1
}

// TestTraceLRUBound exercises the trace-cache LRU: the cache honors its
// bound, evicting a trace drops its derived artifacts, and a re-requested
// trace regenerates bit-identically (same fingerprint), so eviction can
// never change a session's memo key or result.
func TestTraceLRUBound(t *testing.T) {
	store := NewStore().WithMaxTraces(2)
	apps := webapp.SeenApps()[:3]
	platform := acmp.Exynos5410()
	platform.Configs()

	first := store.Trace(apps[0], 1, trace.PurposeEval, trace.Options{})
	firstPrint := store.Fingerprint(platform, first)
	store.Trace(apps[1], 1, trace.PurposeEval, trace.Options{})
	store.Trace(apps[2], 1, trace.PurposeEval, trace.Options{})

	st := store.Stats()
	if st.TraceBuilds != 3 || st.TraceEntries != 2 || st.TraceEvictions != 1 {
		t.Fatalf("after 3 builds on a 2-slot cache: %+v", st)
	}
	// The evicted trace's derived entries are gone with it.
	if store.artifactsOf(first) != nil {
		t.Error("evicted trace still indexed by the store")
	}

	// A consumer still holding the evicted pointer keeps working, uncached.
	if got := store.Fingerprint(platform, first); got != firstPrint {
		t.Fatalf("evicted trace fingerprints %s, want %s", got, firstPrint)
	}

	// Re-requesting the evicted key regenerates a bit-identical trace: the
	// content fingerprint — and with it every batch memo key — is unchanged.
	again := store.Trace(apps[0], 1, trace.PurposeEval, trace.Options{})
	if again == first {
		t.Fatal("evicted trace was not regenerated")
	}
	if got := store.Fingerprint(platform, again); got != firstPrint {
		t.Errorf("regenerated trace fingerprint %s != original %s", got, firstPrint)
	}
	if st := store.Stats(); st.TraceBuilds != 4 || st.TraceEvictions != 2 {
		t.Errorf("after regeneration: %+v, want 4 builds / 2 evictions", st)
	}
}

// TestTraceLRUConcurrent hammers a tightly bounded store from many
// goroutines; under -race this exercises eviction racing singleflight
// construction, and every request must still yield a usable trace.
func TestTraceLRUConcurrent(t *testing.T) {
	store := NewStore().WithMaxTraces(2)
	apps := webapp.SeenApps()[:4]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tr := store.Trace(apps[i%len(apps)], 1, trace.PurposeEval, trace.Options{})
				if tr == nil || len(tr.Events) == 0 {
					t.Error("bounded store returned an unusable trace")
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := store.Stats(); st.TraceEntries > 2 {
		t.Errorf("trace cache grew past its bound: %+v", st)
	}
}
