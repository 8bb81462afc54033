package sessions

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/acmp"
	"repro/internal/artifacts"
	"repro/internal/batch"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// TestArtifactWarmEqualsColdPath is the byte-identity guarantee of the
// shared-artifact layer: a session built from a pre-warmed store (shared
// trace instance, shared runtime events, cached DOM pages) must produce a
// Result byte-identical to the cold path (fresh store, freshly generated
// trace, page cache bypassed), for every scheduler.
func TestArtifactWarmEqualsColdPath(t *testing.T) {
	learner, _, err := predictor.TrainOnSeenApps(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	platform := acmp.Exynos5410()
	spec, err := webapp.ByName("cnn")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 11

	// Warm: one shared store, pre-warmed by building and running every
	// scheduler once before the recorded runs.
	warmStore := artifacts.NewStore()
	warmResults := make(map[string][]byte)
	warmRun := func(record bool) {
		for _, name := range Names() {
			tr := warmStore.Trace(spec, seed, trace.PurposeEval, trace.Options{})
			sess, err := New(Spec{
				Platform:  platform,
				Trace:     tr,
				Scheduler: name,
				Learner:   learner,
				Predictor: predictor.DefaultConfig(),
				Artifacts: warmStore,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := sess.Run()
			if err != nil {
				t.Fatal(err)
			}
			if record {
				if warmResults[name], err = json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	warmRun(false) // warm the store
	before := warmStore.Stats()
	warmRun(true) // recorded, fully artifact-warm runs
	after := warmStore.Stats()

	// The recorded pass builds nothing: every artifact it reads, down to the
	// DOM page trees, is served from cache. This is the clock-free form of
	// the warm path's speed-up over the cold path.
	for kind, n := range map[string]int64{
		"trace":       after.TraceBuilds - before.TraceBuilds,
		"fingerprint": after.FingerprintBuilds - before.FingerprintBuilds,
		"learner":     after.LearnerBuilds - before.LearnerBuilds,
		"page":        after.PageBuilds - before.PageBuilds,
	} {
		if n != 0 {
			t.Errorf("recorded warm pass built %d %s artifact(s), want 0", n, kind)
		}
	}
	if after.TraceHits == before.TraceHits || after.FingerprintHits == before.FingerprintHits ||
		after.PageHits == before.PageHits {
		t.Errorf("a trace, fingerprint or page lookup of the recorded warm pass never hit: stats before %+v, after %+v", before, after)
	}

	// Cold: fresh trace generation, page-tree cache bypassed — the
	// pre-artifact-cache setup path — once with a fresh single-use store and
	// once with no store at all, which memoizes nothing. Both must give the
	// warm result, under one memo key.
	was := webapp.SetPageCache(false)
	defer webapp.SetPageCache(was)
	for _, name := range Names() {
		tr := trace.Generate(spec, seed, trace.Options{})
		var keys []batch.Key
		for _, store := range []*artifacts.Store{artifacts.NewStore(), nil} {
			sess, err := New(Spec{
				Platform:  platform,
				Trace:     tr,
				Scheduler: name,
				Learner:   learner,
				Predictor: predictor.DefaultConfig(),
				Artifacts: store,
			})
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, sess.Key)
			res, _, err := sess.Run()
			if err != nil {
				t.Fatal(err)
			}
			cold, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cold, warmResults[name]) {
				t.Errorf("%s (nil store %t): artifact-warm result differs from cold-path result", name, store == nil)
			}
		}
		if keys[0] != keys[1] {
			t.Errorf("%s: memo keys differ: store %+v, nil store %+v", name, keys[0], keys[1])
		}
	}
}

// TestArtifactWarmSharesMemoKey proves warm and cold construction agree on
// the batch memo key (same fingerprint for identical content), so results
// cached by one path serve the other.
func TestArtifactWarmSharesMemoKey(t *testing.T) {
	platform := acmp.Exynos5410()
	spec, err := webapp.ByName("ebay")
	if err != nil {
		t.Fatal(err)
	}
	store := artifacts.NewStore()
	warm, err := New(Spec{
		Platform:  platform,
		Trace:     store.Trace(spec, 3, trace.PurposeEval, trace.Options{}),
		Scheduler: EBS,
		Artifacts: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(Spec{
		Platform:  platform,
		Trace:     trace.Generate(spec, 3, trace.Options{}),
		Scheduler: EBS,
		Artifacts: artifacts.NewStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Key != cold.Key {
		t.Errorf("memo keys differ: warm %+v, cold %+v", warm.Key, cold.Key)
	}
}
