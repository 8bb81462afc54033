package sessions

import (
	"reflect"
	"testing"

	"repro/internal/acmp"
	"repro/internal/artifacts"
	"repro/internal/batch"
	"repro/internal/predictor"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// TestStoreKeysArePinned pins the persistent store's content addresses of
// one PES and one Oracle session, learner fingerprint included. A store
// directory written by an earlier build is only reusable while these
// strings stay byte-identical, so any change to the memo key, the trace or
// platform fingerprint, or the learner fingerprint shows up here first.
func TestStoreKeysArePinned(t *testing.T) {
	learner, _, err := predictor.TrainOnSeenApps(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := webapp.ByName("cnn")
	if err != nil {
		t.Fatal(err)
	}
	arts := artifacts.NewStore()
	tr := arts.Trace(spec, 11, trace.PurposeEval, trace.Options{})
	var run []batch.Session
	for _, name := range []string{PES, Oracle} {
		sess, err := New(Spec{
			Platform:  acmp.Exynos5410(),
			Trace:     tr,
			Scheduler: name,
			Learner:   learner,
			Predictor: predictor.DefaultConfig(),
			Artifacts: arts,
		})
		if err != nil {
			t.Fatal(err)
		}
		run = append(run, sess)
	}
	ps, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if _, err := batch.NewRunner(1).WithStore(ps).Run(run); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"result|Exynos5410|cnn|11|Oracle||d091dab11b817ebe,oracle=v2",
		"result|Exynos5410|cnn|11|PES|ct=0.7,deg=8,dom=true|d091dab11b817ebe,learner=68052412bafc604f",
	}
	if got := ps.Keys("result|"); !reflect.DeepEqual(got, want) {
		t.Errorf("store keys changed:\n got %q\nwant %q", got, want)
	}
}
