package sessions

import (
	"slices"
	"testing"

	"repro/internal/acmp"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/webapp"
)

func TestCanonical(t *testing.T) {
	for in, want := range map[string]string{
		"pes": PES, "PES": PES, "ebs": EBS, "Interactive": Interactive,
		"ONDEMAND": Ondemand, "oracle": Oracle,
	} {
		got, err := Canonical(in)
		if err != nil || got != want {
			t.Errorf("Canonical(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := Canonical("bogus"); err == nil {
		t.Error("expected error for unknown scheduler")
	}
}

func TestNewBuildsEveryScheduler(t *testing.T) {
	p := acmp.Exynos5410()
	spec, err := webapp.ByName("cnn")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(spec, 7, trace.Options{MaxEvents: 15})
	learner, err := predictor.TrainOnSeenApps(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		sess, err := New(Spec{
			Platform:  p,
			Trace:     tr,
			Scheduler: name,
			Learner:   learner,
			Predictor: predictor.DefaultConfig(),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sess.Key.Scheduler != name || sess.Key.App != "cnn" || sess.Key.TraceSeed != 7 {
			t.Errorf("%s: bad key %+v", name, sess.Key)
		}
		if sess.Cost != costRank[name] {
			t.Errorf("%s: cost %d, want its rank %d", name, sess.Cost, costRank[name])
		}
		if (sess.Key.Predictor != "") != (name == PES) {
			t.Errorf("%s: predictor key presence wrong: %q", name, sess.Key.Predictor)
		}
		r, _, err := sess.Run()
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		if r.Scheduler != name {
			t.Errorf("result labelled %q, want %q", r.Scheduler, name)
		}
		if len(r.Outcomes) == 0 || r.TotalEnergyMJ <= 0 {
			t.Errorf("%s: empty result", name)
		}
	}
	// PES without a learner is rejected up front.
	if _, err := New(Spec{Platform: p, Trace: tr, Scheduler: PES}); err == nil {
		t.Error("PES without learner should error")
	}
}

// TestCostRankCoversEveryScheduler: every scheduler has a cost rank and
// the table names no other, and the ranks follow the traced session
// times: Oracle > PES > Interactive > Ondemand = EBS.
func TestCostRankCoversEveryScheduler(t *testing.T) {
	for _, name := range Names() {
		if _, ok := costRank[name]; !ok {
			t.Errorf("%s has no cost rank", name)
		}
	}
	if len(costRank) != len(Names()) {
		t.Errorf("cost ranks %v name schedulers outside %v", costRank, Names())
	}
	r := costRank
	if !(r[Oracle] > r[PES] && r[PES] > r[Interactive] && r[Interactive] > r[Ondemand] && r[Ondemand] == r[EBS]) {
		t.Errorf("cost ranks %v, want Oracle > PES > Interactive > Ondemand = EBS", r)
	}
}

// TestKeyVariantDisambiguates checks that sessions which would produce
// different results never share a memo key: same (app, seed) traces with
// different generation options, and PES sessions built from different
// trained learners.
func TestKeyVariantDisambiguates(t *testing.T) {
	p := acmp.Exynos5410()
	spec, err := webapp.ByName("cnn")
	if err != nil {
		t.Fatal(err)
	}
	full := trace.Generate(spec, 7, trace.Options{})
	short := trace.Generate(spec, 7, trace.Options{MaxEvents: 5})
	a, err := New(Spec{Platform: p, Trace: full, Scheduler: EBS})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Spec{Platform: p, Trace: short, Scheduler: EBS})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key == b.Key {
		t.Errorf("full and truncated traces share key %+v", a.Key)
	}
	// Same inputs → same key (the fingerprint must be stable, including
	// across the platform's lazy config-cache population).
	p.Configs()
	a2, err := New(Spec{Platform: p, Trace: full, Scheduler: EBS})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key != a2.Key {
		t.Errorf("key not stable: %+v vs %+v", a.Key, a2.Key)
	}
	// A mutated platform keeping its name must not share a key.
	tweaked := acmp.Exynos5410()
	tweaked.IdlePowerMW *= 2
	c, err := New(Spec{Platform: tweaked, Trace: full, Scheduler: EBS})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key == c.Key {
		t.Errorf("mutated platform shares key %+v", a.Key)
	}
	// An edited trace keeping (app, seed, count, span) must not share a key.
	// The events are the trace's own and shared, so the edit copies one.
	edited := *full
	edited.Events = slices.Clone(full.Events)
	ev := *full.Events[1]
	ev.Work.Cycles *= 2
	edited.Events[1] = &ev
	d, err := New(Spec{Platform: p, Trace: &edited, Scheduler: EBS})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key == d.Key {
		t.Errorf("edited trace shares key %+v", a.Key)
	}
	// A trace differing only in DOMSeed (different DOM replica → different
	// PES predictions) must not share a key.
	reDOM := *full
	reDOM.DOMSeed++
	e, err := New(Spec{Platform: p, Trace: &reDOM, Scheduler: EBS})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key == e.Key {
		t.Errorf("trace with different DOMSeed shares key %+v", a.Key)
	}

	l1, err := predictor.TrainOnSeenApps(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := predictor.TrainOnSeenApps(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := predictor.DefaultConfig()
	p1, err := New(Spec{Platform: p, Trace: full, Scheduler: PES, Learner: l1, Predictor: cfg})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New(Spec{Platform: p, Trace: full, Scheduler: PES, Learner: l2, Predictor: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Key == p2.Key {
		t.Errorf("PES sessions from different learners share key %+v", p1.Key)
	}
	p1again, err := New(Spec{Platform: p, Trace: full, Scheduler: PES, Learner: l1, Predictor: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Key != p1again.Key {
		t.Error("same learner/trace/config should produce a stable key")
	}
}
