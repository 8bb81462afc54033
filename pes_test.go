package pes

import (
	"testing"
)

// TestPublicAPIEndToEnd exercises the facade the way the README's quickstart
// does: train, generate a session, run EBS and PES, compare.
func TestPublicAPIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end public API test is slow")
	}
	learner, err := TrainPredictor(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	app, err := AppByName("cnn")
	if err != nil {
		t.Fatal(err)
	}
	tr := GenerateTrace(app, 42)
	events := tr.Events
	platform := Exynos5410()

	ebs := RunReactive(platform, app.Name, events, NewEBS(platform))
	pesSched := NewPES(platform, learner, app, tr.DOMSeed, DefaultPredictorConfig())
	pro := RunProactive(platform, app.Name, events, pesSched)
	oracle := RunProactive(platform, app.Name, events, NewOracle(platform, events))

	for _, r := range []*Result{ebs, pro, oracle} {
		if len(r.Outcomes) != len(events) {
			t.Fatalf("%s covered %d of %d events", r.Scheduler, len(r.Outcomes), len(events))
		}
		if r.TotalEnergyMJ <= 0 {
			t.Fatalf("%s reported no energy", r.Scheduler)
		}
	}
	if oracle.TotalEnergyMJ >= ebs.TotalEnergyMJ {
		t.Error("oracle should use less energy than EBS")
	}
}

// TestBatchFacade runs sessions through the public batch API the way the
// README's batch quickstart does.
func TestBatchFacade(t *testing.T) {
	platform := Exynos5410()
	spec, err := AppByName("cnn")
	if err != nil {
		t.Fatal(err)
	}
	var sessions []BatchSession
	for _, seed := range []int64{3, 4, 3} {
		s, err := NewSession(SessionSpec{
			Platform:  platform,
			Trace:     GenerateTraceWith(spec, seed, TraceOptions{MaxEvents: 12}),
			Scheduler: "ebs",
		})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	runner := NewBatchRunner(2)
	results, err := runner.Run(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r == nil || r.TotalEnergyMJ <= 0 || r.Scheduler != "EBS" {
			t.Fatalf("result %d bad: %+v", i, r)
		}
	}
	if results[0] != results[2] {
		t.Error("duplicate seed should be memoized")
	}
	if st := runner.Stats(); st.UniqueRuns != 2 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 2 unique / 1 hit", st)
	}
}

func TestPublicAPISurface(t *testing.T) {
	if len(Apps()) != 18 || len(SeenApps()) != 12 || len(UnseenApps()) != 6 {
		t.Error("application suite sizes wrong")
	}
	if _, err := AppByName("not-an-app"); err == nil {
		t.Error("expected error for unknown app")
	}
	if Exynos5410().Name != "Exynos5410" || TX2Parker().Name != "TX2Parker" {
		t.Error("platform constructors wrong")
	}
	cfg := DefaultPredictorConfig()
	if cfg.ConfidenceThreshold != 0.70 || !cfg.UseDOMAnalysis {
		t.Error("default predictor config should match the paper")
	}
	ec := DefaultExperimentConfig()
	if ec.EvalTracesPerApp != 3 {
		t.Error("default experiment config should use 3 eval traces per app")
	}
	app, _ := AppByName("ebay")
	tr := GenerateTraceWith(app, 7, TraceOptions{MaxEvents: 20})
	if tr.Count() > 20 {
		t.Error("trace options not honoured")
	}
}
