package core

import (
	"testing"

	"repro/internal/acmp"
	"repro/internal/control"
	"repro/internal/predictor"
	"repro/internal/simtime"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

func newTestPES(t *testing.T) (*PES, *webapp.Spec) {
	t.Helper()
	learner, _, err := predictor.TrainOnSeenApps(2, 7000)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := webapp.ByName("cnn")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPES(acmp.Exynos5410(), learner, spec, 3, predictor.DefaultConfig())
	return p, spec
}

func TestPESPlanProducesCoordinatedSchedule(t *testing.T) {
	p, _ := newTestPES(t)
	if p.Name() != "PES" || !p.SpeculationEnabled() {
		t.Fatal("metadata wrong")
	}
	load := &webevent.Event{Seq: 0, App: "cnn", Type: webevent.Load, Trigger: 0,
		Work: acmp.Workload{Tmem: 200 * simtime.Millisecond, Cycles: 2000e6}}
	p.Observe(load)
	tasks := p.Plan(load.Trigger, []*webevent.Event{load})
	if len(tasks) == 0 {
		t.Fatal("plan should not be empty")
	}
	if tasks[0].Event != load {
		t.Error("the outstanding event must head the plan")
	}
	for i, task := range tasks {
		if task.Config.IsZero() {
			t.Fatalf("task %d has no config", i)
		}
		if task.EstimatedLatency <= 0 {
			t.Fatalf("task %d has no latency estimate", i)
		}
		if i > 0 && task.Event != nil {
			t.Fatalf("only the first task should be an outstanding event")
		}
	}
	// Predicted tasks have increasing expected triggers.
	for i := 2; i < len(tasks); i++ {
		if tasks[i].ExpectedTrigger.Before(tasks[i-1].ExpectedTrigger) {
			t.Error("expected triggers must not decrease")
		}
	}
}

func TestPESReactiveConfigMatchesEBSBehaviour(t *testing.T) {
	p, _ := newTestPES(t)
	ev := &webevent.Event{App: "cnn", Type: webevent.Click, Trigger: simtime.Time(simtime.Second),
		Work: acmp.Workload{Tmem: 10 * simtime.Millisecond, Cycles: 200e6}}
	cfg := p.ReactiveConfig(ev, ev.Trigger)
	if cfg.IsZero() {
		t.Fatal("no reactive config")
	}
	// With no budget the fallback escalates to max performance.
	if p.ReactiveConfig(ev, ev.Deadline()) != acmp.Exynos5410().MaxPerformance() {
		t.Error("no-budget fallback should be max performance")
	}
	p.ObserveExecution(ev.Signature(), cfg, 100*simtime.Millisecond)
}

func TestPESFallbackDisablesSpeculation(t *testing.T) {
	p, _ := newTestPES(t)
	for i := 0; i < 4; i++ {
		p.OnMisprediction()
	}
	if p.SpeculationEnabled() {
		t.Fatal("speculation should be disabled after 4 consecutive mispredictions")
	}
	if got := p.Plan(0, nil); got != nil {
		t.Error("a disabled PES must not plan speculation")
	}
	// Reactive events eventually re-arm speculation.
	for i := 0; i < 10; i++ {
		p.OnReactiveEvent()
	}
	if !p.SpeculationEnabled() {
		t.Error("speculation should re-arm after reactive events")
	}
	p.OnCorrectPrediction() // must not panic
}

func TestPESCustomFallbackOption(t *testing.T) {
	learner, _, err := predictor.TrainOnSeenApps(2, 7100)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := webapp.ByName("bbc")
	fb := &control.Fallback{Threshold: 0, RearmAfter: 1}
	p := NewPES(acmp.Exynos5410(), learner, spec, 1, predictor.DefaultConfig(), WithFallback(fb))
	p.OnMisprediction()
	if p.SpeculationEnabled() {
		t.Error("custom fallback with threshold 0 should disable on the first mis-prediction")
	}
}

func TestPESDeepPredictedLoadsAreNotSpeculated(t *testing.T) {
	p, spec := newTestPES(t)
	// Observe a load and a couple of scrolls so that the predictor has
	// context, then plan without outstanding events: any predicted load
	// beyond the first position must terminate the speculative sequence.
	now := simtime.Time(0)
	p.Observe(&webevent.Event{App: "cnn", Type: webevent.Load, Trigger: now})
	for i := 1; i <= 2; i++ {
		now = now.Add(700 * simtime.Millisecond)
		p.Observe(&webevent.Event{App: "cnn", Type: spec.Behavior.MoveManifestation, Trigger: now, Seq: i})
	}
	tasks := p.Plan(now, nil)
	for i, task := range tasks {
		if i > 0 && task.Type == webevent.Load {
			t.Errorf("task %d is a deep predicted load; the plan should have stopped before it", i)
		}
	}
}
