package predictor

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// TestPredictStepZeroAlloc is the CI allocation gate of the per-event
// prediction fast path: after warm-up, a prediction step must not allocate.
// The paper budgets ~2 µs per evaluation; allocation (and the GC pressure it
// implies across a campaign's millions of events) is what pushed the
// pre-overhaul step past that budget.
func TestPredictStepZeroAlloc(t *testing.T) {
	learner, err := TrainOnSeenApps(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, useDOM := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.UseDOMAnalysis = useDOM
		spec := webapp.SeenApps()[0]
		p := New(learner, spec, 1, cfg)
		p.Observe(&webevent.Event{App: spec.Name, Type: webevent.Load})
		p.Observe(&webevent.Event{App: spec.Name, Type: spec.Behavior.MoveManifestation})
		if avg := testing.AllocsPerRun(200, func() {
			if _, ok := p.PredictNext(); !ok {
				t.Fatal("PredictNext failed")
			}
		}); avg != 0 {
			t.Errorf("PredictNext (useDOM=%t) allocates %.1f objects per step, want 0", useDOM, avg)
		}
	}
}

// TestPredictSequenceSteadyStateAlloc pins the whole sequence-prediction
// round: after the first round has sized the predictor's reusable buffers, a
// repeat round over the same state must not allocate either.
func TestPredictSequenceSteadyStateAlloc(t *testing.T) {
	learner, err := TrainOnSeenApps(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := webapp.SeenApps()[0]
	p := New(learner, spec, 1, DefaultConfig())
	p.Observe(&webevent.Event{App: spec.Name, Type: webevent.Load})
	p.Observe(&webevent.Event{App: spec.Name, Type: spec.Behavior.MoveManifestation})
	if avg := testing.AllocsPerRun(200, func() {
		p.PredictSequence()
	}); avg != 0 {
		t.Errorf("PredictSequence allocates %.1f objects per round in steady state, want 0", avg)
	}
}

// TestPredictSequenceMutationZeroAlloc covers the path the two gates above
// never reach: every round follows a DOM mutation (alternately a scroll and
// a menu toggle), so the tree's derived state is recomputed before the
// round reads it. The recompute must not allocate either.
func TestPredictSequenceMutationZeroAlloc(t *testing.T) {
	learner, err := TrainOnSeenApps(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := webapp.SeenApps()[0]
	p := New(learner, spec, 1, DefaultConfig())
	p.Observe(&webevent.Event{App: spec.Name, Type: webevent.Load})
	toggle := dom.None
	p.Session().Tree().Walk(func(n *dom.Node) {
		if toggle == dom.None && n.TogglesMenu != dom.None {
			toggle = n.ID
		}
	})
	if toggle == dom.None {
		t.Fatalf("%s has no menu toggle on its home page", spec.Name)
	}
	scroll := &webevent.Event{App: spec.Name, Type: spec.Behavior.MoveManifestation}
	tap := &webevent.Event{App: spec.Name, Type: spec.Behavior.TapManifestation, Target: int(toggle)}
	round := 0
	if avg := testing.AllocsPerRun(200, func() {
		if round%2 == 0 {
			p.Observe(scroll)
		} else {
			p.Observe(tap)
		}
		round++
		p.PredictSequence()
	}); avg != 0 {
		t.Errorf("Observe + PredictSequence allocates %.1f objects per mutated round, want 0", avg)
	}
}
