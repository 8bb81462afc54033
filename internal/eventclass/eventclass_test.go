package eventclass

import (
	"testing"

	"repro/internal/acmp"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

func TestClassifyRules(t *testing.T) {
	p := acmp.Exynos5410()
	light := acmp.Workload{Tmem: 2 * simtime.Millisecond, Cycles: 8e6}
	heavy := acmp.Workload{Tmem: 50 * simtime.Millisecond, Cycles: 900e6} // > 300ms even at max

	mk := func(typ webevent.Type, work acmp.Workload, startDelay, latency simtime.Duration, violated bool) engine.Outcome {
		ev := &webevent.Event{Type: typ, Trigger: simtime.Time(10 * simtime.Second), Work: work}
		return engine.Outcome{
			Event:    ev,
			Start:    ev.Trigger.Add(startDelay),
			Finish:   ev.Trigger.Add(startDelay + latency),
			Latency:  latency,
			Violated: violated,
		}
	}

	if got := Classify(p, mk(webevent.Click, heavy, 0, 500*simtime.Millisecond, true)); got != TypeI {
		t.Errorf("inherently infeasible event classified as %v", got)
	}
	if got := Classify(p, mk(webevent.Click, light, 200*simtime.Millisecond, 400*simtime.Millisecond, true)); got != TypeII {
		t.Errorf("interfered violating event classified as %v", got)
	}
	if got := Classify(p, mk(webevent.Click, light, 100*simtime.Millisecond, 200*simtime.Millisecond, false)); got != TypeIII {
		t.Errorf("interfered but met event classified as %v", got)
	}
	if got := Classify(p, mk(webevent.Click, light, 0, 50*simtime.Millisecond, false)); got != TypeIV {
		t.Errorf("benign event classified as %v", got)
	}
	for c := TypeI; c < Class(NumClasses); c++ {
		if c.String() == "" {
			t.Error("class must have a name")
		}
	}
	if Class(99).String() == "" {
		t.Error("unknown class should render")
	}
}

func TestDistributionSumsToOne(t *testing.T) {
	p := acmp.Exynos5410()
	spec, _ := webapp.ByName("cnn")
	tr := trace.Generate(spec, 77, trace.Options{})
	evs := tr.Events
	r := engine.RunReactive(p, "cnn", evs, sched.NewEBS(p))
	d := Distribution(p, r)
	sum := 0.0
	for _, f := range d {
		if f < 0 || f > 1 {
			t.Fatalf("fraction %v out of range", f)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("distribution sums to %v", sum)
	}
	// Empty result yields all zeros.
	empty := Distribution(p, &engine.Result{})
	for _, f := range empty {
		if f != 0 {
			t.Error("empty distribution should be zero")
		}
	}
}
