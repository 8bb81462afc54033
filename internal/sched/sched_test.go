package sched

import (
	"testing"

	"repro/internal/acmp"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

func tapEvent(trigger simtime.Time, cycles int64) *webevent.Event {
	return &webevent.Event{
		App: "cnn", Type: webevent.Click, Trigger: trigger,
		Work: acmp.Workload{Tmem: 10 * simtime.Millisecond, Cycles: cycles},
	}
}

func TestInteractiveStartsLowAfterIdleAndRampsToMax(t *testing.T) {
	p := acmp.Exynos5410()
	g := NewInteractive(p)
	// A long idle period before the event: utilization is low, so the start
	// configuration must not be the maximum.
	e := tapEvent(simtime.Time(5*simtime.Second), 400e6)
	cfg := g.ConfigAtStart(e, e.Trigger)
	if cfg == p.MaxPerformance() {
		t.Errorf("after idle the governor should not start at max performance, got %v", cfg)
	}
	// After one sampling quantum of sustained execution it ramps to max.
	next := g.Requantum(e, cfg, g.Quantum())
	if next != p.MaxPerformance() {
		t.Errorf("Requantum after a quantum should reach max performance, got %v", next)
	}
	// Right after a long busy period, utilization is high: start at max.
	g.Observe(e, next, e.Trigger, 500*simtime.Millisecond)
	cfg2 := g.ConfigAtStart(e, e.Trigger.Add(510*simtime.Millisecond))
	if cfg2 != p.MaxPerformance() {
		t.Errorf("high recent utilization should start at max performance, got %v", cfg2)
	}
	if g.Name() != "Interactive" || g.Quantum() <= 0 {
		t.Error("metadata wrong")
	}
	g.NoteIdle(0, simtime.Time(simtime.Second)) // must not panic
}

func TestOndemandIsLazierThanInteractive(t *testing.T) {
	p := acmp.Exynos5410()
	inter := NewInteractive(p)
	onde := NewOndemand(p)
	e := tapEvent(simtime.Time(10*simtime.Second), 400e6)
	ci := inter.ConfigAtStart(e, e.Trigger)
	co := onde.ConfigAtStart(e, e.Trigger)
	// Ondemand starts lower (or equal) on the performance ladder.
	ladder := PerformanceLadder(p)
	idx := func(c acmp.Config) int {
		for i, x := range ladder {
			if x == c {
				return i
			}
		}
		return -1
	}
	if idx(co) > idx(ci) {
		t.Errorf("Ondemand start %v should not exceed Interactive start %v", co, ci)
	}
	// Ondemand ramps gradually rather than jumping straight to max.
	next := onde.Requantum(e, co, onde.Quantum())
	if next == co {
		t.Error("Ondemand should ramp after a quantum")
	}
	if onde.Quantum() <= inter.Quantum() {
		t.Error("Ondemand should sample less often than Interactive")
	}
	onde.Observe(e, next, e.Trigger, 100*simtime.Millisecond)
	onde.NoteIdle(0, 1)
	if onde.Name() != "Ondemand" {
		t.Error("name wrong")
	}
}

func TestEBSPicksMinEnergyMeetingDeadline(t *testing.T) {
	p := acmp.Exynos5410()
	e := NewEBS(p)
	if e.Name() != "EBS" || e.Quantum() != 0 {
		t.Error("EBS metadata wrong")
	}
	ev := tapEvent(simtime.Time(2*simtime.Second), 300e6)
	// Teach the cost model with two observations at different frequencies.
	for _, cfg := range []acmp.Config{{Core: acmp.BigCore, FreqMHz: 1000}, {Core: acmp.BigCore, FreqMHz: 1800}} {
		e.Observe(ev, cfg, ev.Trigger, p.Latency(ev.Work, cfg))
	}
	cfg := e.ConfigAtStart(ev, ev.Trigger)
	if cfg.IsZero() {
		t.Fatal("EBS returned no configuration")
	}
	// The chosen configuration must meet the deadline per the cost model.
	w, _ := e.cost.Estimate(ev.Signature())
	if lat := p.Latency(w, cfg); lat > ev.QoSTarget() {
		t.Errorf("EBS config %v predicted latency %v exceeds the QoS target", cfg, lat)
	}
	// With no budget it escalates to max performance.
	late := e.ConfigAtStart(ev, ev.Deadline())
	if late != p.MaxPerformance() {
		t.Errorf("with no budget EBS should pick max performance, got %v", late)
	}
	if got := e.Requantum(ev, cfg, simtime.Second); got != cfg {
		t.Error("EBS should not change configuration mid-event")
	}
	e.NoteIdle(0, 1)
}

func TestOraclePlanMeetsDeadlinesAndCoversWindow(t *testing.T) {
	p := acmp.Exynos5410()
	var events []*webevent.Event
	for i := 0; i < 5; i++ {
		ev := tapEvent(simtime.Time(i)*simtime.Time(400*simtime.Millisecond), 250e6)
		ev.Seq = i
		events = append(events, ev)
	}
	o := NewOracle(p, events)
	if o.Name() != "Oracle" || !o.SpeculationEnabled() {
		t.Error("oracle metadata wrong")
	}
	tasks := o.Plan(0, []*webevent.Event{events[0]})
	if len(tasks) != 5 {
		t.Fatalf("plan has %d tasks, want 5", len(tasks))
	}
	if tasks[0].Event != events[0] {
		t.Error("the outstanding event must be the first task")
	}
	for i, task := range tasks {
		if task.Config.IsZero() {
			t.Fatalf("task %d has no config", i)
		}
	}
	// Observing an event advances the window.
	o.Observe(events[0])
	o.Observe(events[1])
	tasks = o.Plan(events[1].Trigger, nil)
	if len(tasks) != 3 {
		t.Fatalf("after observing two events the plan should cover 3 remaining, got %d", len(tasks))
	}
	// ReactiveConfig meets the deadline with ground truth.
	cfg := o.ReactiveConfig(events[2], events[2].Trigger)
	if p.Latency(events[2].Work, cfg) > events[2].QoSTarget() {
		t.Error("oracle reactive config misses the deadline")
	}
	if o.ReactiveConfig(events[2], events[2].Deadline()) != p.MaxPerformance() {
		t.Error("oracle with no budget should pick max performance")
	}
	// The no-op notification hooks must not panic.
	o.OnCorrectPrediction()
	o.OnMisprediction()
	o.OnReactiveEvent()
	o.ObserveExecution(events[0].Signature(), cfg, simtime.Millisecond)
	if got := o.Plan(0, nil); len(got) != 3 {
		t.Errorf("plan without outstanding should still cover the window, got %d", len(got))
	}
}
