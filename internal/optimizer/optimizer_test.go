package optimizer

import (
	"testing"

	"repro/internal/acmp"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

func sig(app string, typ webevent.Type) webevent.Signature {
	return webevent.Signature{App: app, Type: typ}
}

func TestEstimateDefaultsBeforeObservations(t *testing.T) {
	p := acmp.Exynos5410()
	c := NewCostModel(p)
	w, measured := c.Estimate(sig("cnn", webevent.Click))
	if measured {
		t.Error("estimate should be a default before any observation")
	}
	if w.Cycles <= 0 {
		t.Error("default workload should be non-trivial")
	}
	if c.Observations(sig("cnn", webevent.Click)) != 0 {
		t.Error("no observations expected")
	}
}

func TestCostModelRecoversWorkloadFromTwoFrequencies(t *testing.T) {
	p := acmp.Exynos5410()
	c := NewCostModel(p)
	truth := acmp.Workload{Tmem: 20 * simtime.Millisecond, Cycles: 360e6}
	s := sig("cnn", webevent.Click)
	cfg1 := acmp.Config{Core: acmp.BigCore, FreqMHz: 1000}
	cfg2 := acmp.Config{Core: acmp.BigCore, FreqMHz: 1800}
	c.Observe(s, cfg1, p.Latency(truth, cfg1))
	c.Observe(s, cfg2, p.Latency(truth, cfg2))
	w, measured := c.Estimate(s)
	if !measured {
		t.Fatal("estimate should be measurement-based after two observations")
	}
	if relErr(float64(w.Tmem), float64(truth.Tmem)) > 0.1 {
		t.Errorf("Tmem estimate %v vs truth %v", w.Tmem, truth.Tmem)
	}
	if relErr(float64(w.Cycles), float64(truth.Cycles)) > 0.1 {
		t.Errorf("Cycles estimate %v vs truth %v", w.Cycles, truth.Cycles)
	}
	// Predicted latency at a third frequency should be close to the truth.
	cfg3 := acmp.Config{Core: acmp.LittleCore, FreqMHz: 600}
	pred := c.PredictLatency(s, cfg3)
	actual := p.Latency(truth, cfg3)
	if relErr(float64(pred), float64(actual)) > 0.12 {
		t.Errorf("predicted latency %v vs actual %v", pred, actual)
	}
}

func TestCostModelWithoutFrequencyDiversity(t *testing.T) {
	p := acmp.Exynos5410()
	c := NewCostModel(p)
	truth := acmp.Workload{Tmem: 10 * simtime.Millisecond, Cycles: 200e6}
	s := sig("bbc", webevent.Click)
	cfg := acmp.Config{Core: acmp.BigCore, FreqMHz: 1200}
	c.Observe(s, cfg, p.Latency(truth, cfg))
	c.Observe(s, cfg, p.Latency(truth, cfg))
	w, measured := c.Estimate(s)
	if !measured {
		t.Fatal("should be measurement-based")
	}
	// Same-frequency observations cannot separate Tmem and Ndep, but the
	// reconstructed latency at the observed frequency must match.
	if relErr(float64(p.Latency(w, cfg)), float64(p.Latency(truth, cfg))) > 0.05 {
		t.Errorf("reconstructed latency %v vs truth %v", p.Latency(w, cfg), p.Latency(truth, cfg))
	}
}

func TestObservationWindowBounded(t *testing.T) {
	p := acmp.Exynos5410()
	c := NewCostModel(p)
	s := sig("msn", webevent.Scroll)
	cfg := p.MaxPerformance()
	for i := 0; i < 30; i++ {
		c.Observe(s, cfg, 10*simtime.Millisecond)
	}
	if got := c.Observations(s); got != maxObservations {
		t.Errorf("observations = %d, want %d", got, maxObservations)
	}
}

func TestPickMinEnergyConfig(t *testing.T) {
	p := acmp.Exynos5410()
	c := NewCostModel(p)
	truth := acmp.Workload{Tmem: 2 * simtime.Millisecond, Cycles: 8e6}
	s := sig("cnn", webevent.Scroll)
	cfg1 := acmp.Config{Core: acmp.BigCore, FreqMHz: 800}
	cfg2 := acmp.Config{Core: acmp.BigCore, FreqMHz: 1800}
	c.Observe(s, cfg1, p.Latency(truth, cfg1))
	c.Observe(s, cfg2, p.Latency(truth, cfg2))

	// Plenty of budget: a light scroll should land on the little cluster.
	pick := c.PickMinEnergyConfig(s, 0, simtime.Time(60*simtime.Millisecond))
	if pick.Core != acmp.LittleCore {
		t.Errorf("light event with budget should use the little core, got %v", pick)
	}
	// Impossible budget: must fall back to maximum performance.
	heavy := sig("cnn", webevent.Load)
	pick = c.PickMinEnergyConfig(heavy, 0, simtime.Time(5*simtime.Millisecond))
	if pick != p.MaxPerformance() {
		t.Errorf("impossible deadline should pick max performance, got %v", pick)
	}
	// The chosen config meets the deadline per the model's own estimate.
	pick = c.PickMinEnergyConfig(s, 0, simtime.Time(100*simtime.Millisecond))
	if c.PredictLatency(s, pick) > 100*simtime.Millisecond {
		t.Error("chosen config should meet the deadline per the model")
	}
}

func TestScheduleCoordinatesAcrossEvents(t *testing.T) {
	p := acmp.Exynos5410()
	c := NewCostModel(p)
	opt := New(p, c)

	// Teach the cost model two signatures with known workloads.
	tapSig := sig("cnn", webevent.Click)
	tapWork := acmp.Workload{Tmem: 15 * simtime.Millisecond, Cycles: 300e6}
	loadSig := sig("cnn", webevent.Load)
	loadWork := acmp.Workload{Tmem: 250 * simtime.Millisecond, Cycles: 2500e6}
	for _, cfg := range []acmp.Config{{Core: acmp.BigCore, FreqMHz: 1000}, {Core: acmp.BigCore, FreqMHz: 1800}} {
		c.Observe(tapSig, cfg, p.Latency(tapWork, cfg))
		c.Observe(loadSig, cfg, p.Latency(loadWork, cfg))
	}

	// A tap due soon followed by a predicted load: the schedule must meet
	// both deadlines and assign some configuration to each.
	tasks := []*Task{
		{Signature: tapSig, Type: webevent.Click, ExpectedTrigger: 0,
			Deadline: simtime.Time(300 * simtime.Millisecond)},
		{Signature: loadSig, Type: webevent.Load, ExpectedTrigger: simtime.Time(500 * simtime.Millisecond),
			Deadline: simtime.Time(3500 * simtime.Millisecond), Predicted: true},
	}
	feasible := opt.Schedule(0, tasks)
	if !feasible {
		t.Error("schedule should be feasible")
	}
	for i, task := range tasks {
		if task.Config.IsZero() {
			t.Fatalf("task %d has no configuration", i)
		}
		if task.EstimatedLatency <= 0 {
			t.Fatalf("task %d has no latency estimate", i)
		}
	}
	if st := opt.Stats(); st.Solves != 1 || st.Nodes <= 0 {
		t.Errorf("solver statistics not recorded: %+v", st)
	}
	if opt.Cost() != c {
		t.Error("Cost() should expose the cost model")
	}
	// An empty schedule is trivially feasible.
	if !opt.Schedule(0, nil) {
		t.Error("empty schedule should be feasible")
	}

	// Re-planning the identical horizon solves again (there is no plan
	// cache) and installs the identical assignment.
	want := []acmp.Config{tasks[0].Config, tasks[1].Config}
	for i := range tasks {
		tasks[i].Config = acmp.Config{}
		tasks[i].EstimatedLatency = 0
	}
	if !opt.Schedule(0, tasks) {
		t.Error("re-planned schedule should be feasible")
	}
	if st := opt.Stats(); st.Solves != 2 || st.PlanCacheHits != 0 {
		t.Errorf("repeat Schedule should solve again: %+v", st)
	}
	for i := range tasks {
		if tasks[i].Config != want[i] {
			t.Errorf("task %d: re-planned config %v, want %v", i, tasks[i].Config, want[i])
		}
		if tasks[i].EstimatedLatency <= 0 {
			t.Errorf("task %d: re-planned schedule lost the latency estimate", i)
		}
	}
}

// TestScheduleZeroAlloc gates the PES plan path: once the problem and
// solver buffers have grown, a Schedule call over a fresh horizon (the start
// time advances every call, as in a real session) allocates nothing.
func TestScheduleZeroAlloc(t *testing.T) {
	p := acmp.Exynos5410()
	c := NewCostModel(p)
	opt := New(p, c)
	tapSig := sig("cnn", webevent.Click)
	loadSig := sig("cnn", webevent.Load)
	for _, cfg := range []acmp.Config{{Core: acmp.BigCore, FreqMHz: 1000}, {Core: acmp.LittleCore, FreqMHz: 500}} {
		c.Observe(tapSig, cfg, p.Latency(acmp.Workload{Tmem: 15 * simtime.Millisecond, Cycles: 300e6}, cfg))
	}
	tasks := []*Task{
		{Signature: tapSig, Type: webevent.Click},
		{Signature: loadSig, Type: webevent.Load, Predicted: true},
		{Signature: tapSig, Type: webevent.Click, Predicted: true},
	}
	var start simtime.Time
	schedule := func() {
		start = start.Add(7 * simtime.Millisecond)
		for i, task := range tasks {
			task.Deadline = start.Add(simtime.Duration(i+1) * 900 * simtime.Millisecond)
		}
		opt.Schedule(start, tasks)
	}
	schedule() // warmup: grow the buffers, memoize the estimates
	if allocs := testing.AllocsPerRun(100, schedule); allocs != 0 {
		t.Fatalf("Schedule allocates %.1f objects per call, want 0", allocs)
	}
	if st := opt.Stats(); st.Solves != 102 || st.BudgetAborts != 0 {
		t.Errorf("every call should solve once: %+v", st)
	}
}

func relErr(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	d := (a - b) / b
	if d < 0 {
		d = -d
	}
	return d
}
