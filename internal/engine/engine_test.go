package engine

import (
	"testing"

	"repro/internal/acmp"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

func evalTrace(t testing.TB, app string, seed int64) (*trace.Trace, []*webevent.Event, *webapp.Spec) {
	t.Helper()
	spec, err := webapp.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Generate(spec, seed, trace.Options{})
	evs := tr.Events
	return tr, evs, spec
}

func checkResultInvariants(t *testing.T, r *Result, nEvents int) {
	t.Helper()
	if len(r.Outcomes) != nEvents {
		t.Fatalf("%s: %d outcomes for %d events", r.Scheduler, len(r.Outcomes), nEvents)
	}
	if r.TotalEnergyMJ <= 0 || r.BusyEnergyMJ <= 0 {
		t.Errorf("%s: non-positive energy", r.Scheduler)
	}
	if r.TotalEnergyMJ < r.BusyEnergyMJ {
		t.Errorf("%s: total energy below busy energy", r.Scheduler)
	}
	if r.ViolationRate < 0 || r.ViolationRate > 1 {
		t.Errorf("%s: violation rate %v out of range", r.Scheduler, r.ViolationRate)
	}
	viol := 0
	for _, o := range r.Outcomes {
		if o.Latency <= 0 {
			t.Fatalf("%s: outcome with non-positive latency", r.Scheduler)
		}
		if o.Finish.Before(o.Start) {
			t.Fatalf("%s: outcome finishes before it starts", r.Scheduler)
		}
		if o.Violated {
			viol++
		}
		if o.Config.IsZero() {
			t.Fatalf("%s: outcome with no config", r.Scheduler)
		}
	}
	if viol != r.Violations {
		t.Errorf("%s: violation count mismatch", r.Scheduler)
	}
	if r.MeanLatency() <= 0 {
		t.Errorf("%s: mean latency not positive", r.Scheduler)
	}
}

func TestRunReactiveInvariants(t *testing.T) {
	p := acmp.Exynos5410()
	_, evs, _ := evalTrace(t, "cnn", 11)
	for _, policy := range []sched.ReactivePolicy{sched.NewInteractive(p), sched.NewOndemand(p), sched.NewEBS(p)} {
		r := RunReactive(p, "cnn", evs, policy)
		checkResultInvariants(t, r, len(evs))
		if r.Scheduler != policy.Name() {
			t.Errorf("scheduler name %q", r.Scheduler)
		}
		// Reactive executions never begin before their trigger.
		for _, o := range r.Outcomes {
			if o.Start.Before(o.Event.Trigger) {
				t.Fatalf("%s started before its trigger", policy.Name())
			}
			if o.Speculative {
				t.Fatalf("%s produced a speculative outcome", policy.Name())
			}
		}
	}
}

func TestInteractiveSpendsMostBusyTimeAtMaxPerformance(t *testing.T) {
	// Sec. 6.4: Interactive spends >80% of its busy time at the big
	// cluster's top frequency.
	p := acmp.Exynos5410()
	_, evs, _ := evalTrace(t, "bbc", 3)
	r := RunReactive(p, "bbc", evs, sched.NewInteractive(p))
	frac := float64(r.MaxPerfBusy) / float64(r.TotalBusy)
	if frac < 0.6 {
		t.Errorf("Interactive spends only %.0f%% of busy time at max performance, expected the large majority", 100*frac)
	}
}

func TestRunProactiveOracleInvariants(t *testing.T) {
	p := acmp.Exynos5410()
	_, evs, _ := evalTrace(t, "ebay", 5)
	r := RunProactive(p, "ebay", evs, sched.NewOracle(p, evs))
	checkResultInvariants(t, r, len(evs))
	if r.Mispredictions != 0 {
		t.Errorf("the oracle must never mispredict, got %d", r.Mispredictions)
	}
	if r.CommittedFrames == 0 {
		t.Error("the oracle should commit speculative work")
	}
	spec := 0
	for _, o := range r.Outcomes {
		if o.Speculative {
			spec++
		}
	}
	if spec == 0 {
		t.Error("the oracle should produce speculative outcomes")
	}
	if len(r.PFBSamples) != len(evs) {
		t.Errorf("PFB samples %d, want one per event", len(r.PFBSamples))
	}
}

func TestOracleBeatsReactiveSchedulers(t *testing.T) {
	p := acmp.Exynos5410()
	_, evs, _ := evalTrace(t, "cnn", 21)
	ebs := RunReactive(p, "cnn", evs, sched.NewEBS(p))
	oracle := RunProactive(p, "cnn", evs, sched.NewOracle(p, evs))
	if oracle.TotalEnergyMJ >= ebs.TotalEnergyMJ {
		t.Errorf("oracle energy %.0f should be below EBS energy %.0f", oracle.TotalEnergyMJ, ebs.TotalEnergyMJ)
	}
	if oracle.ViolationRate > ebs.ViolationRate {
		t.Errorf("oracle violations %.2f should not exceed EBS %.2f", oracle.ViolationRate, ebs.ViolationRate)
	}
}

func TestRunProactivePESEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end PES simulation is slow")
	}
	p := acmp.Exynos5410()
	learner, err := predictor.TrainOnSeenApps(3, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, evs, spec := evalTrace(t, "espn", 9)
	pes := core.NewPES(p, learner, spec, tr.DOMSeed, predictor.DefaultConfig())
	r := RunProactive(p, "espn", evs, pes)
	checkResultInvariants(t, r, len(evs))
	if r.CommittedFrames == 0 {
		t.Error("PES should commit at least one speculative frame")
	}
	// Speculation must stay accounted: wasted energy can never exceed busy
	// energy.
	if r.WastedEnergyMJ > r.BusyEnergyMJ {
		t.Errorf("wasted energy %.1f exceeds busy energy %.1f", r.WastedEnergyMJ, r.BusyEnergyMJ)
	}
	// PES should not consume more energy than the QoS-agnostic governor on
	// the same trace.
	inter := RunReactive(p, "espn", evs, sched.NewInteractive(p))
	if r.TotalEnergyMJ > inter.TotalEnergyMJ {
		t.Errorf("PES energy %.0f exceeds Interactive energy %.0f", r.TotalEnergyMJ, inter.TotalEnergyMJ)
	}
}

func TestResultFinalizeEmpty(t *testing.T) {
	r := &Result{Scheduler: "x", App: "y"}
	r.finalize()
	if r.ViolationRate != 0 || r.Duration != 0 || r.MeanLatency() != 0 {
		t.Error("empty result should finalize to zeros")
	}
}

func TestContextAccounting(t *testing.T) {
	p := acmp.Exynos5410()
	res := &Result{}
	m := &Context{platform: p, res: res}
	cfg := p.MaxPerformance()
	// Idle then busy then idle.
	m.chargeIdle(simtime.Time(100 * simtime.Millisecond))
	e := m.chargeBusy(cfg, simtime.Time(100*simtime.Millisecond), simtime.Time(150*simtime.Millisecond))
	if e <= 0 {
		t.Fatal("busy energy should be positive")
	}
	m.chargeIdle(simtime.Time(200 * simtime.Millisecond))
	if res.IdleEnergyMJ <= 0 || res.BusyEnergyMJ != e {
		t.Error("accounting wrong")
	}
	if res.TotalBusy != 50*simtime.Millisecond || res.MaxPerfBusy != 50*simtime.Millisecond {
		t.Error("busy-time breakdown wrong")
	}
	// Zero-length or inverted intervals charge nothing.
	if m.chargeBusy(cfg, 10, 10) != 0 {
		t.Error("zero-length busy interval should charge nothing")
	}
	// Switch overhead from the zero config is free.
	at, se := m.switchTo(cfg, simtime.Time(300*simtime.Millisecond))
	if se != 0 || at != simtime.Time(300*simtime.Millisecond) {
		t.Error("first switch should be free")
	}
	// A cluster migration costs time and energy.
	at2, se2 := m.switchTo(acmp.Config{Core: acmp.LittleCore, FreqMHz: 600}, at)
	if se2 <= 0 || !at2.After(at) {
		t.Error("migration should cost time and energy")
	}
}
