package engine

import (
	"testing"

	"repro/internal/acmp"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// TestSchedulerInvariants sweeps every scheduler over fixed-seed traces and
// checks the properties that must hold regardless of tuning:
//
//   - the Oracle solves for minimum energy subject to QoS, so no other
//     scheduler (all of which also try to meet QoS) may beat its energy;
//   - violation counts are bounded by the event count and every event gets
//     exactly one outcome;
//   - energy components are non-negative and sum to the total.
func TestSchedulerInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the predictor")
	}
	p := acmp.Exynos5410()
	learner, _, err := predictor.TrainOnSeenApps(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		app  string
		seed int64
	}{
		{"cnn", 11}, {"ebay", 5}, {"espn", 9},
	} {
		spec, err := webapp.ByName(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.Generate(spec, tc.seed, trace.Options{})
		evs := tr.Events
		oracle := RunProactive(p, tc.app, evs, sched.NewOracle(p, evs))
		runs := map[string]*Result{
			"Interactive": RunReactive(p, tc.app, evs, sched.NewInteractive(p)),
			"Ondemand":    RunReactive(p, tc.app, evs, sched.NewOndemand(p)),
			"EBS":         RunReactive(p, tc.app, evs, sched.NewEBS(p)),
			"PES": RunProactive(p, tc.app, evs,
				core.NewPES(p, learner, spec, tr.DOMSeed, predictor.DefaultConfig())),
			"Oracle": oracle,
		}
		for name, r := range runs {
			tag := tc.app + "/" + name
			if got, want := len(r.Outcomes), len(evs); got != want {
				t.Errorf("%s: %d outcomes for %d events", tag, got, want)
			}
			if r.Violations < 0 || r.Violations > len(evs) {
				t.Errorf("%s: violation count %d out of range [0, %d]", tag, r.Violations, len(evs))
			}
			if r.BusyEnergyMJ < 0 || r.IdleEnergyMJ < 0 || r.WastedEnergyMJ < 0 {
				t.Errorf("%s: negative energy component (busy=%g idle=%g wasted=%g)",
					tag, r.BusyEnergyMJ, r.IdleEnergyMJ, r.WastedEnergyMJ)
			}
			if diff := r.TotalEnergyMJ - (r.BusyEnergyMJ + r.IdleEnergyMJ); diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s: total energy %g does not sum busy+idle %g",
					tag, r.TotalEnergyMJ, r.BusyEnergyMJ+r.IdleEnergyMJ)
			}
			// Floating-point accumulation differs across schedulers; allow a
			// hair of slack on the oracle bound.
			if r.TotalEnergyMJ < oracle.TotalEnergyMJ*(1-1e-9) {
				t.Errorf("%s: energy %g mJ beats the oracle's %g mJ",
					tag, r.TotalEnergyMJ, oracle.TotalEnergyMJ)
			}
		}
	}
}

// TestConfigLatencyInvariant checks the platform's performance ordering on
// real trace workloads: the MaxPerformance configuration never yields a
// higher execution latency than MinPerformance for the same workload.
func TestConfigLatencyInvariant(t *testing.T) {
	for _, p := range []*acmp.Platform{acmp.Exynos5410(), acmp.TX2Parker()} {
		maxCfg, minCfg := p.MaxPerformance(), p.MinPerformance()
		for _, spec := range webapp.Registry() {
			tr := trace.Generate(spec, 3, trace.Options{MaxEvents: 20})
			evs := tr.Events
			for _, e := range evs {
				fast := p.Latency(e.Work, maxCfg)
				slow := p.Latency(e.Work, minCfg)
				if fast > slow {
					t.Fatalf("%s/%s event %d: MaxPerformance latency %s exceeds MinPerformance %s",
						p.Name, spec.Name, e.Seq, fast, slow)
				}
			}
		}
	}
}
