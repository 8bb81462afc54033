package engine

import (
	"testing"

	"repro/internal/acmp"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// BenchmarkPESSessions is PES's layer benchmark, the counterpart of
// BenchmarkOracleV2Sessions: one iteration replays the same 36 pool
// sessions (12 campaigns × 3 apps, trace seed 100000+j) under PES at the
// two confidence thresholds every e2ebench campaign runs, 0.7 and 0.3, and
// reports wall time per session plus branch-and-bound nodes per solve.
// Traces and the learner are built outside the timer, so the figure is
// engine, predictor, cost model and solver time only.
func BenchmarkPESSessions(b *testing.B) {
	const appsPerCampaign, campaigns = 3, 12
	p := acmp.Exynos5410()
	learner, _, err := predictor.TrainOnSeenApps(3, 400)
	if err != nil {
		b.Fatal(err)
	}
	reg := webapp.Registry()
	type session struct {
		spec    *webapp.Spec
		domSeed int64
		evs     []*webevent.Event
	}
	var set []session
	for j := 0; j < campaigns; j++ {
		for k := 0; k < appsPerCampaign; k++ {
			spec := reg[(appsPerCampaign*j+k)%len(reg)]
			tr := trace.Generate(spec, 100_000+int64(j), trace.Options{})
			evs := tr.Events
			set = append(set, session{spec, tr.DOMSeed, evs})
		}
	}
	thresholds := []float64{0.7, 0.3}
	var runs, solves, nodes int64
	for b.Loop() {
		for _, th := range thresholds {
			cfg := predictor.DefaultConfig()
			cfg.ConfidenceThreshold = th
			for _, s := range set {
				r := RunProactive(p, s.spec.Name, s.evs, core.NewPES(p, learner, s.spec, s.domSeed, cfg))
				runs++
				solves += int64(r.Solver.Solves)
				nodes += r.Solver.Nodes
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(runs), "µs/session")
	b.ReportMetric(float64(nodes)/float64(solves), "nodes/solve")
}
