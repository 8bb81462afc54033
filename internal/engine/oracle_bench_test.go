package engine

import (
	"testing"

	"repro/internal/acmp"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// BenchmarkOracleV2Sessions is the Oracle's layer benchmark: one iteration
// replays a fixed app × seed set under Oracle v2 and reports wall time per
// session plus the deterministic solver counters per solve (branch-and-bound
// nodes, and the bound cells the escalated attempts tabulate). The set is
// the first 12 campaigns of the e2ebench pool: campaign j runs registry apps
// 3j, 3j+1, 3j+2 (mod 18) on trace seed 100000+j, so every app appears
// twice. Traces are generated outside the timer, so the figure is engine,
// scheduler and solver time only.
func BenchmarkOracleV2Sessions(b *testing.B) {
	const appsPerCampaign, campaigns = 3, 12
	p := acmp.Exynos5410()
	reg := webapp.Registry()
	type session struct {
		app string
		evs []*webevent.Event
	}
	var set []session
	for j := 0; j < campaigns; j++ {
		for k := 0; k < appsPerCampaign; k++ {
			spec := reg[(appsPerCampaign*j+k)%len(reg)]
			evs, err := trace.Generate(spec, 100_000+int64(j), trace.Options{}).Runtime()
			if err != nil {
				b.Fatal(err)
			}
			set = append(set, session{spec.Name, evs})
		}
	}
	var iters, solves, nodes, cells int64
	for b.Loop() {
		iters++
		for _, s := range set {
			o := sched.NewOracleWithVersion(p, s.evs, sched.OracleV2)
			r := RunProactive(p, s.app, s.evs, o)
			solves += int64(r.Solver.Solves)
			nodes += r.Solver.Nodes
			cells += o.BoundCells()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(iters*int64(len(set))), "µs/session")
	b.ReportMetric(float64(nodes)/float64(solves), "nodes/solve")
	b.ReportMetric(float64(cells)/float64(solves), "cells/solve")
}
