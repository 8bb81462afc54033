package engine

import (
	"hash/fnv"
	"testing"

	"repro/internal/acmp"
	"repro/internal/optimizer"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// TestOraclePoolSessionsPinned pins the Oracle on real windows: the 288
// sessions of the e2ebench pool (campaign j < 96 runs registry apps 3j,
// 3j+1, 3j+2 mod 18 on trace seed 100000+j) under sched.NewOracle. An FNV-64a
// digest of every Result's JSON with Solver zeroed pins, per session, the
// energy bits, the violations and every event's config, start and finish;
// it was captured before the deadline-aware suffix bound and the folded
// bound build landed, which must leave every choice unchanged. The summed
// solver counters pin the work on those windows; before the two cuts they
// read 1,241 solves, 2,906,442 nodes and 3,894,937 cells.
func TestOraclePoolSessionsPinned(t *testing.T) {
	const (
		wantDigest = 0xa94906c274de6653
		wantSolves = 1241
		wantNodes  = 2418144
		wantCells  = 3112901
	)
	const appsPerCampaign, campaigns = 3, 96
	p := acmp.Exynos5410()
	reg := webapp.Registry()
	h := fnv.New64a()
	var buf []byte
	var solves, nodes, cells int64
	for j := 0; j < campaigns; j++ {
		for k := 0; k < appsPerCampaign; k++ {
			spec := reg[(appsPerCampaign*j+k)%len(reg)]
			evs, err := trace.Generate(spec, 100_000+int64(j), trace.Options{}).Runtime()
			if err != nil {
				t.Fatal(err)
			}
			o := sched.NewOracle(p, evs)
			r := RunProactive(p, spec.Name, evs, o)
			if r.Solver.BudgetAborts != 0 {
				t.Fatalf("campaign %d, %s: %d budget aborts", j, spec.Name, r.Solver.BudgetAborts)
			}
			solves += int64(r.Solver.Solves)
			nodes += r.Solver.Nodes
			cells += o.BoundCells()
			r.Solver = optimizer.SolverCounts{}
			if buf, err = r.AppendJSON(buf[:0]); err != nil {
				t.Fatal(err)
			}
			h.Write(buf)
		}
	}
	if got := h.Sum64(); got != wantDigest {
		t.Errorf("pool digest %#x, want %#x: an Oracle choice, start, finish or energy moved", got, uint64(wantDigest))
	}
	if solves != wantSolves || nodes != wantNodes || cells != wantCells {
		t.Errorf("pool solves %d, nodes %d, cells %d; want %d, %d, %d",
			solves, nodes, cells, wantSolves, wantNodes, wantCells)
	}
}
