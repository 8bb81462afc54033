package ilp_test

import (
	"math/rand"
	"testing"

	"repro/internal/ilp"
	"repro/internal/ilp/chaingen"
)

// TestFrontierReducesNodes pins the headline claim of the overhaul on
// optimizer-shaped instances — the shared chaingen distribution (the
// 17-point Exynos-shaped ladder) also measured by cmd/pes-bench and the
// committed BENCH_pr3.json: at least a 2x reduction in explored nodes
// versus the reference solver, summed over the suite, with no search
// exhausting its budget.
func TestFrontierReducesNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	pts := chaingen.Points()
	s := ilp.NewSolver()
	var nodes, refNodes int
	for trial := 0; trial < 80; trial++ {
		p := chaingen.Problem(rng, pts, 2+rng.Intn(5))
		a := s.Solve(p)
		r := ilp.SolveReference(p)
		if a.Aborted() || r.Aborted() {
			t.Fatalf("trial %d: search budget exhausted on an optimizer-shaped instance", trial)
		}
		nodes += a.Nodes
		refNodes += r.Nodes
	}
	if nodes == 0 || float64(refNodes)/float64(nodes) < 2 {
		t.Fatalf("node reduction %d -> %d is below 2x", refNodes, nodes)
	}
}
