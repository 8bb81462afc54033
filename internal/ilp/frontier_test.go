package ilp

import (
	"math/rand"
	"testing"
)

// TestFrontierReducesNodes pins the headline claim of the overhaul on
// optimizer-shaped instances (chainProblem's 17-point Exynos-shaped
// ladder, the distribution of the committed BENCH_pr3.json): at least a 2x
// reduction in explored nodes versus the reference solver, summed over the
// suite, with no search exhausting its budget.
func TestFrontierReducesNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	pts := chainPoints()
	s := NewSolver()
	var nodes, refNodes int
	for trial := 0; trial < 80; trial++ {
		p := chainProblem(rng, pts, 2+rng.Intn(5))
		a := s.Solve(p)
		r := SolveReference(p)
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

// TestEscalatedCountersPinned pins the deterministic work counters of the
// escalated path — branch-and-bound nodes and tabulated bound cells, summed
// over the fixed-seed 12-item chainProblem windows that escalate past the
// pure first attempt — so a change to the bound table or the search shows
// up as a counter diff rather than only as wall time. Windows that finish
// in the first attempt must tabulate nothing.
func TestEscalatedCountersPinned(t *testing.T) {
	const (
		wantEscalated = 19
		wantNodes     = 191062
		wantCells     = 385381
	)
	rng := rand.New(rand.NewSource(61))
	pts := chainPoints()
	s := NewSolver()
	escalated, nodes, cells := 0, 0, 0
	for trial := 0; trial < 48; trial++ {
		a := s.Solve(chainProblem(rng, pts, 12))
		if a.Aborted() {
			t.Fatalf("trial %d: search budget exhausted", trial)
		}
		if a.Nodes < fastAttempt0Cap {
			if a.Cells != 0 {
				t.Fatalf("trial %d: first attempt completed but %d cells tabulated", trial, a.Cells)
			}
			continue
		}
		escalated++
		nodes += a.Nodes
		cells += a.Cells
	}
	if escalated != wantEscalated || nodes != wantNodes || cells != wantCells {
		t.Fatalf("escalated windows %d, nodes %d, cells %d; want %d, %d, %d",
			escalated, nodes, cells, wantEscalated, wantNodes, wantCells)
	}
}
