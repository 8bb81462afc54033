package ilp

import (
	"maps"
	"math/rand"
	"testing"
)

// solverSuite returns the solver suite: 150 chainProblem windows from seed
// 1, 30 each of 2, 3, 4, 6 and 8 items, drawn in that order. Its sizes
// mirror the PES optimizer's plans (an outstanding event plus a handful of
// predicted ones); the Oracle's 12-item windows are pinned on real traces
// in the engine package instead.
func solverSuite() []Problem {
	pts := chainPoints()
	rng := rand.New(rand.NewSource(1))
	var ps []Problem
	for _, n := range []int{2, 3, 4, 6, 8} {
		for k := 0; k < 30; k++ {
			ps = append(ps, chainProblem(rng, pts, n))
		}
	}
	return ps
}

// TestSolverSuitePinned pins the solver's exact work on the solver suite
// against SolveReference. Solver completes every instance. The reference
// exhausts its budget on exactly two of them; there Solver must reach an
// energy no worse than the reference's incumbent. Everywhere else the two
// optima agree, and the node sums are pinned exactly, so any change to the
// pruning, the escalation schedule or the bound table shows up as a diff
// here rather than as wall time.
func TestSolverSuitePinned(t *testing.T) {
	const (
		wantNodes = 64808 // Solver, all 150 instances
		wantCells = 37051
		// The 148 instances the reference completes. The committed
		// BENCH_pr13.json read 76,187 Solver nodes on them.
		wantDoneNodes    = 44761
		wantDoneRefNodes = 1468409
	)
	// Instance index → Solver's nodes where the reference aborts.
	wantRefAborts := map[int]int{96: 10014, 136: 10033}

	s := NewSolver()
	var nodes, cells, doneNodes, doneRefNodes int
	refAborts := map[int]int{}
	for i, p := range solverSuite() {
		a := s.Solve(p)
		r := SolveReference(p)
		if a.Aborted() {
			t.Fatalf("instance %d: Solver exhausted its node budget", i)
		}
		nodes += a.Nodes
		cells += a.Cells
		if r.Aborted() {
			refAborts[i] = a.Nodes
			if a.TotalEnergy > r.TotalEnergy+1e-9 {
				t.Errorf("instance %d: Solver energy %v worse than the reference's incumbent %v", i, a.TotalEnergy, r.TotalEnergy)
			}
			continue
		}
		doneNodes += a.Nodes
		doneRefNodes += r.Nodes
		if !energyEqual(a.TotalEnergy, r.TotalEnergy) {
			t.Errorf("instance %d: Solver energy %v, reference %v", i, a.TotalEnergy, r.TotalEnergy)
		}
	}
	if !maps.Equal(refAborts, wantRefAborts) {
		t.Errorf("reference aborts (instance → Solver nodes) %v, want %v", refAborts, wantRefAborts)
	}
	if nodes != wantNodes || cells != wantCells {
		t.Errorf("Solver nodes %d, cells %d; want %d, %d", nodes, cells, wantNodes, wantCells)
	}
	if doneNodes != wantDoneNodes || doneRefNodes != wantDoneRefNodes {
		t.Errorf("completed instances: Solver nodes %d, reference %d; want %d, %d",
			doneNodes, doneRefNodes, wantDoneNodes, wantDoneRefNodes)
	}
}

// BenchmarkSolverSuite times Solver on the solver suite, one reused Solver
// as in the optimizer; one iteration solves all 150 instances.
func BenchmarkSolverSuite(b *testing.B) {
	ps := solverSuite()
	s := NewSolver()
	for b.Loop() {
		for _, p := range ps {
			s.Solve(p)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ps)), "ns/solve")
}
