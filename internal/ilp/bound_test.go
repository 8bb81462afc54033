package ilp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

// TestBoundTableAdmissible is the property the escalated attempts rest on:
// every cell of the grid-bound table is at most the exact minimum suffix
// energy of every arrival time the cell covers, and every row is
// nondecreasing (which is what makes clamping a lookup into the next row
// admissible). The suffix energy is nondecreasing in the arrival time, so
// the exact minimum is taken at the earliest arrival the cell covers — its
// left edge, or the row's earliest arrival for a first cell whose edge
// precedes it — by SolveReference on the suffix sub-problem under the
// window's relaxed deadlines. The windows are random chaingen shapes, both
// feasible ones and ones whose deadlines had to be relaxed, every third
// with a zero-choice pass-through item; each is tabulated at a coarse
// resolution (every cell checked) and at the attempts' resolutions (a
// stride of cells checked).
func TestBoundTableAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	pts := chainPoints()
	var s Solver
	var passThrough, feasible, relaxed, checked int
	for trial := 0; trial < 60; trial++ {
		p := chainProblem(rng, pts, 2+rng.Intn(6))
		if trial%3 == 1 {
			p.Items[1+rng.Intn(len(p.Items)-1)].Choices = nil
			passThrough++
		}
		n := len(p.Items)
		s.grow(n)
		if s.prepare(p) {
			feasible++
		} else {
			relaxed++
		}
		s.flatten(p)
		for _, maxCells := range []int{16, attemptCells[1], attemptCells[2]} {
			cells := s.buildBound(p, maxCells)
			if cells != s.lbOff[n] {
				t.Fatalf("trial %d: buildBound reports %d cells, laid out %d", trial, cells, s.lbOff[n])
			}
			stride := 1
			if maxCells > 16 {
				stride = 97
			}
			for i := 1; i < n; i++ {
				row := s.lbFlat[s.lbOff[i]:s.lbOff[i+1]]
				for k := 1; k < len(row); k++ {
					if row[k] < row[k-1] {
						t.Fatalf("trial %d, %d cells: row %d decreases at cell %d: %v < %v", trial, maxCells, i, k, row[k], row[k-1])
					}
				}
				for k := 0; k < len(row); k += stride {
					at := max(simtime.Time((s.lbLo[i]+int64(k))<<s.lbShift), s.earliestArr[i])
					exact, ok := suffixMin(p, s.deadlines, i, at)
					if !ok {
						continue // no feasible completion: any value is a bound
					}
					checked++
					if row[k] > exact*(1+1e-12) {
						t.Fatalf("trial %d, %d cells: row %d cell %d (arrival %d) bound %v exceeds exact suffix minimum %v",
							trial, maxCells, i, k, at, row[k], exact)
					}
				}
			}
		}
	}
	if passThrough == 0 || feasible == 0 || relaxed == 0 || checked == 0 {
		t.Fatalf("coverage: %d pass-through, %d feasible and %d relaxed windows, %d cells checked", passThrough, feasible, relaxed, checked)
	}
}

// suffixMin is the exact minimum energy of items i.. arriving at time at,
// under the given (relaxed) deadlines, and whether any assignment meets
// them.
func suffixMin(p Problem, deadlines []simtime.Time, i int, at simtime.Time) (float64, bool) {
	sub := Problem{Start: at, Items: make([]Item, len(p.Items)-i)}
	for j := range sub.Items {
		sub.Items[j] = Item{Deadline: deadlines[i+j], Choices: p.Items[i+j].Choices}
	}
	a := SolveReference(sub)
	if a.Aborted() {
		return math.Inf(1), false
	}
	return a.TotalEnergy, a.Feasible
}
