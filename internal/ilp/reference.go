package ilp

import (
	"math"
	"sort"

	"repro/internal/simtime"
)

// SolveReference is the pre-overhaul exact solver, kept verbatim as the
// behavioural baseline: a branch-and-bound over the full per-item choice
// sets whose future-feasibility test walks the remaining items at every
// node. Solver returns the same assignment under the conditions of the
// package comment (property-tested in equivalence_test.go) while exploring
// strictly fewer nodes on non-trivial instances; TestSolverSuitePinned pins
// both node counts. New code should use Solver.
func SolveReference(p Problem) Assignment {
	n := len(p.Items)
	if n == 0 {
		return Assignment{Feasible: true}
	}

	// Minimum latency and energy per item, used for feasibility relaxation
	// and lower bounds.
	minLat := make([]simtime.Duration, n)
	minEnergy := make([]float64, n)
	for i, it := range p.Items {
		if len(it.Choices) == 0 {
			// A degenerate item with no choices: treat as zero-cost no-op.
			minLat[i] = 0
			minEnergy[i] = 0
			continue
		}
		minLat[i] = it.Choices[0].Latency
		minEnergy[i] = it.Choices[0].Energy
		for _, c := range it.Choices[1:] {
			if c.Latency < minLat[i] {
				minLat[i] = c.Latency
			}
			if c.Energy < minEnergy[i] {
				minEnergy[i] = c.Energy
			}
		}
	}

	// Relax deadlines to the earliest achievable finish time so the search
	// space is never empty; remember whether relaxation was needed.
	deadlines := make([]simtime.Time, n)
	feasible := true
	earliest := p.Start
	for i := range p.Items {
		earliest = earliest.Add(minLat[i])
		deadlines[i] = p.Items[i].Deadline
		if earliest.After(deadlines[i]) {
			deadlines[i] = earliest
			feasible = false
		}
	}

	// Suffix sums of minimum latency and energy for pruning.
	sufLat := make([]simtime.Duration, n+1)
	sufEnergy := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		sufLat[i] = sufLat[i+1] + minLat[i]
		sufEnergy[i] = sufEnergy[i+1] + minEnergy[i]
	}

	// Candidate orderings per item: by energy ascending so the first feasible
	// leaf found is already good, improving pruning.
	order := make([][]int, n)
	for i, it := range p.Items {
		idx := make([]int, len(it.Choices))
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool {
			return it.Choices[idx[a]].Energy < it.Choices[idx[b]].Energy
		})
		order[i] = idx
	}

	greedyChoice, greedyEnergy := referenceGreedy(p, deadlines, sufLat)

	best := append([]int(nil), greedyChoice...)
	bestEnergy := greedyEnergy

	cur := make([]int, n)
	nodes := 0
	var dfs func(i int, now simtime.Time, energy float64) bool
	dfs = func(i int, now simtime.Time, energy float64) bool {
		if nodes >= maxNodes {
			return true // abort the search, keep the best found so far
		}
		if i == n {
			if energy < bestEnergy {
				bestEnergy = energy
				copy(best, cur)
			}
			return false
		}
		if energy+sufEnergy[i] >= bestEnergy {
			return false
		}
		it := p.Items[i]
		if len(it.Choices) == 0 {
			cur[i] = 0
			return dfs(i+1, now, energy)
		}
		for _, j := range order[i] {
			nodes++
			c := it.Choices[j]
			finish := now.Add(c.Latency)
			if finish.After(deadlines[i]) {
				continue
			}
			// Future feasibility: every later deadline must remain reachable
			// at minimum latencies.
			ok := true
			t := finish
			for k := i + 1; k < n; k++ {
				t = t.Add(minLat[k])
				if t.After(deadlines[k]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cur[i] = j
			if dfs(i+1, finish, energy+c.Energy) {
				return true
			}
		}
		return false
	}
	dfs(0, p.Start, 0)

	s := Solver{best: best, finish: make([]simtime.Time, n)}
	return s.materialize(p, feasible, nodes)
}

// energyOrder returns each item's choice indices sorted by ascending energy
// with sort.Slice — SolveReference's candidate ordering, tie-breaking
// included, which SolveReferenceOrder must replay exactly.
func energyOrder(p Problem) [][]int {
	order := make([][]int, len(p.Items))
	for i, it := range p.Items {
		idx := make([]int, len(it.Choices))
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool {
			return it.Choices[idx[a]].Energy < it.Choices[idx[b]].Energy
		})
		order[i] = idx
	}
	return order
}

// SolveReferenceOrder explores candidates in exactly the order — and with
// exactly the node accounting, budget, and abort behaviour — of
// SolveReference, but performs each future-feasibility test as the O(1)
// memoized-suffix-latency comparison instead of the reference's O(n) walk.
// Its Assignment (including Nodes) is bit-identical to SolveReference's on
// every instance, aborted searches included; only the wall time drops.
//
// It exists for budget-pinned baselines: the Oracle's published figures were
// produced under the reference search budget, and on its hardest windows
// that budget is exhausted, making the returned assignment an artifact of
// the traversal itself. Oracle v1 therefore keeps this traversal, while the
// PES optimizer and Oracle v2 run Solve. Like Solve's, the returned Choice
// and Finish slices alias the Solver's scratch.
func (s *Solver) SolveReferenceOrder(p Problem) Assignment {
	n := len(p.Items)
	if n == 0 {
		return Assignment{Feasible: true}
	}
	s.grow(n)
	feasible := s.prepare(p)
	order := energyOrder(p)
	bestEnergy := s.greedyInto(p)

	nodes := 0
	var dfs func(i int, now simtime.Time, energy float64) bool
	dfs = func(i int, now simtime.Time, energy float64) bool {
		if nodes >= maxNodes {
			return true // abort the search, keep the best found so far
		}
		if i == n {
			if energy < bestEnergy {
				bestEnergy = energy
				copy(s.best, s.cur)
			}
			return false
		}
		if energy+s.sufEnergy[i] >= bestEnergy {
			return false
		}
		it := p.Items[i]
		if len(it.Choices) == 0 {
			s.cur[i] = 0
			return dfs(i+1, now, energy)
		}
		for _, j := range order[i] {
			nodes++
			c := it.Choices[j]
			finish := now.Add(c.Latency)
			if finish.After(s.latestFinish[i]) {
				continue
			}
			s.cur[i] = j
			if dfs(i+1, finish, energy+c.Energy) {
				return true
			}
		}
		return false
	}
	dfs(0, p.Start, 0)

	return s.materialize(p, feasible, nodes)
}

// referenceGreedy is the pre-overhaul greedy: for each item in order, the
// lowest-energy choice that keeps the current and all future (relaxed)
// deadlines reachable, with the future check walking the suffix explicitly.
func referenceGreedy(p Problem, deadlines []simtime.Time, sufLat []simtime.Duration) ([]int, float64) {
	n := len(p.Items)
	choice := make([]int, n)
	total := 0.0
	now := p.Start
	for i, it := range p.Items {
		if len(it.Choices) == 0 {
			continue
		}
		bestJ := -1
		bestEnergy := math.MaxFloat64
		bestLat := simtime.Duration(0)
		for j, c := range it.Choices {
			finish := now.Add(c.Latency)
			if finish.After(deadlines[i]) {
				continue
			}
			// Future reachability under minimum latencies.
			ok := true
			t := finish
			for k := i + 1; k < n; k++ {
				t = t.Add(sufLat[k] - sufLat[k+1])
				if t.After(deadlines[k]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if c.Energy < bestEnergy {
				bestEnergy, bestJ, bestLat = c.Energy, j, c.Latency
			}
		}
		if bestJ == -1 {
			// Should not happen after relaxation, but fall back to the
			// fastest choice defensively.
			for j, c := range it.Choices {
				if bestJ == -1 || c.Latency < it.Choices[bestJ].Latency {
					bestJ = j
					bestLat = c.Latency
					bestEnergy = c.Energy
				}
			}
		}
		choice[i] = bestJ
		total += bestEnergy
		now = now.Add(bestLat)
	}
	return choice, total
}
