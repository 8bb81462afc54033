package ilp

import (
	"math"

	"repro/internal/simtime"
)

// Solver is the exact chain-scheduling solver of the PES optimizer and
// Oracle v2: the dominance-pruned branch-and-bound of the package comment,
// run as an iterative depth-first search over flattened per-item choice
// tables held in scratch buffers recycled across calls, with a staged
// escalation for hard windows:
//
//   - Attempt 0 runs the pruned search as-is under a 10,000-node cap. Easy
//     instances finish here at pure search cost; every PES solve does (the
//     largest measured PES search is 32 nodes).
//   - If the cap is hit, the search restarts under an admissible
//     arrival-time-grid lower bound: a backward DP tabulates, per item, a
//     lower bound on the minimum suffix energy as a step function of the
//     arrival time (cells are power-of-two tick widths, so indexing is one
//     shift). The bound is evaluated at each cell's left edge and the true
//     suffix cost is nondecreasing in arrival time, so pruning with it can
//     never cut off an improving leaf. The same table seeds a near-optimal
//     incumbent (walking the argmin of energy-plus-bound), which together
//     with the bound collapses the budget-exhausting windows of the frozen
//     reference traversal to a few thousand nodes.
//   - A second escalation rebuilds the table at 4x resolution; only then
//     does a still-incomplete search exhaust the shared node budget and
//     report an abort.
//
// Every attempt explores each item's candidates by ascending energy, equal
// energies by choice index, and only ever prunes subtrees whose admissible
// bound proves they cannot beat the incumbent, so whenever the search
// completes the returned energy is the exact optimum of the (relaxed)
// instance. The choice vector is SolveReference's under the conditions of
// the package comment; otherwise it may be another optimum of equal energy —
// the reference orders ties with sort.Slice, and the escalated attempts may
// return the table-guided representative.
//
// After the buffers have grown to the largest instance seen, a solve
// performs no allocation at all, which is what keeps the PES plan path and
// the Oracle's one 12-event window per plan allocation-free.
//
// The zero value is ready to use. A Solver is not safe for concurrent use:
// it belongs to one scheduler instance, exactly like the optimizer's
// reusable problem buffers.
type Solver struct {
	// Per-item minima, the relaxed deadlines, and the memoized suffix
	// quantities derived from them (filled by prepare).
	minLat       []simtime.Duration
	minEnergy    []float64
	deadlines    []simtime.Time
	latestFinish []simtime.Time
	sufEnergy    []float64
	// earliestArr[i] is the earliest possible arrival time at item i (start
	// plus the prefix of minimum latencies): the left edge of item i's
	// arrival-time grid.
	earliestArr []simtime.Time

	// Flattened frontier tables: item i's kept candidates occupy
	// frontOff[i]:frontOff[i+1] of the flat arrays, sorted by ascending
	// energy (and therefore strictly descending latency).
	frontLat    []simtime.Duration
	frontEnergy []float64
	frontChoice []int
	frontOff    []int

	// order is the per-item energy-sort scratch (one item at a time).
	order []int

	// Arrival-time-grid bound tables (built only on escalation): item i's
	// cells occupy lbOff[i]:lbOff[i+1] of lbFlat; cell k of item i covers
	// arrival times [earliestArr[i] + k<<lbShift[i], ...+(k+1)<<lbShift[i]).
	lbFlat  []float64
	lbOff   []int
	lbShift []uint

	// Iterative-search state: per-depth resume position in the flat frontier,
	// arrival time and accumulated energy on entry, plus the current and best
	// assignments and the materialized finish times.
	pos    []int
	nowAt  []simtime.Time
	enAt   []float64
	cur    []int
	best   []int
	finish []simtime.Time
}

// NewSolver returns an empty Solver; buffers grow on first use.
func NewSolver() *Solver { return &Solver{} }

// Escalation schedule: attempt 0 is the pure pruned search; attempts 1 and 2
// add the grid bound at increasing resolution. Node caps are cumulative
// shares of the shared maxNodes budget (50k + 100k + 250k = maxNodes), so an
// instance that defeats every attempt reports the same abort condition as
// the reference traversals: Nodes >= maxNodes.
var (
	attemptCells = [3]int{0, 4096, 16384}
	attemptCap   = [3]int{10000, 50000, maxNodes}
)

// grow sizes every per-item buffer for an n-item problem.
func (s *Solver) grow(n int) {
	if cap(s.minLat) < n {
		c := 2 * n
		s.minLat = make([]simtime.Duration, c)
		s.minEnergy = make([]float64, c)
		s.deadlines = make([]simtime.Time, c)
		s.latestFinish = make([]simtime.Time, c)
		s.sufEnergy = make([]float64, c+1)
		s.earliestArr = make([]simtime.Time, c+1)
		s.frontOff = make([]int, c+1)
		s.lbOff = make([]int, c+2)
		s.lbShift = make([]uint, c+1)
		s.pos = make([]int, c)
		s.nowAt = make([]simtime.Time, c+1)
		s.enAt = make([]float64, c+1)
		s.cur = make([]int, c)
		s.best = make([]int, c)
		s.finish = make([]simtime.Time, c)
	}
	s.minLat = s.minLat[:n]
	s.minEnergy = s.minEnergy[:n]
	s.deadlines = s.deadlines[:n]
	s.latestFinish = s.latestFinish[:n]
	s.sufEnergy = s.sufEnergy[:n+1]
	s.earliestArr = s.earliestArr[:n+1]
	s.frontOff = s.frontOff[:n+1]
	s.lbOff = s.lbOff[:n+2]
	s.lbShift = s.lbShift[:n+1]
	s.pos = s.pos[:n]
	s.nowAt = s.nowAt[:n+1]
	s.enAt = s.enAt[:n+1]
	s.cur = s.cur[:n]
	s.best = s.best[:n]
	s.finish = s.finish[:n]
}

// prepare fills the per-item arrays and returns whether the original
// deadlines are all reachable. The deadlines are relaxed to the earliest
// achievable finish time wherever even maximum performance misses them, so
// the search space is never empty. latestFinish[i] = min(deadlines[i],
// latestFinish[i+1] - minLat[i+1]) is the latest finish time of item i from
// which every remaining deadline is still reachable at minimum latencies,
// and sufEnergy[i] is the deadline-ignoring energy lower bound of the suffix
// starting at item i.
func (s *Solver) prepare(p Problem) bool {
	n := len(p.Items)
	s.earliestArr[0] = p.Start
	for i, it := range p.Items {
		if len(it.Choices) == 0 {
			s.minLat[i], s.minEnergy[i] = 0, 0
			s.earliestArr[i+1] = s.earliestArr[i]
			continue
		}
		s.minLat[i] = it.Choices[0].Latency
		s.minEnergy[i] = it.Choices[0].Energy
		for _, c := range it.Choices[1:] {
			if c.Latency < s.minLat[i] {
				s.minLat[i] = c.Latency
			}
			if c.Energy < s.minEnergy[i] {
				s.minEnergy[i] = c.Energy
			}
		}
		s.earliestArr[i+1] = s.earliestArr[i].Add(s.minLat[i])
	}
	feasible := true
	earliest := p.Start
	for i := range p.Items {
		earliest = earliest.Add(s.minLat[i])
		s.deadlines[i] = p.Items[i].Deadline
		if earliest.After(s.deadlines[i]) {
			s.deadlines[i] = earliest
			feasible = false
		}
	}
	s.latestFinish[n-1] = s.deadlines[n-1]
	for i := n - 2; i >= 0; i-- {
		s.latestFinish[i] = s.latestFinish[i+1].Add(-s.minLat[i+1])
		if s.deadlines[i].Before(s.latestFinish[i]) {
			s.latestFinish[i] = s.deadlines[i]
		}
	}
	s.sufEnergy[n] = 0
	for i := n - 1; i >= 0; i-- {
		s.sufEnergy[i] = s.sufEnergy[i+1] + s.minEnergy[i]
	}
	return feasible
}

// flatten builds the flattened Pareto-frontier tables: each item's choices
// are index-sorted by ascending energy (stable insertion sort — zero-alloc,
// and the item sets are at most a platform ladder long), then reduced to the
// strictly-faster-than-anything-cheaper frontier. A pruned choice j is
// dominated by an earlier-ordered keeper k (energy(k) <= energy(j),
// latency(k) <= latency(j)): substituting k for j in any feasible assignment
// stays feasible at no more energy, and the substituted assignment is
// visited first, so no dominated choice can appear in the first optimal leaf
// the search finds — pruning never changes the returned assignment.
func (s *Solver) flatten(p Problem) {
	s.frontLat = s.frontLat[:0]
	s.frontEnergy = s.frontEnergy[:0]
	s.frontChoice = s.frontChoice[:0]
	for i, it := range p.Items {
		s.frontOff[i] = len(s.frontLat)
		m := len(it.Choices)
		if m == 0 {
			continue
		}
		if cap(s.order) < m {
			s.order = make([]int, 2*m)
		}
		order := s.order[:m]
		for j := range order {
			order[j] = j
		}
		for j := 1; j < m; j++ {
			k, e := j, it.Choices[order[j]].Energy
			for k > 0 && it.Choices[order[k-1]].Energy > e {
				order[k], order[k-1] = order[k-1], order[k]
				k--
			}
		}
		var minLat simtime.Duration
		kept := 0
		for _, j := range order {
			c := it.Choices[j]
			if kept == 0 || c.Latency < minLat {
				s.frontLat = append(s.frontLat, c.Latency)
				s.frontEnergy = append(s.frontEnergy, c.Energy)
				s.frontChoice = append(s.frontChoice, j)
				minLat = c.Latency
				kept++
			}
		}
	}
	s.frontOff[len(p.Items)] = len(s.frontLat)
}

// firstFeasible returns the first flat-table slot in [lo, hi) whose latency
// fits the budget; the latencies are strictly descending, so the infeasible
// candidates form a prefix and a binary search skips them (the manual loop
// keeps the hot path closure-free).
func (s *Solver) firstFeasible(lo, hi int, budget simtime.Duration) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.frontLat[mid] <= budget {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// greedyInto assigns, for each item in order, the lowest-energy choice that
// keeps the current and all future (relaxed) deadlines reachable, writing
// the choices into s.best, and returns their total energy. It always
// succeeds because the deadlines have been relaxed to the max-performance
// schedule. Choices are scanned in input order with strict-improvement
// updates, matching the reference greedy's tie-breaking exactly.
func (s *Solver) greedyInto(p Problem) float64 {
	total := 0.0
	now := p.Start
	for i, it := range p.Items {
		if len(it.Choices) == 0 {
			s.best[i] = 0
			continue
		}
		bestJ := -1
		bestEnergy := math.MaxFloat64
		bestLat := simtime.Duration(0)
		for j, c := range it.Choices {
			if now.Add(c.Latency).After(s.latestFinish[i]) {
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
		s.best[i] = bestJ
		total += bestEnergy
		now = now.Add(bestLat)
	}
	return total
}

// lbAt returns the grid bound for arriving at item i at time t: the value
// tabulated at the left edge of t's cell, which under-approximates the true
// (nondecreasing) minimum suffix energy. math.MaxFloat64 marks arrival
// times with no feasible completion. Cells are filled lazily on first query
// — the search trajectory touches a small fraction of the table, so eager
// tabulation would dominate the cost of an escalated solve.
func (s *Solver) lbAt(i int, t simtime.Time) float64 {
	k := int(t.Sub(s.earliestArr[i])) >> s.lbShift[i]
	if hi := s.lbOff[i+1] - s.lbOff[i] - 1; k > hi {
		k = hi
	}
	if k < 0 {
		k = 0
	}
	return s.lbCell(i, k)
}

// lbCell fills (if needed) and returns one bound cell: the minimum over item
// i's feasible frontier choices of the choice energy plus the next level's
// bound at the resulting finish time — a backward DP over cell left edges,
// using exactly the quantities the search itself prunes with. Uncomputed
// cells hold NaN; recursion depth is bounded by the item count and every
// cell is computed at most once per buildBound.
func (s *Solver) lbCell(i, k int) float64 {
	v := s.lbFlat[s.lbOff[i]+k]
	if v == v { // not NaN: already filled
		return v
	}
	n := len(s.lbOff) - 2
	t := s.earliestArr[i].Add(simtime.Duration(int64(k) << s.lbShift[i]))
	fLo, fHi := s.frontOff[i], s.frontOff[i+1]
	if fLo == fHi {
		// Degenerate zero-cost item: pass the next level's bound through.
		v = 0
		if i+1 < n {
			v = s.lbAt(i+1, t)
		}
		s.lbFlat[s.lbOff[i]+k] = v
		return v
	}
	best := math.MaxFloat64
	for f := fLo; f < fHi; f++ {
		ft := t.Add(s.frontLat[f])
		if ft.After(s.latestFinish[i]) {
			continue
		}
		v := s.frontEnergy[f]
		if i+1 < n {
			v += s.lbAt(i+1, ft)
		}
		if v < best {
			best = v
		}
		if s.frontEnergy[f] >= best {
			// Frontier energies ascend and the suffix term is nonnegative,
			// so no later candidate can improve the cell.
			break
		}
	}
	s.lbFlat[s.lbOff[i]+k] = best
	return best
}

// buildBound lays out the admissible arrival-time-grid lower bound with at
// most maxCells cells per item and resets every cell to unfilled; lbCell
// computes values on demand.
func (s *Solver) buildBound(p Problem, maxCells int) {
	n := len(p.Items)
	// Size each item's grid: power-of-two cell widths so that indexing is a
	// shift, spanning [earliestArr[i], latestFinish[i-1]] (the latest
	// feasible arrival is bounded by the previous item's latest finish; for
	// item 0 the arrival is exactly Start).
	total := 0
	for i := 0; i <= n; i++ {
		s.lbOff[i] = total
		if i == n {
			break
		}
		span := int64(0)
		if i > 0 {
			span = int64(s.latestFinish[i-1].Sub(s.earliestArr[i]))
		}
		if span < 0 {
			span = 0
		}
		shift := uint(0)
		for span>>shift >= int64(maxCells) {
			shift++
		}
		s.lbShift[i] = shift
		total += int(span>>shift) + 1
	}
	s.lbOff[n] = total
	if cap(s.lbFlat) < total {
		s.lbFlat = make([]float64, 2*total)
	}
	unfilled := math.NaN()
	for k := range s.lbFlat[:total] {
		s.lbFlat[k] = unfilled
	}
}

// guidedInto walks the bound table greedily — at each item the feasible
// frontier choice minimizing its energy plus the next level's bound — and,
// when the walk completes with a better total than the incumbent, installs
// it into s.best. Returns the possibly improved incumbent energy.
func (s *Solver) guidedInto(p Problem, bestEnergy float64) float64 {
	n := len(p.Items)
	now := p.Start
	total := 0.0
	for i := range p.Items {
		fLo, fHi := s.frontOff[i], s.frontOff[i+1]
		if fLo == fHi {
			s.cur[i] = 0
			continue
		}
		bestF := -1
		bestV := math.MaxFloat64
		for f := fLo; f < fHi; f++ {
			ft := now.Add(s.frontLat[f])
			if ft.After(s.latestFinish[i]) {
				continue
			}
			v := s.frontEnergy[f]
			if i+1 < n {
				v += s.lbAt(i+1, ft)
			}
			if v < bestV {
				bestV, bestF = v, f
			}
		}
		if bestF == -1 {
			return bestEnergy // dead end (cannot happen after relaxation)
		}
		s.cur[i] = s.frontChoice[bestF]
		total += s.frontEnergy[bestF]
		now = now.Add(s.frontLat[bestF])
	}
	if total < bestEnergy {
		copy(s.best, s.cur)
		return total
	}
	return bestEnergy
}

// Solve computes a minimum-energy assignment subject to the chain deadline
// constraints. It always returns a complete assignment: when the original
// deadlines cannot all be met even at maximum performance, the deadlines are
// relaxed to the earliest achievable finish times (the infeasible events run
// as fast as possible) and Feasible is false. Whenever the search completes
// (Aborted() false — in practice every optimizer-shaped instance) the
// returned energy is the exact optimum; see the type comment for the
// choice vector. The returned Assignment's Choice and Finish slices alias
// the Solver's scratch and are valid only until the next call — callers
// that retain them must copy.
func (s *Solver) Solve(p Problem) Assignment {
	n := len(p.Items)
	if n == 0 {
		return Assignment{Feasible: true}
	}
	s.grow(n)
	feasible := s.prepare(p)
	s.flatten(p)
	bestEnergy := s.greedyInto(p)

	nodes := 0
	for attempt := 0; attempt < len(attemptCap); attempt++ {
		bound := attemptCells[attempt] > 0
		if bound {
			s.buildBound(p, attemptCells[attempt])
			bestEnergy = s.guidedInto(p, bestEnergy)
		}
		var complete bool
		complete, bestEnergy, nodes = s.search(p, bestEnergy, nodes, attemptCap[attempt], bound)
		if complete {
			break
		}
	}
	return s.materialize(p, feasible, nodes)
}

// Greedy returns the assignment of the deadline-aware greedy heuristic
// alone (see greedyInto). Solve seeds its incumbent with it, so Solve's
// energy is never worse; it is exported for tests and benchmarks. Like
// Solve's, the returned slices alias the Solver's scratch.
func (s *Solver) Greedy(p Problem) Assignment {
	if len(p.Items) == 0 {
		return Assignment{Feasible: true}
	}
	s.grow(len(p.Items))
	feasible := s.prepare(p)
	s.greedyInto(p)
	return s.materialize(p, feasible, 0)
}

// materialize derives the finish times (into s.finish) and the total energy
// of the assignment held in s.best.
func (s *Solver) materialize(p Problem, feasible bool, nodes int) Assignment {
	now := p.Start
	total := 0.0
	for i := range p.Items {
		if len(p.Items[i].Choices) > 0 {
			c := p.Items[i].Choices[s.best[i]]
			now = now.Add(c.Latency)
			total += c.Energy
		}
		s.finish[i] = now
	}
	return Assignment{
		Choice:      s.best,
		TotalEnergy: total,
		Feasible:    feasible,
		Finish:      s.finish,
		Nodes:       nodes,
	}
}

// search runs one iterative depth-first attempt of the pruned traversal,
// counting nodes as the reference does and optionally strengthened by the
// grid bound, stopping once nodes reaches cap. It returns whether the search ran to completion, the
// final incumbent energy, and the accumulated node count. Improvements found
// by an interrupted attempt are kept in s.best/bestEnergy.
func (s *Solver) search(p Problem, bestEnergy float64, nodes, cap int, bound bool) (bool, float64, int) {
	n := len(p.Items)
	i := 0
	s.nowAt[0] = p.Start
	s.enAt[0] = 0
	complete := true

enter:
	// Entering the search position at depth i with arrival state
	// (s.nowAt[i], s.enAt[i]) — the body of a recursive dfs.
	if nodes >= cap {
		complete = false
		goto done // interrupt the attempt, keep the best found so far
	}
	if i == n {
		if s.enAt[n] < bestEnergy {
			bestEnergy = s.enAt[n]
			copy(s.best, s.cur)
		}
		goto backtrack
	}
	if s.enAt[i]+s.sufEnergy[i] >= bestEnergy {
		goto backtrack
	}
	if s.frontOff[i] == s.frontOff[i+1] {
		// A degenerate item with no choices: zero-cost pass-through, marked
		// so backtracking skips it.
		s.cur[i] = 0
		s.pos[i] = -1
		s.nowAt[i+1] = s.nowAt[i]
		s.enAt[i+1] = s.enAt[i]
		i++
		goto enter
	}
	s.pos[i] = s.firstFeasible(s.frontOff[i], s.frontOff[i+1], s.latestFinish[i].Sub(s.nowAt[i]))

scan:
	// Scanning item i's frontier from s.pos[i]: the candidate loop of a
	// recursive dfs, resumed here after every child returns.
	for s.pos[i] < s.frontOff[i+1] {
		k := s.pos[i]
		en := s.frontEnergy[k]
		// The frontier ascends in energy, so once this candidate's energy
		// lower bound reaches the incumbent no later candidate can beat it
		// either: stop scanning. The skipped subtrees are exactly the ones
		// the bound check on entry would reject.
		if s.enAt[i]+en+s.sufEnergy[i+1] >= bestEnergy {
			break
		}
		ft := s.nowAt[i].Add(s.frontLat[k])
		if bound && i+1 < n && s.enAt[i]+en+s.lbAt(i+1, ft) >= bestEnergy {
			// The grid bound proves this subtree cannot improve the
			// incumbent. Not monotone along the frontier (later candidates
			// arrive earlier), so skip rather than break.
			s.pos[i] = k + 1
			continue
		}
		nodes++
		s.cur[i] = s.frontChoice[k]
		s.pos[i] = k + 1
		s.nowAt[i+1] = ft
		s.enAt[i+1] = s.enAt[i] + en
		i++
		goto enter
	}

backtrack:
	i--
	if i < 0 {
		goto done
	}
	if s.pos[i] == -1 {
		goto backtrack // pass-through item: keep unwinding
	}
	goto scan

done:
	return complete, bestEnergy, nodes
}
