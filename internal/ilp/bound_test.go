package ilp

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/acmp"
	"repro/internal/render"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// TestBoundTableAdmissible is the property the escalated attempts rest on:
// every cell of the grid-bound table is at most the exact minimum suffix
// energy of every arrival time the cell covers, and every row is
// nondecreasing (which is what makes clamping a lookup into the next row
// admissible). The suffix energy is nondecreasing in the arrival time, so
// the exact minimum is taken at the earliest arrival the cell covers — its
// left edge, or the row's earliest arrival for a first cell whose edge
// precedes it — by SolveReference on the suffix sub-problem under the
// window's relaxed deadlines. The windows are random chainProblem shapes, both
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

// buildBoundPerChoice is the reference for buildBound's folded fill: every
// frontier choice is one vector min over all the cells it fits, with no
// grouping. It refills s.lbFlat on the layout (lbShift, lbLo, lbOff) of the
// preceding buildBound call.
func (s *Solver) buildBoundPerChoice(n int) {
	shift := s.lbShift
	var next []float64
	for i := n - 1; i >= 1; i-- {
		row := s.lbFlat[s.lbOff[i]:s.lbOff[i+1]]
		lo := s.lbLo[i]
		fLo, fHi := s.frontOff[i], s.frontOff[i+1]
		if fLo == fHi {
			if next == nil {
				clear(row)
			} else {
				copy(row, next)
			}
			next = row
			continue
		}
		for k := range row {
			row[k] = math.MaxFloat64
		}
		for f := fLo; f < fHi; f++ {
			last := int((int64(s.latestFinish[i])-int64(s.frontLat[f]))>>shift - lo)
			if last < 0 {
				continue
			}
			dst := row[:min(last+1, len(row))]
			e := s.frontEnergy[f]
			if next == nil {
				for k := range dst {
					if e < dst[k] {
						dst[k] = e
					}
				}
				continue
			}
			d := int(lo + int64(s.frontLat[f])>>shift - s.lbLo[i+1])
			for len(dst) > 0 && d < 0 {
				dst[0] = min(dst[0], e+next[0])
				dst, d = dst[1:], d+1
			}
			src := next[d : d+len(dst)]
			for k, v := range src {
				if v += e; v < dst[k] {
					dst[k] = v
				}
			}
		}
		next = row
	}
}

// traceWindows returns Oracle-shaped windows built from real traces: for
// each app of the registry, every eighth 12-event window of its trace on
// seed 100000, started at its first event's trigger, with one
// choice per platform configuration at the event's true workload and the
// deadline the Oracle gives it.
func traceWindows(t *testing.T) []Problem {
	t.Helper()
	p := acmp.Exynos5410()
	configs := p.Configs()
	var out []Problem
	for _, spec := range webapp.Registry() {
		evs := trace.Generate(spec, 100_000, trace.Options{}).Events
		for k := 0; k+12 <= len(evs); k += 8 {
			w := Problem{Start: evs[k].Trigger}
			for _, ev := range evs[k : k+12] {
				cs := make([]Choice, len(configs))
				for j, cfg := range configs {
					lat := p.Latency(ev.Work, cfg)
					cs[j] = Choice{Latency: lat, Energy: acmp.EnergyMJ(p.Power(cfg), lat)}
				}
				w.Items = append(w.Items, Item{Deadline: ev.Deadline().Add(-render.DisplayMargin), Choices: cs})
			}
			out = append(out, w)
		}
	}
	return out
}

// TestBoundBuildFoldMatchesPerChoice: folding the frontier choices that
// share one cell offset into one pass per group must leave every cell of
// the bound table bit-identical to the per-choice build, at a coarse
// resolution and at both escalation resolutions, on chainProblem windows (every
// third with a zero-choice pass-through item) and on windows built from
// real traces.
func TestBoundBuildFoldMatchesPerChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	pts := chainPoints()
	var windows []Problem
	for trial := 0; trial < 60; trial++ {
		p := chainProblem(rng, pts, 2+rng.Intn(11))
		if trial%3 == 1 {
			p.Items[1+rng.Intn(len(p.Items)-1)].Choices = nil
		}
		windows = append(windows, p)
	}
	chain := len(windows)
	windows = append(windows, traceWindows(t)...)
	var s Solver
	var folded []float64
	grouped := 0
	for w, p := range windows {
		n := len(p.Items)
		s.grow(n)
		s.prepare(p)
		s.flatten(p)
		for _, maxCells := range []int{16, attemptCells[1], attemptCells[2]} {
			total := s.buildBound(p, maxCells)
			folded = append(folded[:0], s.lbFlat[:total]...)
			s.buildBoundPerChoice(n)
			for c, v := range folded {
				if math.Float64bits(v) != math.Float64bits(s.lbFlat[c]) {
					t.Fatalf("window %d (chainProblem: %v), %d cells: cell %d folded %v, per choice %v",
						w, w < chain, maxCells, c, v, s.lbFlat[c])
				}
			}
			for i := 1; i < n-1; i++ {
				for f := s.frontOff[i] + 1; f < s.frontOff[i+1]; f++ {
					if s.frontLat[f]>>s.lbShift == s.frontLat[f-1]>>s.lbShift {
						grouped++
					}
				}
			}
		}
	}
	if chain == len(windows) || grouped == 0 {
		t.Fatalf("coverage: %d trace windows, %d choices folded into a group", len(windows)-chain, grouped)
	}
}

// TestSuffixBoundTrimmed checks the deadline-aware static suffix bound on
// random, ladder-shaped and chainProblem windows, some with a zero-choice
// pass-through item: each item's flattened frontier must equal its full
// Pareto frontier minus the prefix that cannot fit even at the item's
// earliest arrival, and sufEnergy[i] must lie between prepare's
// deadline-ignoring bound and the exact minimum energy of the suffix from
// earliestArr[i] under the window's relaxed deadlines.
func TestSuffixBoundTrimmed(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	pts := chainPoints()
	var s Solver
	trimmed, tighter, checked := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		var p Problem
		if trial%3 == 2 {
			p = chainProblem(rng, pts, 1+rng.Intn(8))
		} else {
			p = problems(rng, trial, 7, 10)
		}
		if n := len(p.Items); trial%5 == 1 && n > 1 {
			p.Items[1+rng.Intn(n-1)].Choices = nil
		}
		n := len(p.Items)
		s.grow(n)
		s.prepare(p)
		loose := append([]float64(nil), s.sufEnergy...)
		s.flatten(p)
		s.trimmedSuffix(n)
		for i, it := range p.Items {
			fit := s.latestFinish[i].Sub(s.earliestArr[i])
			full := fullFrontier(it.Choices)
			k := 0
			for k < len(full) && it.Choices[full[k]].Latency > fit {
				k++
			}
			trimmed += k
			want := full[k:]
			got := s.frontChoice[s.frontOff[i]:s.frontOff[i+1]]
			if len(got) != len(want) {
				t.Fatalf("trial %d item %d: frontier %v, want %v (full %v, fit %v)", trial, i, got, want, full, fit)
			}
			for f, j := range want {
				c := it.Choices[j]
				if got[f] != j || s.frontLat[s.frontOff[i]+f] != c.Latency || s.frontEnergy[s.frontOff[i]+f] != c.Energy {
					t.Fatalf("trial %d item %d: frontier %v, want %v", trial, i, got, want)
				}
			}
		}
		for i := 0; i < n; i++ {
			if s.sufEnergy[i] < loose[i] {
				t.Fatalf("trial %d: sufEnergy[%d] = %v is looser than prepare's %v", trial, i, s.sufEnergy[i], loose[i])
			}
			if s.sufEnergy[i] > loose[i] {
				tighter++
			}
			exact, ok := suffixMin(p, s.deadlines, i, s.earliestArr[i])
			if !ok {
				continue // the reference exhausted its budget
			}
			checked++
			if s.sufEnergy[i] > exact*(1+1e-12) {
				t.Fatalf("trial %d: sufEnergy[%d] = %v exceeds the exact suffix minimum %v", trial, i, s.sufEnergy[i], exact)
			}
		}
	}
	if trimmed == 0 || tighter == 0 || checked < 1000 {
		t.Fatalf("coverage: %d choices trimmed, %d bounds tightened, %d checked", trimmed, tighter, checked)
	}
}

// fullFrontier is the untrimmed Pareto frontier of one item's choices, in
// the solver's candidate order: indices stably sorted by ascending energy,
// each kept only if strictly faster than every cheaper one.
func fullFrontier(cs []Choice) []int {
	order := make([]int, len(cs))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return cs[order[a]].Energy < cs[order[b]].Energy })
	var out []int
	for _, j := range order {
		if len(out) == 0 || cs[j].Latency < cs[out[len(out)-1]].Latency {
			out = append(out, j)
		}
	}
	return out
}
