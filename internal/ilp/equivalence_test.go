package ilp

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/simtime"
)

// ladderProblem builds a problem shaped like the real optimizer instances:
// each item's choices form a DVFS-style ladder where higher operating points
// are strictly faster and draw superlinearly more power, with a small random
// perturbation so the energy/latency frontier is non-trivial (some mid
// points are dominated).
func ladderProblem(rng *rand.Rand, items, choices int) Problem {
	p := Problem{Start: simtime.Time(rng.Intn(1000))}
	now := p.Start
	for i := 0; i < items; i++ {
		work := float64(5+rng.Intn(300)) * 1000 // µs of work at the slowest point
		var cs []Choice
		for j := 0; j < choices; j++ {
			speed := 1 + float64(j)*0.45
			lat := simtime.Duration(work / speed)
			power := (0.4 + 0.6*speed*speed) * (0.8 + 0.4*rng.Float64())
			cs = append(cs, Choice{Latency: lat, Energy: power * float64(lat) / 1000})
		}
		slack := simtime.Duration(rng.Intn(500)) * simtime.Millisecond
		now = now.Add(simtime.Duration(work * 0.6))
		p.Items = append(p.Items, Item{Deadline: now.Add(slack), Choices: cs})
	}
	return p
}

// problems yields a mixed bag of random and ladder-shaped instances.
func problems(rng *rand.Rand, trial, maxItems, maxChoices int) Problem {
	if trial%2 == 0 {
		return randomProblem(rng, 1+rng.Intn(maxItems), 1+rng.Intn(maxChoices))
	}
	return ladderProblem(rng, 1+rng.Intn(maxItems), 1+rng.Intn(maxChoices))
}

// TestSolveEquivalentToReference is the core equivalence property of the
// solver. On random, ladder-shaped and chainProblem instances (the optimizer's
// distribution, including the Oracle's 12-item windows) the pruned search
// must return exactly the assignment of the pre-overhaul reference solver —
// same choice indices (not just equal energy), same feasibility verdict,
// same finish times — while exploring no more nodes. Where an item has two
// exactly equal energies, or the search escalates past its pure first
// attempt, the two may legitimately return different optima (the reference
// orders ties with sort.Slice), so only the verdict and the optimal energy
// must agree. The solver must never exhaust its budget on a chainProblem
// instance.
func TestSolveEquivalentToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pts := chainPoints()
	s := NewSolver()
	exact := 0
	for trial := 0; trial < 600; trial++ {
		chain := trial%3 == 2
		var p Problem
		if chain {
			p = chainProblem(rng, pts, 1+rng.Intn(12))
		} else {
			p = problems(rng, trial, 12, 17)
		}
		got := s.Solve(p)
		want := SolveReference(p)
		if chain && got.Aborted() {
			t.Fatalf("trial %d: solver exhausted its node budget on a production-shaped window", trial)
		}
		if got.Aborted() || want.Aborted() {
			// An exhausted search budget returns the best incumbent found
			// along the traversal, which legitimately differs between the
			// two traversals; both must still be at least as good as the
			// shared greedy seed.
			if gr := s.greedy(p); got.TotalEnergy > gr.TotalEnergy+1e-9 || want.TotalEnergy > gr.TotalEnergy+1e-9 {
				t.Fatalf("trial %d: aborted search returned worse than its greedy seed", trial)
			}
			continue
		}
		if diff := got.TotalEnergy - want.TotalEnergy; diff > 1e-9 || diff < -1e-9 || got.Feasible != want.Feasible {
			t.Fatalf("trial %d: optima diverge: solver E=%v feasible=%v, reference E=%v feasible=%v",
				trial, got.TotalEnergy, got.Feasible, want.TotalEnergy, want.Feasible)
		}
		if hasEnergyTies(p) || got.Nodes >= fastAttempt0Cap {
			continue
		}
		exact++
		if !reflect.DeepEqual(got.Choice, want.Choice) || !reflect.DeepEqual(got.Finish, want.Finish) {
			t.Fatalf("trial %d: choices diverge\n got %v (E=%v)\nwant %v (E=%v)\nproblem: %+v",
				trial, got.Choice, got.TotalEnergy, want.Choice, want.TotalEnergy, p)
		}
		if got.Nodes > want.Nodes {
			t.Fatalf("trial %d: solver explored %d nodes, reference only %d", trial, got.Nodes, want.Nodes)
		}
	}
	if exact < 300 {
		t.Fatalf("only %d exact-match trials; the property went under-exercised", exact)
	}
}

// TestSolveNeverWorseThanGreedy: the branch-and-bound energy is at most the
// greedy heuristic's energy, with every QoS deadline respected whenever the
// greedy respects it (both operate on the same relaxed deadlines).
func TestSolveNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := NewSolver()
	for trial := 0; trial < 300; trial++ {
		p := problems(rng, trial, 10, 12)
		gr := s.greedy(p) // only its scalar fields are read after the next call
		bb := s.Solve(p)
		if bb.TotalEnergy > gr.TotalEnergy+1e-9 {
			t.Fatalf("trial %d: branch-and-bound energy %v exceeds greedy energy %v",
				trial, bb.TotalEnergy, gr.TotalEnergy)
		}
		if bb.Feasible != gr.Feasible {
			t.Fatalf("trial %d: feasibility verdicts diverge (bb=%v greedy=%v)", trial, bb.Feasible, gr.Feasible)
		}
		if bb.Feasible {
			for i := range p.Items {
				if bb.Finish[i].After(p.Items[i].Deadline) {
					t.Fatalf("trial %d: item %d finishes at %v past its deadline %v",
						trial, i, bb.Finish[i], p.Items[i].Deadline)
				}
			}
		}
	}
}

// exhaustiveMin enumerates every assignment against the relaxed deadlines
// and returns the minimum total energy. Only tractable for tiny instances.
func exhaustiveMin(p Problem) float64 {
	n := len(p.Items)
	var relaxed Solver
	relaxed.grow(n)
	relaxed.prepare(p)
	best := -1.0
	var rec func(i int, now simtime.Time, energy float64)
	rec = func(i int, now simtime.Time, energy float64) {
		if i == n {
			if best < 0 || energy < best {
				best = energy
			}
			return
		}
		if len(p.Items[i].Choices) == 0 {
			rec(i+1, now, energy)
			return
		}
		for _, c := range p.Items[i].Choices {
			finish := now.Add(c.Latency)
			if finish.After(relaxed.deadlines[i]) {
				continue
			}
			rec(i+1, finish, energy+c.Energy)
		}
	}
	rec(0, p.Start, 0)
	return best
}

// TestSolveOptimalOnSmallInstances cross-checks the solver against
// exhaustive enumeration for N <= 6 events: the branch-and-bound must attain
// the true minimum energy over the relaxed deadlines exactly.
func TestSolveOptimalOnSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	s := NewSolver()
	for trial := 0; trial < 300; trial++ {
		p := problems(rng, trial, 6, 8)
		got := s.Solve(p)
		want := exhaustiveMin(p)
		if want < 0 {
			t.Fatalf("trial %d: relaxation left no feasible assignment", trial)
		}
		if diff := got.TotalEnergy - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: solver energy %v, exhaustive optimum %v", trial, got.TotalEnergy, want)
		}
	}
}

// TestSolveReferenceOrderBitIdentical: the Oracle's budget-pinned solver
// must reproduce SolveReference bit for bit on every instance — including
// ones that exhaust the node budget, where the result is an artifact of the
// traversal — and with the identical node count.
func TestSolveReferenceOrderBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	s := NewSolver()
	aborted := 0
	for trial := 0; trial < 200; trial++ {
		p := problems(rng, trial, 14, 17)
		got := s.SolveReferenceOrder(p)
		want := SolveReference(p)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: reference-order solver diverged\n got %+v\nwant %+v", trial, got, want)
		}
		if got.Nodes >= maxNodes {
			aborted++
		}
	}
	if aborted == 0 {
		t.Log("no trial exhausted the node budget; the abort path went unexercised")
	}
}
