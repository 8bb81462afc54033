package ilp

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/simtime"
)

// chainPoint mirrors chaingen.Point (chaingen imports this package, so the
// in-package tests re-state the 17-point ladder instead of importing it).
type chainPoint struct {
	effMHz  float64
	powerMW float64
}

func chainPoints() []chainPoint {
	var pts []chainPoint
	for f := 350.0; f <= 600; f += 50 {
		pts = append(pts, chainPoint{effMHz: f / 1.9, powerMW: 85 + 0.52*(f-350)})
	}
	for f := 800.0; f <= 1800; f += 100 {
		pts = append(pts, chainPoint{effMHz: f, powerMW: 180 + f*f*0.00102})
	}
	return pts
}

// chainProblem mirrors chaingen.Problem: the optimizer-shaped distribution
// shared with cmd/pes-bench, including the hard 12-item Oracle windows.
func chainProblem(rng *rand.Rand, pts []chainPoint, items int) Problem {
	p := Problem{Start: simtime.Time(rng.Intn(1000))}
	now := p.Start
	for i := 0; i < items; i++ {
		var tmemMS, mcycles, qosMS float64
		switch rng.Intn(6) {
		case 0:
			tmemMS, mcycles, qosMS = 3, 18, 33 // move
		case 1:
			tmemMS, mcycles, qosMS = 380, 4400, 3000 // load
		default:
			tmemMS, mcycles, qosMS = 26, 520, 300 // tap
		}
		scale := 0.5 + rng.Float64()
		var cs []Choice
		for _, pt := range pts {
			lat := simtime.Duration(scale * (tmemMS*1000 + mcycles*1e6/pt.effMHz))
			cs = append(cs, Choice{Latency: lat, Energy: pt.powerMW * lat.Seconds()})
		}
		trigger := now
		now = now.Add(simtime.Duration(qosMS * (0.4 + 1.2*rng.Float64()) * 1000))
		p.Items = append(p.Items, Item{
			Deadline: trigger.Add(simtime.Duration(qosMS * 1000)),
			Choices:  cs,
		})
	}
	return p
}

// hasEnergyTies reports whether any item carries two choices with exactly
// equal energy — the one case where the reference's sort.Slice ordering and
// the solver's stable insertion sort may legitimately order candidates
// differently.
func hasEnergyTies(p Problem) bool {
	for _, it := range p.Items {
		for a := range it.Choices {
			for b := a + 1; b < len(it.Choices); b++ {
				if it.Choices[a].Energy == it.Choices[b].Energy {
					return true
				}
			}
		}
	}
	return false
}

// cloneAssignment copies an Assignment out of the solver's scratch so it
// survives the next call.
func cloneAssignment(a Assignment) Assignment {
	a.Choice = append([]int(nil), a.Choice...)
	a.Finish = append([]simtime.Time(nil), a.Finish...)
	return a
}

// fastAttempt0Cap is the node cap of the solver's pure-search attempt: below
// it the traversal is the plain pruned search, whose answer is the
// reference's on tie-free instances.
const fastAttempt0Cap = 10000

// energyEqual reports whether two solution energies agree to 1e-9.
func energyEqual(a, b float64) bool {
	diff := a - b
	return diff <= 1e-9 && diff >= -1e-9
}

// TestFastSolverMatchesSolve checks the solver on random and ladder-shaped
// instances against SolveReference. Where the solver completes within its
// pure first attempt and the instance has no equal-energy choices, so the
// candidate order is determined, the choices, feasibility verdict, finish
// times and energy must be bit-identical, with no more nodes explored. On
// the other instances the optimum energy must agree whenever both complete.
func TestFastSolverMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := NewSolver()
	bitIdentical := 0
	for trial := 0; trial < 400; trial++ {
		p := problems(rng, trial, 12, 17)
		got := cloneAssignment(s.Solve(p))
		want := SolveReference(p)
		if hasEnergyTies(p) || got.Nodes >= fastAttempt0Cap {
			if got.Aborted() || want.Aborted() {
				continue
			}
			if !energyEqual(got.TotalEnergy, want.TotalEnergy) {
				t.Fatalf("trial %d: optimal energies diverge: solver=%v reference=%v", trial, got.TotalEnergy, want.TotalEnergy)
			}
			continue
		}
		if want.Aborted() {
			continue // a truncated reference incumbent is a traversal artifact
		}
		bitIdentical++
		if !reflect.DeepEqual(got.Choice, want.Choice) || !reflect.DeepEqual(got.Finish, want.Finish) ||
			got.Feasible != want.Feasible || got.TotalEnergy != want.TotalEnergy {
			t.Fatalf("trial %d: solver diverged\n got %+v\nwant %+v\nproblem: %+v", trial, got, want, p)
		}
		if got.Nodes > want.Nodes {
			t.Fatalf("trial %d: solver explored %d nodes, reference only %d", trial, got.Nodes, want.Nodes)
		}
	}
	if bitIdentical < 100 {
		t.Fatalf("only %d bit-identity trials; the property went under-exercised", bitIdentical)
	}
}

// TestFastSolverMatchesSolveOnChaingen pins the solver on the
// optimizer-shaped distribution shared with cmd/pes-bench, including the
// 12-item windows of the Oracle. The solver must never exhaust its node
// budget on this distribution (the bench's budget_aborts == 0 gate in
// miniature). It must agree with SolveReference bit for bit on the easy
// instances, and on the optimum energy everywhere the reference completes.
func TestFastSolverMatchesSolveOnChaingen(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := chainPoints()
	s := NewSolver()
	escalated := 0
	for trial := 0; trial < 200; trial++ {
		p := chainProblem(rng, pts, 1+rng.Intn(12))
		got := cloneAssignment(s.Solve(p))
		want := SolveReference(p)
		if got.Aborted() {
			t.Fatalf("trial %d: solver exhausted its node budget on a production-shaped window", trial)
		}
		if want.Aborted() {
			if got.TotalEnergy > want.TotalEnergy+1e-9 {
				t.Fatalf("trial %d: solver optimum %v worse than truncated reference incumbent %v", trial, got.TotalEnergy, want.TotalEnergy)
			}
			continue
		}
		if !energyEqual(got.TotalEnergy, want.TotalEnergy) || got.Feasible != want.Feasible {
			t.Fatalf("trial %d: optima diverge: solver E=%v feasible=%v, reference E=%v feasible=%v",
				trial, got.TotalEnergy, got.Feasible, want.TotalEnergy, want.Feasible)
		}
		if got.Nodes >= fastAttempt0Cap {
			escalated++
			continue
		}
		if !hasEnergyTies(p) && (!reflect.DeepEqual(got.Choice, want.Choice) || !reflect.DeepEqual(got.Finish, want.Finish)) {
			t.Fatalf("trial %d: solver diverged on chaingen instance\n got %+v\nwant %+v", trial, got, want)
		}
	}
	if escalated == 0 {
		t.Log("no trial escalated past the pure attempt; the grid-bound path went unexercised")
	}
}

// TestFastSolverOptimalOnSmallInstances cross-checks the solver against
// exhaustive enumeration for N <= 6 windows: it must attain the true minimum
// energy over the relaxed deadlines exactly.
func TestFastSolverOptimalOnSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	s := NewSolver()
	for trial := 0; trial < 300; trial++ {
		p := problems(rng, trial, 6, 8)
		got := s.Solve(p)
		want := exhaustiveMin(p)
		if want < 0 {
			t.Fatalf("trial %d: relaxation left no feasible assignment", trial)
		}
		if !energyEqual(got.TotalEnergy, want) {
			t.Fatalf("trial %d: solver energy %v, exhaustive optimum %v", trial, got.TotalEnergy, want)
		}
	}
}

// TestFastSolverDominatesReferenceOrder is the v2-vs-v1 energy property: the
// budget-truncated reference-order traversal (Oracle v1) can return a
// traversal artifact, so the fast solver's energy must never exceed it on
// any instance — and when v1 did not abort, both are proven optima, so the
// energies must agree exactly. On the production-shaped 12-item windows the
// fast solver must additionally always complete.
func TestFastSolverDominatesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pts := chainPoints()
	s := NewSolver()
	v1Aborted := 0
	for trial := 0; trial < 300; trial++ {
		var p Problem
		chain := trial%2 == 0
		if chain {
			p = chainProblem(rng, pts, 1+rng.Intn(12))
		} else {
			p = problems(rng, trial, 14, 17)
		}
		v2 := cloneAssignment(s.Solve(p))
		v1 := s.SolveReferenceOrder(p)
		if v2.Aborted() {
			if chain {
				t.Fatalf("trial %d: fast solver exhausted its budget on a production-shaped window", trial)
			}
			continue // a truncated v2 incumbent carries no dominance guarantee
		}
		if v2.TotalEnergy > v1.TotalEnergy+1e-9 {
			t.Fatalf("trial %d: v2 energy %v exceeds v1 energy %v", trial, v2.TotalEnergy, v1.TotalEnergy)
		}
		if v1.Aborted() {
			v1Aborted++
		} else if diff := v2.TotalEnergy - v1.TotalEnergy; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: both proven optimal yet energies diverge: v2=%v v1=%v", trial, v2.TotalEnergy, v1.TotalEnergy)
		}
	}
	if v1Aborted == 0 {
		t.Log("no trial exhausted v1's node budget; the dominance property went unexercised on aborts")
	}
}

// TestFastSolverZeroAlloc gates the tentpole's zero-alloc property: once the
// scratch buffers have grown to the instance size — grid-bound tables
// included — a solve allocates nothing.
func TestFastSolverZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	pts := chainPoints()
	probs := make([]Problem, 16)
	for i := range probs {
		probs[i] = chainProblem(rng, pts, 12)
	}
	s := NewSolver()
	escalated := false
	for _, p := range probs {
		if a := s.Solve(p); a.Nodes >= fastAttempt0Cap {
			escalated = true
		}
	}
	if !escalated {
		t.Log("warmup never escalated to the grid-bound path; its buffers went unexercised")
	}
	i := 0
	allocs := testing.AllocsPerRun(len(probs)*4, func() {
		s.Solve(probs[i%len(probs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("fast solver allocates %.1f objects per solve, want 0", allocs)
	}
}

// TestFastSolverReusedAcrossSizes exercises the buffer-growth path: a Solver
// reused while instance sizes shrink and grow must return exactly what a
// fresh Solver returns, node count included, from every entry point.
func TestFastSolverReusedAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pts := chainPoints()
	s := NewSolver()
	for _, n := range []int{12, 1, 7, 2, 14, 3, 12} {
		p := chainProblem(rng, pts, n)
		if got, want := s.Solve(p), NewSolver().Solve(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: reused solver diverged after size change\n got %+v\nwant %+v", n, got, want)
		}
		if got, want := s.Greedy(p), NewSolver().Greedy(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: reused greedy diverged after size change\n got %+v\nwant %+v", n, got, want)
		}
		if got, want := s.SolveReferenceOrder(p), NewSolver().SolveReferenceOrder(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: reused reference order diverged after size change\n got %+v\nwant %+v", n, got, want)
		}
	}
}

// TestFastSolverEmptyAndDegenerate covers the trivial shapes.
func TestFastSolverEmptyAndDegenerate(t *testing.T) {
	s := NewSolver()
	if a := s.Solve(Problem{}); !a.Feasible || a.TotalEnergy != 0 || len(a.Choice) != 0 {
		t.Errorf("empty problem: %+v", a)
	}
	p := Problem{Items: []Item{{Deadline: simtime.Time(simtime.Second)}}}
	if a := s.Solve(p); len(a.Choice) != 1 || a.TotalEnergy != 0 {
		t.Errorf("no-choice item mishandled: %+v", a)
	}
	// A no-choice item sandwiched between real ones exercises the iterative
	// pass-through/backtrack marking (and the bound's pass-through rows via
	// an artificially hard sibling below).
	rng := rand.New(rand.NewSource(53))
	q := randomProblem(rng, 3, 4)
	q.Items[1].Choices = nil
	got := s.Solve(q)
	want := SolveReference(q)
	if hasEnergyTies(q) {
		if diff := got.TotalEnergy - want.TotalEnergy; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("sandwiched no-choice item: energies diverge: %+v vs %+v", got, want)
		}
	} else if !reflect.DeepEqual(got.Choice, want.Choice) || !reflect.DeepEqual(got.Finish, want.Finish) {
		t.Fatalf("sandwiched no-choice item diverged:\n got %+v\nwant %+v", got, want)
	}
	// Degenerate item inside a hard window: force escalation so the bound's
	// pass-through rows are exercised too.
	pts := chainPoints()
	h := chainProblem(rng, pts, 12)
	h.Items[5].Choices = nil
	gotH := s.Solve(h)
	wantH := SolveReference(h)
	if !gotH.Aborted() && !wantH.Aborted() {
		if diff := gotH.TotalEnergy - wantH.TotalEnergy; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("degenerate item in hard window: energies diverge: %v vs %v", gotH.TotalEnergy, wantH.TotalEnergy)
		}
	}
}
