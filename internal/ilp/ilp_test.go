package ilp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

// mkChoices builds a latency/energy trade-off ladder: faster costs more.
func mkChoices(lats []simtime.Duration, energyPerMs float64) []Choice {
	var out []Choice
	for _, l := range lats {
		// Energy grows super-linearly as latency shrinks.
		e := energyPerMs * 1000 / float64(l.Millis()+1)
		out = append(out, Choice{Latency: l, Energy: e})
	}
	return out
}

func TestEmptyProblem(t *testing.T) {
	a := NewSolver().Solve(Problem{})
	if !a.Feasible || a.TotalEnergy != 0 || len(a.Choice) != 0 {
		t.Errorf("empty problem: %+v", a)
	}
}

func TestSingleItemPicksCheapestFeasible(t *testing.T) {
	lats := []simtime.Duration{100 * simtime.Millisecond, 200 * simtime.Millisecond, 400 * simtime.Millisecond}
	p := Problem{
		Start: 0,
		Items: []Item{{Deadline: simtime.Time(250 * simtime.Millisecond), Choices: mkChoices(lats, 10)}},
	}
	a := NewSolver().Solve(p)
	if !a.Feasible {
		t.Fatal("should be feasible")
	}
	// The 400ms choice is cheapest but misses the deadline; 200ms is the
	// cheapest feasible one.
	if got := p.Items[0].Choices[a.Choice[0]].Latency; got != 200*simtime.Millisecond {
		t.Errorf("picked latency %v, want 200ms", got)
	}
}

func TestChainConstraintForcesEarlierSpeedup(t *testing.T) {
	// Two events: the second has a tight absolute deadline, so the first must
	// run faster than its own deadline alone would require — the essence of
	// the paper's cross-event coordination.
	slow := Choice{Latency: 300 * simtime.Millisecond, Energy: 1}
	fast := Choice{Latency: 100 * simtime.Millisecond, Energy: 5}
	p := Problem{
		Start: 0,
		Items: []Item{
			{Deadline: simtime.Time(400 * simtime.Millisecond), Choices: []Choice{slow, fast}},
			{Deadline: simtime.Time(250 * simtime.Millisecond), Choices: []Choice{slow, fast}},
		},
	}
	a := NewSolver().Solve(p)
	if !a.Feasible {
		t.Fatal("should be feasible: fast+fast finishes at 200ms")
	}
	if p.Items[0].Choices[a.Choice[0]].Latency != 100*simtime.Millisecond {
		t.Error("the first event must be sped up to protect the second event's deadline")
	}
}

func TestInfeasibleRelaxation(t *testing.T) {
	// Even the fastest choice misses the deadline (a Type I event): the
	// solver must still return an assignment, flag infeasibility, and run
	// the event as fast as necessary.
	p := Problem{
		Start: 0,
		Items: []Item{
			{Deadline: simtime.Time(50 * simtime.Millisecond), Choices: []Choice{
				{Latency: 200 * simtime.Millisecond, Energy: 1},
				{Latency: 120 * simtime.Millisecond, Energy: 3},
			}},
			{Deadline: simtime.Time(500 * simtime.Millisecond), Choices: []Choice{
				{Latency: 300 * simtime.Millisecond, Energy: 1},
				{Latency: 150 * simtime.Millisecond, Energy: 4},
			}},
		},
	}
	a := NewSolver().Solve(p)
	if a.Feasible {
		t.Error("problem should be reported infeasible")
	}
	if len(a.Choice) != 2 {
		t.Fatal("assignment must cover all items")
	}
	// The second event's deadline is still met.
	if a.Finish[1].After(simtime.Time(500 * simtime.Millisecond)) {
		t.Errorf("second event finishes at %v, past its deadline", a.Finish[1])
	}
}

func TestFinishTimesAndEnergyConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSolver()
	for trial := 0; trial < 50; trial++ {
		p := randomProblem(rng, 1+rng.Intn(8), 5)
		a := s.Solve(p)
		now := p.Start
		total := 0.0
		for i, it := range p.Items {
			c := it.Choices[a.Choice[i]]
			now = now.Add(c.Latency)
			total += c.Energy
			if a.Finish[i] != now {
				t.Fatalf("finish[%d] = %v, want %v", i, a.Finish[i], now)
			}
		}
		if diff := total - a.TotalEnergy; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("energy mismatch: %v vs %v", total, a.TotalEnergy)
		}
	}
}

func TestSolverMatchesBruteForceOnSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSolver()
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng, 1+rng.Intn(4), 4)
		got := s.Solve(p)
		want, feasible := bruteForce(p)
		if feasible != got.Feasible {
			t.Fatalf("trial %d: feasibility mismatch (brute=%v solver=%v)", trial, feasible, got.Feasible)
		}
		if feasible && got.TotalEnergy > want+1e-9 {
			t.Fatalf("trial %d: solver energy %v worse than optimum %v", trial, got.TotalEnergy, want)
		}
	}
}

// bruteForce enumerates all assignments and returns the optimal feasible
// energy (respecting original deadlines) and whether any feasible assignment
// exists.
func bruteForce(p Problem) (float64, bool) {
	n := len(p.Items)
	best := -1.0
	var rec func(i int, now simtime.Time, energy float64)
	rec = func(i int, now simtime.Time, energy float64) {
		if i == n {
			if best < 0 || energy < best {
				best = energy
			}
			return
		}
		for _, c := range p.Items[i].Choices {
			finish := now.Add(c.Latency)
			if finish.After(p.Items[i].Deadline) {
				continue
			}
			rec(i+1, finish, energy+c.Energy)
		}
	}
	rec(0, p.Start, 0)
	return best, best >= 0
}

func randomProblem(rng *rand.Rand, items, choices int) Problem {
	p := Problem{Start: simtime.Time(rng.Intn(1000))}
	now := p.Start
	for i := 0; i < items; i++ {
		var cs []Choice
		for j := 0; j < choices; j++ {
			lat := simtime.Duration(10+rng.Intn(300)) * simtime.Millisecond
			cs = append(cs, Choice{Latency: lat, Energy: float64(1+rng.Intn(100)) / 10})
		}
		// Deadline somewhere around the cumulative mid-range latency.
		slack := simtime.Duration(rng.Intn(400)) * simtime.Millisecond
		now = now.Add(150 * simtime.Millisecond)
		p.Items = append(p.Items, Item{Deadline: now.Add(slack), Choices: cs})
	}
	return p
}

// Property: the solver's assignment always meets the relaxed deadlines, i.e.
// every finish time is at most max(original deadline, earliest achievable).
func TestDeadlineProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 1+rng.Intn(6), 3)
		a := NewSolver().Solve(p)
		// Earliest achievable prefix finishes.
		now := p.Start
		for i, it := range p.Items {
			min := it.Choices[0].Latency
			for _, c := range it.Choices {
				if c.Latency < min {
					min = c.Latency
				}
			}
			now = now.Add(min)
			limit := p.Items[i].Deadline
			if now.After(limit) {
				limit = now
			}
			if a.Finish[i].After(limit) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestItemWithNoChoices(t *testing.T) {
	p := Problem{Items: []Item{{Deadline: simtime.Time(simtime.Second)}}}
	a := NewSolver().Solve(p)
	if len(a.Choice) != 1 || a.TotalEnergy != 0 {
		t.Errorf("no-choice item mishandled: %+v", a)
	}
}
