package engine

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/acmp"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// oracleGolden pins the Oracle's per-version behaviour on the golden
// sessions. The v1 rows are the paper-exact baseline: energies must match
// the pre-refactor driver fingerprints (the `golden` table) and the solver
// counters — node counts included — must never drift, because v1's hardest
// 12-event windows exhaust the search budget and its figures are therefore
// artifacts of the exact traversal, not just of the optimum. The v2 rows pin
// the fast path: the same windows solved to proven optimality within a small
// node count and zero budget aborts, and the session's total energy (exact
// bits) and violation count. The v2 optima are proven, so only a change of
// tie representative between equal-energy window plans may move them.
var oracleGolden = []struct {
	tag          string
	app          string
	seed         int64
	v1Solves     int
	v1Nodes      int64
	v1Aborts     int
	v2Solves     int
	v2Nodes      int64
	v2MaxNodes   int64 // tightened drift alarm on top of the exact pin
	v1TotalMJ    float64
	v2TotalBits  uint64 // math.Float64bits of the v2 TotalEnergyMJ
	v2Violations int
}{
	{tag: "cnn/11", app: "cnn", seed: 11, v1Solves: 5, v1Nodes: 408721, v1Aborts: 1,
		v2Solves: 5, v2Nodes: 10514, v2MaxNodes: 50000, v1TotalMJ: 21553.69738,
		v2TotalBits: 0x40d50c6ca1eedbce, v2Violations: 0},
	{tag: "ebay/5", app: "ebay", seed: 5, v1Solves: 5, v1Nodes: 18462, v1Aborts: 0,
		v2Solves: 5, v2Nodes: 1091, v2MaxNodes: 50000, v1TotalMJ: 25010.48101,
		v2TotalBits: 0x40d86c9ec8ecd8a7, v2Violations: 1},
	{tag: "espn/9", app: "espn", seed: 9, v1Solves: 3, v1Nodes: 119, v1Aborts: 0,
		v2Solves: 3, v2Nodes: 5, v2MaxNodes: 50000, v1TotalMJ: 17337.69909,
		v2TotalBits: 0x40d0ee6cbddb8946, v2Violations: 0},
}

// TestOracleV1FiguresPinned replays the golden sessions under both oracle
// versions. v1 must stay bit-identical to the paper-exact baseline —
// energies and solver counters — no matter how v2 evolves; v2 must complete
// every solve within budget, reproduce its pinned energy and violations,
// and never exceed v1's energy. The v1 counters are also the provenance of
// the committed BENCH_pr4.json: its Oracle sessions were measured on the v1
// traversal, so they must equal the v1 rows here.
func TestOracleV1FiguresPinned(t *testing.T) {
	checkBenchPR4OracleCounters(t)
	p := acmp.Exynos5410()
	for _, g := range oracleGolden {
		spec, err := webapp.ByName(g.app)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.Generate(spec, g.seed, trace.Options{})
		evs := tr.Events

		r1 := RunProactive(p, g.app, evs, sched.NewOracleWithVersion(p, evs, sched.OracleV1))
		if !approxEq(r1.TotalEnergyMJ, g.v1TotalMJ) {
			t.Errorf("%s v1: TotalEnergyMJ = %.10g, want %.10g", g.tag, r1.TotalEnergyMJ, g.v1TotalMJ)
		}
		s1 := r1.Solver
		if s1.Solves != g.v1Solves || s1.Nodes != g.v1Nodes || s1.BudgetAborts != g.v1Aborts {
			t.Errorf("%s v1: solver counters drifted: solves=%d nodes=%d aborts=%d, want %d/%d/%d",
				g.tag, s1.Solves, s1.Nodes, s1.BudgetAborts, g.v1Solves, g.v1Nodes, g.v1Aborts)
		}
		if s1.PlanCacheHits != 0 {
			// Real session horizons never repeat (start times advance), so a
			// hit here would mean the v1 figures changed provenance.
			t.Errorf("%s v1: unexpected plan cache hits: %d", g.tag, s1.PlanCacheHits)
		}

		r2 := RunProactive(p, g.app, evs, sched.NewOracleWithVersion(p, evs, sched.OracleV2))
		s2 := r2.Solver
		if s2.BudgetAborts != 0 {
			t.Errorf("%s v2: %d budget aborts, want 0", g.tag, s2.BudgetAborts)
		}
		if s2.Solves != g.v2Solves || s2.Nodes != g.v2Nodes {
			t.Errorf("%s v2: solver counters drifted: solves=%d nodes=%d, want %d/%d",
				g.tag, s2.Solves, s2.Nodes, g.v2Solves, g.v2Nodes)
		}
		if got := math.Float64bits(r2.TotalEnergyMJ); got != g.v2TotalBits || r2.Violations != g.v2Violations {
			t.Errorf("%s v2: TotalEnergyMJ bits %#x (%.10g), violations %d; want %#x (%.10g), %d", g.tag,
				got, r2.TotalEnergyMJ, r2.Violations, g.v2TotalBits, math.Float64frombits(g.v2TotalBits), g.v2Violations)
		}
		if s2.Nodes > g.v2MaxNodes {
			t.Errorf("%s v2: %d nodes exceeds the %d drift alarm", g.tag, s2.Nodes, g.v2MaxNodes)
		}
		if r2.TotalEnergyMJ > r1.TotalEnergyMJ*(1+1e-12) {
			t.Errorf("%s: v2 energy %.10g exceeds v1 %.10g — v2 must dominate the truncated baseline",
				g.tag, r2.TotalEnergyMJ, r1.TotalEnergyMJ)
		}
	}
}

// checkBenchPR4OracleCounters decodes the Oracle session counters of the
// committed BENCH_pr4.json and requires each to equal the v1 golden row of
// the same session, so the committed report and the pin cannot drift apart.
func checkBenchPR4OracleCounters(t *testing.T) {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_pr4.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Sessions []struct {
			App       string `json:"app"`
			TraceSeed int64  `json:"trace_seed"`
			Scheduler string `json:"scheduler"`
			Solver    struct {
				Solves int   `json:"solves"`
				Nodes  int64 `json:"nodes"`
			} `json:"solver"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("BENCH_pr4.json: %v", err)
	}
	checked := 0
	for _, s := range rep.Sessions {
		if s.Scheduler != "Oracle" {
			continue
		}
		found := false
		for _, g := range oracleGolden {
			if g.app != s.App || g.seed != s.TraceSeed {
				continue
			}
			found = true
			if s.Solver.Solves != g.v1Solves || s.Solver.Nodes != g.v1Nodes {
				t.Errorf("BENCH_pr4 Oracle %s/%d: solves=%d nodes=%d, v1 golden %d/%d",
					s.App, s.TraceSeed, s.Solver.Solves, s.Solver.Nodes, g.v1Solves, g.v1Nodes)
			}
		}
		if !found {
			t.Errorf("BENCH_pr4 Oracle session %s/%d has no v1 golden row", s.App, s.TraceSeed)
		}
		checked++
	}
	if checked == 0 {
		t.Error("BENCH_pr4.json has no Oracle session to check")
	}
}
