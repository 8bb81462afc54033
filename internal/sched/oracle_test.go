package sched

import (
	"math/rand"
	"testing"

	"repro/internal/acmp"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

func oracleTrace(n int) []*webevent.Event {
	evs := make([]*webevent.Event, n)
	for i := range evs {
		evs[i] = &webevent.Event{
			Seq: i, App: "cnn", Type: webevent.Click,
			Trigger: simtime.Time(i+1) * simtime.Time(300*simtime.Millisecond),
			Work:    acmp.Workload{Tmem: 12 * simtime.Millisecond, Cycles: int64(200e6 + 40e6*float64(i))},
		}
	}
	return evs
}

// mixedTrace returns n events drawn like the ilp package's chainProblem
// solver instances: mostly taps, with occasional moves and loads, scaled
// workloads and trigger gaps around each type's QoS target. Its 12-event windows are hard
// enough that the v2 solver escalates to the grid bound on most seeds.
func mixedTrace(seed int64, n int) []*webevent.Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]*webevent.Event, n)
	now := simtime.Time(0)
	for i := range evs {
		typ, tmemMS, mcycles, gapMS := webevent.Click, 26.0, 520.0, 300.0
		switch rng.Intn(6) {
		case 0:
			typ, tmemMS, mcycles, gapMS = webevent.Scroll, 3, 18, 33
		case 1:
			typ, tmemMS, mcycles, gapMS = webevent.Load, 380, 4400, 3000
		}
		scale := 0.5 + rng.Float64()
		now = now.Add(simtime.Duration(gapMS * (0.4 + 1.2*rng.Float64()) * 1000))
		evs[i] = &webevent.Event{
			Seq: i, App: "cnn", Type: typ, Trigger: now,
			Work: acmp.Workload{Tmem: simtime.Duration(scale * tmemMS * 1000), Cycles: int64(scale * mcycles * 1e6)},
		}
	}
	return evs
}

// TestNewOracleDefaultsToV2: NewOracle runs v2, and only OracleV1 selects
// the reference traversal, so the zero version plans exactly like NewOracle.
func TestNewOracleDefaultsToV2(t *testing.T) {
	p := acmp.Exynos5410()
	o := NewOracle(p, oracleTrace(3))
	if o.version != OracleV2 {
		t.Fatalf("default oracle version = %v", o.version)
	}
	start := simtime.Time(100 * simtime.Millisecond)
	want := append([]SpecTask(nil), o.Plan(start, nil)...)
	z := NewOracleWithVersion(p, oracleTrace(3), 0)
	got := z.Plan(start, nil)
	if len(got) != len(want) || z.SolverStats().Nodes != o.SolverStats().Nodes {
		t.Fatalf("zero version planned %d tasks in %d nodes, NewOracle %d in %d",
			len(got), z.SolverStats().Nodes, len(want), o.SolverStats().Nodes)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("zero version task %d = %+v, NewOracle %+v", i, got[i], want[i])
		}
	}
}

// TestOracleReplanIsIdentical: planning the identical horizon twice must
// solve twice (there is no plan cache) and return an identical task list,
// for both versions — the solver's reused scratch carries no state from one
// plan into the next.
func TestOracleReplanIsIdentical(t *testing.T) {
	for _, v := range []OracleVersion{OracleV1, OracleV2} {
		o := NewOracleWithVersion(acmp.Exynos5410(), oracleTrace(6), v)
		start := simtime.Time(100 * simtime.Millisecond)

		first := o.Plan(start, nil)
		if len(first) == 0 {
			t.Fatalf("%v: empty plan", v)
		}
		// Plan reuses its output buffer; snapshot before the second call.
		snap := make([]SpecTask, len(first))
		copy(snap, first)
		s1 := o.SolverStats()
		if s1.Solves != 1 || s1.Nodes <= 0 {
			t.Fatalf("%v: after first plan stats = %+v", v, s1)
		}

		// A shifted horizon in between exercises the scratch with other data.
		o.Plan(start.Add(simtime.Millisecond), nil)
		second := o.Plan(start, nil)
		s3 := o.SolverStats()
		if s3.Solves != 3 || s3.PlanCacheHits != 0 {
			t.Errorf("%v: every plan should solve: %+v", v, s3)
		}
		if len(second) != len(snap) {
			t.Fatalf("%v: replanned length %d != %d", v, len(second), len(snap))
		}
		for i := range snap {
			if second[i] != snap[i] {
				t.Errorf("%v: replanned task %d differs: %+v vs %+v", v, i, second[i], snap[i])
			}
		}
	}
}

// TestOracleV2MatchesV1OnProvenWindows checks that where v1's reference
// solver completes within budget (no aborts), v2 plans the same energy; the
// task lists agree config-for-config on this tie-free workload.
func TestOracleV2MatchesV1OnProvenWindows(t *testing.T) {
	p := acmp.Exynos5410()
	evs := oracleTrace(6)
	o1 := NewOracleWithVersion(p, evs, OracleV1)
	o2 := NewOracleWithVersion(p, evs, OracleV2)
	start := simtime.Time(50 * simtime.Millisecond)
	t1 := o1.Plan(start, nil)
	t2 := o2.Plan(start, nil)
	if o1.SolverStats().BudgetAborts != 0 {
		t.Skip("v1 aborted; windows not comparable")
	}
	if len(t1) != len(t2) {
		t.Fatalf("plan lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i].Config != t2[i].Config {
			t.Errorf("task %d config differs: %v vs %v", i, t1[i].Config, t2[i].Config)
		}
	}
	if o2.SolverStats().BudgetAborts != 0 {
		t.Errorf("v2 aborted on a 6-event window: %+v", o2.SolverStats())
	}
}

// TestOraclePlanSteadyStateAllocs pins the zero-alloc property of oracle
// planning (the v2 throughput path): once the buffers have grown, every plan
// solves without allocating. The windows escalate past the pure first
// attempt, so the measured plans tabulate the grid-bound table too.
func TestOraclePlanSteadyStateAllocs(t *testing.T) {
	o := NewOracleWithVersion(acmp.Exynos5410(), mixedTrace(3, 14), OracleV2)
	starts := []simtime.Time{
		simtime.Time(10 * simtime.Millisecond),
		simtime.Time(20 * simtime.Millisecond),
		simtime.Time(30 * simtime.Millisecond),
	}
	for _, s := range starts { // warmup: grow the plan and solver buffers
		o.Plan(s, nil)
	}
	if st := o.SolverStats(); st.Nodes < 10000 || o.BoundCells() == 0 {
		t.Fatalf("warm-up never escalated to the grid bound: %d nodes, %d cells", st.Nodes, o.BoundCells())
	}
	avg := testing.AllocsPerRun(50, func() {
		for _, s := range starts {
			o.Plan(s, nil)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Plan allocates %.1f times per cycle", avg)
	}
}
