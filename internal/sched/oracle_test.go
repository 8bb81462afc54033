package sched

import (
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

func TestParseOracleVersion(t *testing.T) {
	cases := []struct {
		in   string
		want OracleVersion
		ok   bool
	}{
		{"", DefaultOracleVersion, true},
		{"v1", OracleV1, true},
		{"1", OracleV1, true},
		{"V1", OracleV1, true},
		{" v2 ", OracleV2, true},
		{"2", OracleV2, true},
		{"v3", 0, false},
		{"fast", 0, false},
	}
	for _, c := range cases {
		got, err := ParseOracleVersion(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseOracleVersion(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseOracleVersion(%q) should fail", c.in)
		}
	}
	if OracleV1.String() != "v1" || OracleV2.String() != "v2" || OracleVersion(7).String() != "v7" {
		t.Error("String spellings wrong")
	}
	if OracleVersion(0).OrDefault() != DefaultOracleVersion || OracleV1.OrDefault() != OracleV1 {
		t.Error("OrDefault wrong")
	}
	if !OracleV1.Valid() || !OracleV2.Valid() || OracleVersion(3).Valid() {
		t.Error("Valid wrong")
	}
}

func TestNewOracleDefaultsToV2(t *testing.T) {
	o := NewOracle(acmp.Exynos5410(), oracleTrace(3))
	if o.Version() != DefaultOracleVersion || o.Version() != OracleV2 {
		t.Fatalf("default oracle version = %v", o.Version())
	}
	if z := NewOracleWithVersion(acmp.Exynos5410(), oracleTrace(3), 0); z.Version() != DefaultOracleVersion {
		t.Fatalf("zero version should resolve to default, got %v", z.Version())
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
// solves without allocating.
func TestOraclePlanSteadyStateAllocs(t *testing.T) {
	o := NewOracleWithVersion(acmp.Exynos5410(), oracleTrace(8), OracleV2)
	starts := []simtime.Time{
		simtime.Time(10 * simtime.Millisecond),
		simtime.Time(20 * simtime.Millisecond),
		simtime.Time(30 * simtime.Millisecond),
	}
	for _, s := range starts { // warmup: grow the plan and solver buffers
		o.Plan(s, nil)
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
