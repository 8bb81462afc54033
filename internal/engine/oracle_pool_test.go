package engine

import (
	"hash/fnv"
	"testing"

	"repro/internal/acmp"
	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// poolSession is one session of the e2ebench pool: campaign j < 96 runs
// registry apps 3j, 3j+1, 3j+2 mod 18 on trace seed 100000+j, 288 in all.
type poolSession struct {
	spec    *webapp.Spec
	domSeed int64
	evs     []*webevent.Event
}

func poolSessions(t *testing.T) []poolSession {
	t.Helper()
	const appsPerCampaign, campaigns = 3, 96
	reg := webapp.Registry()
	var set []poolSession
	for j := 0; j < campaigns; j++ {
		for k := 0; k < appsPerCampaign; k++ {
			spec := reg[(appsPerCampaign*j+k)%len(reg)]
			tr := trace.Generate(spec, 100_000+int64(j), trace.Options{})
			evs := tr.Events
			set = append(set, poolSession{spec, tr.DOMSeed, evs})
		}
	}
	return set
}

// poolDigest runs every pool session through run and returns an FNV-64a
// digest of every Result's JSON with Solver zeroed, which pins per session
// the energy bits, the violations and every event's config, start and
// finish, plus the summed solver counters. No session may abort a solve.
func poolDigest(t *testing.T, set []poolSession, run func(poolSession) *Result) (uint64, optimizer.SolverCounts) {
	t.Helper()
	h := fnv.New64a()
	var buf []byte
	var sum optimizer.SolverCounts
	for i, s := range set {
		r := run(s)
		if r.Solver.BudgetAborts != 0 {
			t.Fatalf("session %d (%s): %d budget aborts", i, s.spec.Name, r.Solver.BudgetAborts)
		}
		sum = sum.Add(r.Solver)
		r.Solver = optimizer.SolverCounts{}
		var err error
		if buf, err = r.AppendJSON(buf[:0]); err != nil {
			t.Fatal(err)
		}
		h.Write(buf)
	}
	return h.Sum64(), sum
}

// TestOraclePoolSessionsPinned pins the Oracle on real windows: the 288
// pool sessions under sched.NewOracle. The digest was captured before the
// deadline-aware suffix bound and the folded bound build landed, which must
// leave every choice unchanged. The summed solver counters pin the work on
// those windows; before the two cuts they read 1,241 solves, 2,906,442
// nodes and 3,894,937 cells.
func TestOraclePoolSessionsPinned(t *testing.T) {
	const (
		wantDigest = 0xa94906c274de6653
		wantSolves = 1241
		wantNodes  = 2418144
		wantCells  = 3112901
	)
	p := acmp.Exynos5410()
	var cells int64
	digest, sum := poolDigest(t, poolSessions(t), func(s poolSession) *Result {
		o := sched.NewOracle(p, s.evs)
		r := RunProactive(p, s.spec.Name, s.evs, o)
		cells += o.BoundCells()
		return r
	})
	if digest != wantDigest {
		t.Errorf("pool digest %#x, want %#x: an Oracle choice, start, finish or energy moved", digest, uint64(wantDigest))
	}
	if sum.Solves != wantSolves || sum.Nodes != wantNodes || cells != wantCells {
		t.Errorf("pool solves %d, nodes %d, cells %d; want %d, %d, %d",
			sum.Solves, sum.Nodes, cells, wantSolves, wantNodes, wantCells)
	}
}

// TestPoolSessionsPinned pins every other scheduler on the same 288 pool
// sessions the way TestOraclePoolSessionsPinned pins the Oracle: one digest
// per scheduler, PES at the default confidence threshold with the
// golden-test learner (TrainOnSeenApps(3, 400, 1)). PES's summed solves and
// nodes bound its planning work without a clock; the reactive schedulers
// never solve. A change that claims "every result unchanged" must keep
// every digest.
func TestPoolSessionsPinned(t *testing.T) {
	p := acmp.Exynos5410()
	learner, err := predictor.TrainOnSeenApps(3, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	set := poolSessions(t)
	for _, c := range []struct {
		name       string
		run        func(poolSession) *Result
		wantDigest uint64
		wantSolves int
		wantNodes  int64
	}{
		{"Interactive", func(s poolSession) *Result {
			return RunReactive(p, s.spec.Name, s.evs, sched.NewInteractive(p))
		}, 0xebfb93754d58e35c, 0, 0},
		{"Ondemand", func(s poolSession) *Result {
			return RunReactive(p, s.spec.Name, s.evs, sched.NewOndemand(p))
		}, 0x69768cbc5177a32d, 0, 0},
		{"EBS", func(s poolSession) *Result {
			return RunReactive(p, s.spec.Name, s.evs, sched.NewEBS(p))
		}, 0xb96652a52ff56649, 0, 0},
		{"PES", func(s poolSession) *Result {
			pes := core.NewPES(p, learner, s.spec, s.domSeed, predictor.DefaultConfig())
			return RunProactive(p, s.spec.Name, s.evs, pes)
		}, 0x5b5b4a1bc0dfcdc6, 8765, 1684},
	} {
		digest, sum := poolDigest(t, set, c.run)
		if digest != c.wantDigest {
			t.Errorf("%s: pool digest %#x, want %#x: a choice, start, finish or energy moved", c.name, digest, c.wantDigest)
		}
		if sum.Solves != c.wantSolves || sum.Nodes != c.wantNodes {
			t.Errorf("%s: pool solves %d, nodes %d; want %d, %d", c.name, sum.Solves, sum.Nodes, c.wantSolves, c.wantNodes)
		}
	}
}
