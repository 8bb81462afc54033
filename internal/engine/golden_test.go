package engine

import (
	"math"
	"testing"

	"repro/internal/acmp"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// goldenResult is one Result fingerprint captured from the pre-refactor
// drivers (the separate sim.RunReactive / sim.RunProactive event loops) on
// fixed trace seeds. The unified engine must reproduce every field exactly:
// these values pin the engine to the behaviour the paper figures were
// produced with.
type goldenResult struct {
	tag       string // app/seed
	scheduler string
	app       string
	outcomes  int
	busyMJ    float64
	idleMJ    float64
	wastedMJ  float64
	totalMJ   float64
	violations,
	committed,
	mispredictions,
	squashed int
	mispredictWaste int // simtime ticks
	speculative     int
}

// golden holds the fingerprints recorded by running the old drivers at
// commit ab5b7dc with: apps cnn/ebay/espn, trace seeds 11/5/9, and a PES
// predictor trained with TrainOnSeenApps(3, 400).
var golden = []goldenResult{
	{"cnn/11", "Interactive", "cnn", 54, 35770.0534, 13880.21166, 0, 49650.26506, 15, 0, 0, 0, 0, 0},
	{"cnn/11", "Ondemand", "cnn", 54, 33958.65496, 13594.46116, 0, 47553.11612, 44, 0, 0, 0, 0, 0},
	{"cnn/11", "EBS", "cnn", 54, 30315.57625, 13614.47458, 0, 43930.05083, 6, 0, 0, 0, 0, 0},
	{"cnn/11", "Oracle", "cnn", 54, 14229.94696, 7323.75042, 0, 21553.69738, 0, 53, 0, 0, 0, 53},
	{"cnn/11", "PES", "cnn", 54, 25793.76333, 13846.45626, 0, 39640.21959, 19, 46, 0, 0, 0, 33},
	{"ebay/5", "Interactive", "ebay", 53, 41061.8034, 13883.2477, 0, 54945.0511, 16, 0, 0, 0, 0, 0},
	{"ebay/5", "Ondemand", "ebay", 53, 39170.83123, 13596.25036, 0, 52767.08159, 45, 0, 0, 0, 0, 0},
	{"ebay/5", "EBS", "ebay", 53, 30600.06142, 13228.75414, 0, 43828.81556, 22, 0, 0, 0, 0, 0},
	{"ebay/5", "Oracle", "ebay", 53, 17344.21443, 7666.26658, 0, 25010.48101, 1, 52, 0, 0, 0, 52},
	{"ebay/5", "PES", "ebay", 53, 30676.82045, 12742.59616, 110.1466352, 43419.41661, 11, 45, 4, 6, 396479, 35},
	{"espn/9", "Interactive", "espn", 26, 24845.99662, 14400.02326, 0, 39246.01988, 11, 0, 0, 0, 0, 0},
	{"espn/9", "Ondemand", "espn", 26, 23373.6206, 14191.50124, 0, 37565.12184, 23, 0, 0, 0, 0, 0},
	{"espn/9", "EBS", "espn", 26, 21052.3877, 14181.34816, 0, 35233.73586, 7, 0, 0, 0, 0, 0},
	{"espn/9", "Oracle", "espn", 26, 8686.305848, 8651.39324, 0, 17337.69909, 0, 25, 0, 0, 0, 25},
	{"espn/9", "PES", "espn", 26, 20095.00417, 13016.69208, 53.81461503, 33111.69625, 4, 11, 1, 2, 80571, 10},
}

// approxEq compares against a golden value recorded with %.10g formatting.
func approxEq(got, want float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want) <= 5e-9*math.Abs(want)
}

// goldenResults replays the golden sessions on the unified engine, keyed
// app/scheduler.
func goldenResults(t *testing.T) map[string]*Result {
	t.Helper()
	p := acmp.Exynos5410()
	learner, _, err := predictor.TrainOnSeenApps(3, 400)
	if err != nil {
		t.Fatal(err)
	}
	sessions := []struct {
		app  string
		seed int64
	}{{"cnn", 11}, {"ebay", 5}, {"espn", 9}}

	results := make(map[string]*Result)
	for _, s := range sessions {
		spec, err := webapp.ByName(s.app)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.Generate(spec, s.seed, trace.Options{})
		evs := tr.Events
		run := func(name string, r *Result) { results[s.app+"/"+name] = r }
		run("Interactive", RunReactive(p, s.app, evs, sched.NewInteractive(p)))
		run("Ondemand", RunReactive(p, s.app, evs, sched.NewOndemand(p)))
		run("EBS", RunReactive(p, s.app, evs, sched.NewEBS(p)))
		run("Oracle", RunProactive(p, s.app, evs, sched.NewOracle(p, evs)))
		pes := core.NewPES(p, learner, spec, tr.DOMSeed, predictor.DefaultConfig())
		run("PES", RunProactive(p, s.app, evs, pes))
	}
	return results
}

// TestEngineMatchesPreRefactorDrivers replays the golden sessions on the
// unified engine and checks every recorded Result field.
func TestEngineMatchesPreRefactorDrivers(t *testing.T) {
	results := goldenResults(t)
	for _, g := range golden {
		r := results[g.app+"/"+g.scheduler]
		if r == nil {
			t.Fatalf("%s %s: no result", g.tag, g.scheduler)
		}
		if len(r.Outcomes) != g.outcomes {
			t.Errorf("%s %s: outcomes = %d, want %d", g.tag, g.scheduler, len(r.Outcomes), g.outcomes)
		}
		for _, c := range []struct {
			field     string
			got, want float64
		}{
			{"BusyEnergyMJ", r.BusyEnergyMJ, g.busyMJ},
			{"IdleEnergyMJ", r.IdleEnergyMJ, g.idleMJ},
			{"WastedEnergyMJ", r.WastedEnergyMJ, g.wastedMJ},
			{"TotalEnergyMJ", r.TotalEnergyMJ, g.totalMJ},
		} {
			if !approxEq(c.got, c.want) {
				t.Errorf("%s %s: %s = %.10g, want %.10g", g.tag, g.scheduler, c.field, c.got, c.want)
			}
		}
		spec := 0
		for _, o := range r.Outcomes {
			if o.Speculative {
				spec++
			}
		}
		for _, c := range []struct {
			field     string
			got, want int
		}{
			{"Violations", r.Violations, g.violations},
			{"CommittedFrames", r.CommittedFrames, g.committed},
			{"Mispredictions", r.Mispredictions, g.mispredictions},
			{"SquashedFrames", r.SquashedFrames, g.squashed},
			{"MispredictWaste", int(r.MispredictWaste), g.mispredictWaste},
			{"speculative outcomes", spec, g.speculative},
		} {
			if c.got != c.want {
				t.Errorf("%s %s: %s = %d, want %d", g.tag, g.scheduler, c.field, c.got, c.want)
			}
		}
	}
}

// TestSquashWasteBitsPinned pins, to the bit, the mis-prediction waste of
// the two golden PES sessions that squash. The goldens above compare only
// to %.10g; the squash sums dropped-frame energies in ascending order, and
// that order is part of these bits.
func TestSquashWasteBitsPinned(t *testing.T) {
	p := acmp.Exynos5410()
	learner, _, err := predictor.TrainOnSeenApps(3, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		app       string
		seed      int64
		wasteBits uint64
		waste     int64 // simtime ticks
	}{
		{"ebay", 5, 0x405b896278b9e40a, 396479},
		{"espn", 9, 0x404ae8454e30a141, 80571},
	} {
		spec, err := webapp.ByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.Generate(spec, c.seed, trace.Options{})
		evs := tr.Events
		r := RunProactive(p, c.app, evs, core.NewPES(p, learner, spec, tr.DOMSeed, predictor.DefaultConfig()))
		if got := math.Float64bits(r.WastedEnergyMJ); got != c.wasteBits {
			t.Errorf("%s/%d: WastedEnergyMJ bits = %#x (%v), want %#x (%v)",
				c.app, c.seed, got, r.WastedEnergyMJ, c.wasteBits, math.Float64frombits(c.wasteBits))
		}
		if int64(r.MispredictWaste) != c.waste {
			t.Errorf("%s/%d: MispredictWaste = %d, want %d", c.app, c.seed, r.MispredictWaste, c.waste)
		}
	}
}
