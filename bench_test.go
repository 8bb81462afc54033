// Benchmarks: one testing.B benchmark per table/figure of the paper's
// evaluation section. Each benchmark regenerates the corresponding
// experiment (at a reduced trace count so a full -bench=. run stays in the
// minutes range) and reports a headline metric via b.ReportMetric so that
// the reproduced numbers appear directly in the benchmark output.
//
//	go test -bench=. -benchmem
package pes

import (
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/predictor"
	"repro/internal/simtime"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// benchSetup is shared by all experiment benchmarks; building it (training
// trace generation + predictor training) is itself measured by
// BenchmarkSetupTraining.
var (
	benchOnce  sync.Once
	benchSetup *experiments.Setup
	benchErr   error
)

func getSetup(b *testing.B) *experiments.Setup {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.TrainTracesPerApp = 5
		cfg.EvalTracesPerApp = 2
		benchSetup, benchErr = experiments.NewSetup(cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSetup
}

func reportColumnMean(b *testing.B, t *experiments.Table, column, unit string) {
	b.Helper()
	vals := t.Column(column)
	if len(vals) == 0 {
		b.Fatalf("column %q missing from %s", column, t.ID)
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	b.ReportMetric(sum/float64(len(vals)), unit)
}

// BenchmarkSetupTraining measures the offline pipeline: training-trace
// generation plus logistic-regression training (the paper reports ~3 s).
func BenchmarkSetupTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := predictor.TrainOnSeenApps(5, int64(i)+1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig02RepresentativeSequence regenerates the Fig. 2 four-event
// comparison (Interactive vs EBS vs Oracle).
func BenchmarkFig02RepresentativeSequence(b *testing.B) {
	s := getSetup(b)
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = s.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
	reportColumnMean(b, t, "violations", "violations/scheme")
}

// BenchmarkFig03EventTypeDistribution regenerates the Type I–IV event
// classification under EBS.
func BenchmarkFig03EventTypeDistribution(b *testing.B) {
	s := getSetup(b)
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = s.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
	if row, ok := t.Row("average"); ok && len(row.Values) == 4 {
		b.ReportMetric(100*(row.Values[0]+row.Values[1]), "%missQoS")
	}
}

// BenchmarkTable1FeatureExtraction measures the Table 1 feature extraction
// over the evaluation corpus.
func BenchmarkTable1FeatureExtraction(b *testing.B) {
	s := getSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig08PredictionAccuracy regenerates the per-application predictor
// accuracy and reports the mean accuracy.
func BenchmarkFig08PredictionAccuracy(b *testing.B) {
	s := getSetup(b)
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = s.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
	if row, ok := t.Row("avg. seen apps"); ok {
		b.ReportMetric(100*row.Values[0], "%accuracy-seen")
	}
	if row, ok := t.Row("avg. unseen apps"); ok {
		b.ReportMetric(100*row.Values[0], "%accuracy-unseen")
	}
}

// BenchmarkFig09PFBDynamics regenerates the PFB-occupancy trace.
func BenchmarkFig09PFBDynamics(b *testing.B) {
	s := getSetup(b)
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = s.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
	reportColumnMean(b, t, "pfb size", "frames")
}

// BenchmarkFig10MispredictionWaste regenerates the mis-prediction waste
// figure and reports the suite-average waste per mis-prediction.
func BenchmarkFig10MispredictionWaste(b *testing.B) {
	s := getSetup(b)
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = s.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
	if row, ok := t.Row("average"); ok {
		b.ReportMetric(row.Values[0], "ms/mispredict")
	}
}

// BenchmarkSec63PredictorOverhead measures one predictor evaluation (the
// paper reports ~2 µs per five-variable logistic evaluation).
func BenchmarkSec63PredictorOverhead(b *testing.B) {
	s := getSetup(b)
	spec := webapp.SeenApps()[0]
	p := predictor.New(s.Learner, spec, 1, predictor.DefaultConfig())
	p.Observe(&webevent.Event{App: spec.Name, Type: webevent.Load})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictNext()
	}
}

// BenchmarkSec63SolverOverhead measures one constrained-optimization solve
// over a typical window (the paper reports ~10 ms).
func BenchmarkSec63SolverOverhead(b *testing.B) {
	// A 6-item, 17-config chain problem, the typical size PES solves.
	prob := ilp.Problem{Start: 0}
	lat := []simtime.Duration{5, 9, 14, 20, 28, 40, 60, 85, 120, 170, 240, 330, 450, 600, 800, 1000, 1300}
	for i := 0; i < 6; i++ {
		item := ilp.Item{Deadline: simtime.Time((i + 1) * 400 * int(simtime.Millisecond))}
		for j, l := range lat {
			item.Choices = append(item.Choices, ilp.Choice{
				Latency: l * simtime.Millisecond,
				Energy:  float64(len(lat)-j) * 1.7,
			})
		}
		prob.Items = append(prob.Items, item)
	}
	var s ilp.Solver
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(prob)
	}
}

// BenchmarkFig11Energy regenerates the normalized-energy comparison and
// reports the suite-average PES energy relative to Interactive.
func BenchmarkFig11Energy(b *testing.B) {
	s := getSetup(b)
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = s.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
	if row, ok := t.Row("avg. seen apps"); ok {
		b.ReportMetric(row.Values[2], "%PES-energy-vs-Interactive")
		b.ReportMetric(row.Values[1], "%EBS-energy-vs-Interactive")
	}
}

// BenchmarkFig12QoSViolation regenerates the QoS-violation comparison and
// reports the suite-average PES and EBS violation rates.
func BenchmarkFig12QoSViolation(b *testing.B) {
	s := getSetup(b)
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = s.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
	if row, ok := t.Row("avg. seen apps"); ok {
		b.ReportMetric(row.Values[2], "%PES-violations")
		b.ReportMetric(row.Values[1], "%EBS-violations")
	}
}

// BenchmarkFig13Pareto regenerates the Pareto analysis across all five
// schemes.
func BenchmarkFig13Pareto(b *testing.B) {
	s := getSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig13(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14ConfidenceSensitivity regenerates the confidence-threshold
// sensitivity study on a reduced threshold grid.
func BenchmarkFig14ConfidenceSensitivity(b *testing.B) {
	s := getSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig14([]float64{0.3, 0.7, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNoDOMAnalysis regenerates the Sec. 6.5 predictor ablation
// and reports the accuracy drop without DOM analysis.
func BenchmarkAblationNoDOMAnalysis(b *testing.B) {
	s := getSetup(b)
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = s.AblationNoDOM(); err != nil {
			b.Fatal(err)
		}
	}
	if row, ok := t.Row("average"); ok {
		b.ReportMetric(100*row.Values[2], "%accuracy-drop")
	}
}

// BenchmarkOtherDeviceTX2 regenerates the TX2 "other devices" study and
// reports the PES energy saving vs Interactive on that platform.
func BenchmarkOtherDeviceTX2(b *testing.B) {
	s := getSetup(b)
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		if t, err = s.OtherDeviceTX2(); err != nil {
			b.Fatal(err)
		}
	}
	if row, ok := t.Row("PES vs Interactive"); ok {
		b.ReportMetric(row.Values[0], "%energy-saving")
	}
}
