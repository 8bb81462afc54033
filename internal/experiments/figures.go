package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/acmp"
	"repro/internal/engine"
	"repro/internal/eventclass"
	"repro/internal/mlr"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// trainConfig returns the deterministic logistic-regression training
// configuration used throughout the harness.
func trainConfig(seed int64) mlr.TrainConfig { return mlr.TrainConfig{Seed: seed} }

// Fig2 reproduces the representative cnn.com interaction sequence of Fig. 2:
// four events (a load, a heavy tap, a tap, a move) scheduled by the
// QoS-agnostic OS governor, the reactive EBS scheduler, and the Oracle. The
// columns report per-event latency in milliseconds; the final two columns
// report the number of QoS violations and the total energy.
func (s *Setup) Fig2() (*Table, error) {
	p := s.Config.Platform
	// A hand-built sequence shaped like the paper's example: E2's workload
	// exceeds what even the fastest configuration can deliver within its
	// target, and E3/E4 follow closely enough to suffer interference.
	events := []*webevent.Event{
		{Seq: 0, App: "cnn", Type: webevent.Load, Trigger: 0,
			Work: acmp.Workload{Tmem: 250 * simtime.Millisecond, Cycles: 2300e6}},
		{Seq: 1, App: "cnn", Type: webevent.Click, Trigger: simtime.Time(4 * simtime.Second),
			Work: acmp.Workload{Tmem: 30 * simtime.Millisecond, Cycles: 700e6}},
		{Seq: 2, App: "cnn", Type: webevent.Click, Trigger: simtime.Time(4*simtime.Second + 400*simtime.Millisecond),
			Work: acmp.Workload{Tmem: 15 * simtime.Millisecond, Cycles: 280e6}},
		{Seq: 3, App: "cnn", Type: webevent.Scroll, Trigger: simtime.Time(4*simtime.Second + 800*simtime.Millisecond),
			Work: acmp.Workload{Tmem: 2 * simtime.Millisecond, Cycles: 12e6}},
	}
	t := &Table{
		ID:      "fig2",
		Title:   "Representative 4-event sequence (per-event latency ms, violations, energy mJ)",
		Columns: []string{"E1 ms", "E2 ms", "E3 ms", "E4 ms", "violations", "energy mJ"},
		Notes: []string{
			"paper: OS and EBS violate deadlines on E2/E3 (and E4 for OS); the oracle meets all four and cuts energy by ~1/4 vs EBS",
		},
	}
	addRun := func(name string, r *engine.Result) {
		vals := make([]float64, 0, 6)
		viol := 0.0
		for _, o := range r.Outcomes {
			vals = append(vals, o.Latency.Millis())
			if o.Violated {
				viol++
			}
		}
		vals = append(vals, viol, r.TotalEnergyMJ)
		t.AddRow(name, vals...)
	}
	addRun(SchedInteractive, engine.RunReactive(p, "cnn", events, sched.NewInteractive(p)))
	addRun(SchedEBS, engine.RunReactive(p, "cnn", events, sched.NewEBS(p)))
	addRun(SchedOracle, engine.RunProactive(p, "cnn", events, sched.NewOracle(p, events)))
	return t, nil
}

// Fig3 reproduces the Type I–IV event distribution under EBS across the 12
// seen applications (fractions of events per category).
func (s *Setup) Fig3() (*Table, error) {
	rs, err := s.runScheduler(SchedEBS)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig3",
		Title:   "Event type distribution under EBS (fraction of events)",
		Columns: []string{"Type I", "Type II", "Type III", "Type IV"},
		Notes: []string{
			"paper: on average ~21% of events miss QoS (Type I+II) and ~14% waste energy (Type III)",
		},
	}
	sums := make(map[string][eventclass.NumClasses]float64)
	counts := make(map[string]float64)
	for i, r := range rs {
		app := s.Eval[i].App
		spec, _ := webapp.ByName(app)
		if spec == nil || !spec.Seen {
			continue
		}
		d := eventclass.Distribution(s.Config.Platform, r)
		acc := sums[app]
		for c := 0; c < eventclass.NumClasses; c++ {
			acc[c] += d[c]
		}
		sums[app] = acc
		counts[app]++
	}
	var avg [eventclass.NumClasses]float64
	apps := 0.0
	for _, spec := range webapp.SeenApps() {
		acc := sums[spec.Name]
		n := counts[spec.Name]
		if n == 0 {
			continue
		}
		row := make([]float64, eventclass.NumClasses)
		for c := 0; c < eventclass.NumClasses; c++ {
			row[c] = acc[c] / n
			avg[c] += row[c]
		}
		apps++
		t.AddRow(spec.Name, row...)
	}
	if apps > 0 {
		row := make([]float64, eventclass.NumClasses)
		for c := 0; c < eventclass.NumClasses; c++ {
			row[c] = avg[c] / apps
		}
		t.AddRow("average", row...)
	}
	return t, nil
}

// Table1 reports the predictor's feature vector on a sample of evaluation
// states: one row per feature with its observed mean value, documenting the
// feature definitions of Table 1.
func (s *Setup) Table1() (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   "Model features (observed mean value over the evaluation corpus)",
		Columns: []string{"mean value"},
	}
	sums := make([]float64, predictor.NumFeatures)
	n := 0.0
	for _, tr := range s.Eval {
		sess, err := tr.Session()
		if err != nil {
			return nil, err
		}
		var win predictor.Window
		for _, e := range tr.Events {
			f := predictor.Features(sess.Tree(), &win)
			for i, v := range f {
				sums[i] += v
			}
			n++
			win.Observe(e.Type, sess.Tree().ViewportCenterY())
			sess.ApplyEvent(e)
		}
	}
	for i, name := range predictor.FeatureNames {
		t.AddRow(name, sums[i]/n)
	}
	return t, nil
}

// Fig8 reproduces the per-application prediction accuracy (seen and unseen
// applications).
func (s *Setup) Fig8() (*Table, error) {
	return s.accuracyTable("fig8", true)
}

// AblationNoDOM reproduces the Sec. 6.5 predictor ablation: accuracy without
// the DOM analysis.
func (s *Setup) AblationNoDOM() (*Table, error) {
	withDOM, err := predictor.EvaluateAccuracy(s.Learner, s.Eval, true)
	if err != nil {
		return nil, err
	}
	without, err := predictor.EvaluateAccuracy(s.Learner, s.Eval, false)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-nodom",
		Title:   "Predictor ablation: accuracy with and without DOM analysis",
		Columns: []string{"with DOM", "without DOM", "drop"},
		Notes:   []string{"paper: removing the DOM analysis drops accuracy by about 5%"},
	}
	var withSum, withoutSum float64
	for i := range withDOM {
		withSum += withDOM[i].Accuracy
		withoutSum += without[i].Accuracy
		t.AddRow(withDOM[i].App, withDOM[i].Accuracy, without[i].Accuracy, withDOM[i].Accuracy-without[i].Accuracy)
	}
	n := float64(len(withDOM))
	if n > 0 {
		t.AddRow("average", withSum/n, withoutSum/n, (withSum-withoutSum)/n)
	}
	return t, nil
}

func (s *Setup) accuracyTable(id string, useDOM bool) (*Table, error) {
	results, err := predictor.EvaluateAccuracy(s.Learner, s.Eval, useDOM)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      id,
		Title:   "Event predictor accuracy (fraction of correctly predicted events)",
		Columns: []string{"accuracy", "events"},
		Notes: []string{
			"paper: 91.3% average over seen applications, 89.2% over unseen applications",
		},
	}
	byApp := make(map[string]predictor.AccuracyResult, len(results))
	for _, r := range results {
		byApp[r.App] = r
	}
	var seenSum, seenN, unseenSum, unseenN float64
	for _, app := range appOrder() {
		r, ok := byApp[app]
		if !ok {
			continue
		}
		t.AddRow(app, r.Accuracy, float64(r.Events))
		if r.Seen {
			seenSum += r.Accuracy
			seenN++
		} else {
			unseenSum += r.Accuracy
			unseenN++
		}
	}
	if seenN > 0 {
		t.AddRow("avg. seen apps", seenSum/seenN, 0)
	}
	if unseenN > 0 {
		t.AddRow("avg. unseen apps", unseenSum/unseenN, 0)
	}
	return t, nil
}

// Fig9 reproduces the Pending Frame Buffer dynamics for one ebay evaluation
// trace under PES: one row per event with the PFB occupancy when the event
// occurs.
func (s *Setup) Fig9() (*Table, error) {
	rs, err := s.runScheduler(SchedPES)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig9",
		Title:   "PFB occupancy over one ebay event sequence under PES",
		Columns: []string{"pfb size"},
		Notes:   []string{"paper: the PFB drains by one per matched event, drops to zero on a mis-prediction, and refills on a new prediction round"},
	}
	for i, r := range rs {
		if s.Eval[i].App != "ebay" {
			continue
		}
		for _, sample := range r.PFBSamples {
			t.AddRow(fmtEvent(sample.Seq), float64(sample.Size))
		}
		break
	}
	return t, nil
}

func fmtEvent(seq int) string { return "event " + itoa(seq) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Fig10 reproduces the average mis-prediction waste per application
// (milliseconds of discarded speculative frame production per
// mis-prediction).
func (s *Setup) Fig10() (*Table, error) {
	t := &Table{
		ID:      "fig10",
		Title:   "Average mis-prediction waste (ms per mis-prediction)",
		Columns: []string{"waste ms", "mispredictions"},
		Notes:   []string{"paper: ~20 ms average for both seen and unseen applications"},
	}
	waste, err := s.perApp(SchedPES, func(r *engine.Result) float64 { return r.MispredictWaste.Millis() })
	if err != nil {
		return nil, err
	}
	count, err := s.perApp(SchedPES, func(r *engine.Result) float64 { return float64(r.Mispredictions) })
	if err != nil {
		return nil, err
	}
	var sum, n float64
	for _, app := range appOrder() {
		per := 0.0
		if count[app] > 0 {
			per = waste[app] / count[app]
		}
		t.AddRow(app, per, count[app])
		sum += per
		n++
	}
	if n > 0 {
		t.AddRow("average", sum/n, 0)
	}
	return t, nil
}

// Fig11 reproduces the energy comparison: per-application energy of each
// scheme normalized to Interactive (percent, lower is better).
func (s *Setup) Fig11() (*Table, error) {
	t := &Table{
		ID:      "fig11",
		Title:   "Energy normalized to Interactive (%)",
		Columns: []string{SchedInteractive, SchedEBS, SchedPES, SchedOracle},
		Notes: []string{
			"paper: PES saves 27.9%/19.8% vs Interactive/EBS on seen apps, 23.1%/13.9% on unseen apps, and is within 12.9% of Oracle",
		},
	}
	energies := make(map[string]map[string]float64)
	for _, name := range t.Columns {
		e, err := s.perApp(name, func(r *engine.Result) float64 { return r.TotalEnergyMJ })
		if err != nil {
			return nil, err
		}
		energies[name] = e
	}
	var seenRows, unseenRows [][]float64
	for _, app := range appOrder() {
		base := energies[SchedInteractive][app]
		row := make([]float64, 0, len(t.Columns))
		for _, name := range t.Columns {
			row = append(row, 100*energies[name][app]/base)
		}
		t.AddRow(app, row...)
		spec, _ := webapp.ByName(app)
		if spec != nil && spec.Seen {
			seenRows = append(seenRows, row)
		} else {
			unseenRows = append(unseenRows, row)
		}
	}
	t.AddRow("avg. seen apps", avgRows(seenRows)...)
	t.AddRow("avg. unseen apps", avgRows(unseenRows)...)
	return t, nil
}

// Fig12 reproduces the QoS violation comparison (percent of events whose
// latency exceeds the QoS target; lower is better). The Oracle column is
// included for completeness even though the paper omits it (it is ~0).
func (s *Setup) Fig12() (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "QoS violation (%)",
		Columns: []string{SchedInteractive, SchedEBS, SchedPES, SchedOracle},
		Notes: []string{
			"paper: ~24.8% (Interactive) and ~24.4% (EBS) vs 7.5% (PES) on seen apps; Oracle is 0",
		},
	}
	viols := make(map[string]map[string]float64)
	for _, name := range t.Columns {
		v, err := s.perApp(name, func(r *engine.Result) float64 { return 100 * r.ViolationRate })
		if err != nil {
			return nil, err
		}
		viols[name] = v
	}
	var seenRows, unseenRows [][]float64
	for _, app := range appOrder() {
		row := make([]float64, 0, len(t.Columns))
		for _, name := range t.Columns {
			row = append(row, viols[name][app])
		}
		t.AddRow(app, row...)
		spec, _ := webapp.ByName(app)
		if spec != nil && spec.Seen {
			seenRows = append(seenRows, row)
		} else {
			unseenRows = append(unseenRows, row)
		}
	}
	t.AddRow("avg. seen apps", avgRows(seenRows)...)
	t.AddRow("avg. unseen apps", avgRows(unseenRows)...)
	return t, nil
}

// Fig13 reproduces the Pareto analysis: one row per scheduling scheme with
// its average QoS violation and its average energy normalized to
// Interactive.
func (s *Setup) Fig13() (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "Pareto analysis (QoS violation % vs normalized energy %)",
		Columns: []string{"QoS violation %", "norm energy %"},
		Notes:   []string{"paper: PES Pareto-dominates Interactive, Ondemand and EBS"},
	}
	schedulers := []string{SchedInteractive, SchedOndemand, SchedEBS, SchedPES, SchedOracle}
	baseEnergy := 0.0
	for _, name := range schedulers {
		energy, err := s.perApp(name, func(r *engine.Result) float64 { return r.TotalEnergyMJ })
		if err != nil {
			return nil, err
		}
		viol, err := s.perApp(name, func(r *engine.Result) float64 { return 100 * r.ViolationRate })
		if err != nil {
			return nil, err
		}
		var eSum, vSum, n float64
		for _, app := range appOrder() {
			eSum += energy[app]
			vSum += viol[app]
			n++
		}
		if name == SchedInteractive {
			baseEnergy = eSum
		}
		t.AddRow(name, vSum/n, 100*eSum/baseEnergy)
	}
	return t, nil
}

// Fig14 reproduces the confidence-threshold sensitivity study: for each
// threshold, the average PES energy and QoS violation normalized to EBS.
func (s *Setup) Fig14(thresholds []float64) (*Table, error) {
	if len(thresholds) == 0 {
		thresholds = []float64{0.3, 0.5, 0.7, 0.9, 1.0}
	}
	ebsResults, err := s.runScheduler(SchedEBS)
	if err != nil {
		return nil, err
	}
	var ebsEnergy, ebsViol float64
	for _, r := range ebsResults {
		ebsEnergy += r.TotalEnergyMJ
		ebsViol += r.ViolationRate
	}
	t := &Table{
		ID:      "fig14",
		Title:   "Sensitivity to the prediction confidence threshold (relative to EBS)",
		Columns: []string{"norm energy %", "QoS violation reduction %"},
		Notes: []string{
			"paper: benefits saturate below a ~70% threshold and vanish at 100% (prediction effectively disabled)",
		},
	}
	for _, th := range thresholds {
		cfg := s.Config.Predictor
		cfg.ConfidenceThreshold = th
		rs, err := s.runCorpus(s.Config.Platform, SchedPES, cfg)
		if err != nil {
			return nil, err
		}
		var energy, viol float64
		for _, r := range rs {
			energy += r.TotalEnergyMJ
			viol += r.ViolationRate
		}
		reduction := 0.0
		if ebsViol > 0 {
			reduction = 100 * (ebsViol - viol) / ebsViol
		}
		t.AddRow(percentLabel(th), 100*energy/ebsEnergy, reduction)
	}
	return t, nil
}

func percentLabel(th float64) string { return itoa(int(th*100+0.5)) + "%" }

// OverheadTable reports the Sec. 6.3 runtime overheads measured on the
// actual implementation: the per-evaluation predictor cost, the per-solve
// optimizer cost, and the hardware transition overheads of the platform
// model.
func (s *Setup) OverheadTable() (*Table, error) {
	t := &Table{
		ID:      "sec6.3",
		Title:   "Runtime overheads",
		Columns: []string{"value"},
		Notes: []string{
			"paper: ~2 µs per prediction, ~10 ms per optimization, 100 µs DVFS transition, 20 µs core migration",
			"predictor/optimizer rows are measured on this host in microseconds",
		},
	}
	// Measure the predictor evaluation cost.
	spec := webapp.SeenApps()[0]
	pred := predictor.New(s.Learner, spec, 1, s.Config.Predictor)
	pred.Observe(&webevent.Event{App: spec.Name, Type: webevent.Load})
	start := time.Now()
	const predIters = 2000
	for i := 0; i < predIters; i++ {
		pred.PredictNext()
	}
	predCost := time.Since(start).Seconds() * 1e6 / predIters

	// Measure the optimizer solve cost on a typical instance.
	tr := s.Eval[0]
	pes, err := s.NewPES(tr)
	if err != nil {
		return nil, err
	}
	first := tr.Events[0]
	pes.Observe(first)
	start = time.Now()
	const optIters = 200
	for i := 0; i < optIters; i++ {
		pes.Plan(first.Trigger, nil)
	}
	optCost := time.Since(start).Seconds() * 1e6 / optIters

	t.AddRow("predictor evaluation (µs)", predCost)
	t.AddRow("optimizer solve (µs)", optCost)
	t.AddRow("DVFS transition (µs)", float64(s.Config.Platform.DVFSLatency))
	t.AddRow("core migration (µs)", float64(s.Config.Platform.MigrationLatency))
	return t, nil
}

// OtherDeviceTX2 reproduces the Sec. 6.5 "other devices" study: PES energy
// saving versus Interactive on the NVIDIA TX2 Parker platform model.
func (s *Setup) OtherDeviceTX2() (*Table, error) {
	tx2 := acmp.TX2Parker()
	t := &Table{
		ID:      "sec6.5-tx2",
		Title:   "PES on the TX2 Parker platform (energy saving vs Interactive, %)",
		Columns: []string{"saving %"},
		Notes:   []string{"paper: ~24.6% energy saving vs Interactive on the TX2"},
	}
	interRs, err := s.runCorpus(tx2, SchedInteractive, s.Config.Predictor)
	if err != nil {
		return nil, err
	}
	pesRs, err := s.runCorpus(tx2, SchedPES, s.Config.Predictor)
	if err != nil {
		return nil, err
	}
	var interactive, pesEnergy float64
	for i := range s.Eval {
		interactive += interRs[i].TotalEnergyMJ
		pesEnergy += pesRs[i].TotalEnergyMJ
	}
	t.AddRow("PES vs Interactive", 100*(interactive-pesEnergy)/interactive)
	return t, nil
}

// avgRows averages a set of equal-length rows element-wise.
func avgRows(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	for _, r := range rows {
		for i, v := range r {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(rows))
	}
	return out
}

// Figure is one entry of the figure table: the canonical name that selects
// an experiment (pes-experiments -fig, GET /v1/figures/{name}), the aliases
// that select it too, and its generator.
type Figure struct {
	Name    string
	Aliases []string
	Run     func(*Setup) (*Table, error)
}

// figures is the figure table, in paper order — the order pes-experiments
// runs them in.
var figures = []Figure{
	{Name: "fig2", Run: (*Setup).Fig2},
	{Name: "fig3", Run: (*Setup).Fig3},
	{Name: "table1", Run: (*Setup).Table1},
	{Name: "fig8", Run: (*Setup).Fig8},
	{Name: "fig9", Run: (*Setup).Fig9},
	{Name: "fig10", Run: (*Setup).Fig10},
	{Name: "overhead", Aliases: []string{"sec6.3"}, Run: (*Setup).OverheadTable},
	{Name: "fig11", Run: (*Setup).Fig11},
	{Name: "fig12", Run: (*Setup).Fig12},
	{Name: "fig13", Run: (*Setup).Fig13},
	{Name: "fig14", Run: func(s *Setup) (*Table, error) { return s.Fig14(nil) }},
	{Name: "ablation", Aliases: []string{"nodom"}, Run: (*Setup).AblationNoDOM},
	{Name: "tx2", Aliases: []string{"otherdevice"}, Run: (*Setup).OtherDeviceTX2},
}

// ErrUnknownFigure is returned by LookupFigure for a name that is neither a
// figure's canonical name nor one of its aliases.
var ErrUnknownFigure = errors.New("unknown figure")

// Figures returns a copy of the figure table, in paper order.
func Figures() []Figure { return append([]Figure(nil), figures...) }

// LookupFigure resolves a canonical figure name or alias, ignoring case.
func LookupFigure(name string) (Figure, error) {
	key := strings.ToLower(name)
	for _, f := range figures {
		if f.Name == key || slices.Contains(f.Aliases, key) {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("%w %q", ErrUnknownFigure, name)
}
