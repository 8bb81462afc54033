package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/acmp"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/sessions"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/webapp"
)

// percentileTableReference is Plan.percentileTable as it was before it
// indexed each label once and sorted each slice once: a map append per
// outcome and stats.Percentile, which copies and sorts, per cell. Kept as
// the reference the table is pinned to.
func percentileTableReference(p *Plan, results []*engine.Result) *experiments.Table {
	var labels []string
	latencies := map[string][]float64{}
	ratios := map[string][]float64{}
	violations := map[string]int{}
	for i, r := range results {
		if i >= len(p.Meta) || r == nil {
			continue
		}
		label := p.Meta[i].Label
		if _, ok := latencies[label]; !ok {
			labels = append(labels, label)
		}
		for _, o := range r.Outcomes {
			latencies[label] = append(latencies[label], float64(o.Latency)/float64(simtime.Millisecond))
			ratios[label] = append(ratios[label], float64(o.Latency)/float64(o.Event.QoSTarget()))
			if o.Violated {
				violations[label]++
			}
		}
	}
	tab := &experiments.Table{
		ID:      "latency_percentiles",
		Title:   "Per-scheduler event latency percentiles vs QoS target (all sessions pooled)",
		Columns: []string{"p50_ms", "p95_ms", "p99_ms", "p95_qos_ratio", "p99_qos_ratio", "violation_pct"},
	}
	for _, label := range labels {
		ls, rs := latencies[label], ratios[label]
		if len(ls) == 0 {
			continue
		}
		tab.AddRow(label,
			stats.Percentile(ls, 50),
			stats.Percentile(ls, 95),
			stats.Percentile(ls, 99),
			stats.Percentile(rs, 95),
			stats.Percentile(rs, 99),
			100*float64(violations[label])/float64(len(ls)),
		)
	}
	return tab
}

// tablesReference is Plan.Tables as it was before it built its tables in
// a reusable scratch: a map of cells keyed by app and label, rows appended
// one by one, and percentileTableReference. Kept as the reference the
// tables are pinned to.
func tablesReference(p *Plan, results []*engine.Result) []*experiments.Table {
	var labels, apps []string
	haveLabel := map[string]bool{}
	haveApp := map[string]bool{}
	type cell struct{ energy, viol, n float64 }
	cells := map[[2]string]*cell{}
	for i, r := range results {
		if i >= len(p.Meta) || r == nil {
			continue
		}
		m := p.Meta[i]
		if !haveLabel[m.Label] {
			haveLabel[m.Label] = true
			labels = append(labels, m.Label)
		}
		if !haveApp[m.App] {
			haveApp[m.App] = true
			apps = append(apps, m.App)
		}
		k := [2]string{m.App, m.Label}
		c := cells[k]
		if c == nil {
			c = &cell{}
			cells[k] = c
		}
		c.energy += r.TotalEnergyMJ
		c.viol += 100 * r.ViolationRate
		c.n++
	}
	energy := &experiments.Table{
		ID:      "energy",
		Title:   "Total energy per session (mJ, averaged over trace seeds)",
		Columns: labels,
	}
	qos := &experiments.Table{
		ID:      "qos",
		Title:   "QoS violation (%, averaged over trace seeds)",
		Columns: labels,
	}
	for _, app := range apps {
		eRow := make([]float64, len(labels))
		vRow := make([]float64, len(labels))
		for j, label := range labels {
			if c := cells[[2]string{app, label}]; c != nil && c.n > 0 {
				eRow[j] = c.energy / c.n
				vRow[j] = c.viol / c.n
			}
		}
		energy.AddRow(app, eRow...)
		qos.AddRow(app, vRow...)
	}
	return []*experiments.Table{energy, qos, percentileTableReference(p, results)}
}

// TestTablesMatchReference: the tables encode to tablesReference's bytes
// (encoding/json writes the shortest text that round-trips, so equal bytes
// are equal bits), on the pool campaign and on plans out of plan order:
// reversed, with failed sessions, with an app and a label seen once, with
// no result at all, and with more results than metadata. One scratch
// serves every plan in turn, as a job worker's does, so a later plan must
// not see an earlier one's sums.
func TestTablesMatchReference(t *testing.T) {
	s := testServer(t)
	j := poolCampaignJob(t, s)
	n := len(j.results)
	reversed := &Plan{Meta: slices.Clone(j.plan.Meta)}
	slices.Reverse(reversed.Meta)
	backwards := slices.Clone(j.results)
	slices.Reverse(backwards)
	holes := slices.Clone(j.results)
	for i := range holes {
		if i%4 == 1 {
			holes[i] = nil
		}
	}
	odd := &Plan{Meta: slices.Clone(j.plan.Meta)}
	odd.Meta[n-1].App, odd.Meta[n-1].Label = "solo-app", "solo-label"
	cases := []struct {
		name    string
		plan    *Plan
		results []*engine.Result
	}{
		{"pool", j.plan, j.results},
		{"reversed", reversed, backwards},
		{"failed sessions", j.plan, holes},
		{"one-off app and label", odd, j.results},
		{"no results", j.plan, make([]*engine.Result, n)},
		{"results past the metadata", &Plan{Meta: j.plan.Meta[:n/2]}, j.results},
		{"pool again", j.plan, j.results},
	}
	var scratch tableScratch
	for _, c := range cases {
		want, err := json.Marshal(tablesReference(c.plan, c.results))
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range [][]*experiments.Table{c.plan.Tables(c.results), scratch.tables(c.plan, c.results)} {
			if b, err := json.Marshal(got); err != nil || !bytes.Equal(b, want) {
				t.Errorf("%s: tables (err %v)\n%s\nwant\n%s", c.name, err, b, want)
			}
		}
	}
}

// TestPercentileTableMatchesReference pins the latency-percentile table of
// the pool campaign, bit for bit, to percentileTableReference.
func TestPercentileTableMatchesReference(t *testing.T) {
	s := testServer(t)
	j := poolCampaignJob(t, s)
	got := j.plan.Tables(j.results)[2]
	want := percentileTableReference(j.plan, j.results)
	if got.ID != want.ID || got.Title != want.Title || len(got.Columns) != len(want.Columns) {
		t.Fatalf("table header %q/%q/%v, want %q/%q/%v", got.ID, got.Title, got.Columns, want.ID, want.Title, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) || len(want.Rows) != 6 {
		t.Fatalf("%d rows, want %d (the reference's) and 6 (five schedulers plus the swept PES point)", len(got.Rows), len(want.Rows))
	}
	for i, row := range got.Rows {
		ref := want.Rows[i]
		if row.Label != ref.Label || len(row.Values) != len(ref.Values) {
			t.Fatalf("row %d is %q with %d values, want %q with %d", i, row.Label, len(row.Values), ref.Label, len(ref.Values))
		}
		for k, v := range row.Values {
			if math.Float64bits(v) != math.Float64bits(ref.Values[k]) {
				t.Errorf("%s %s = %v, want %v bit for bit", row.Label, got.Columns[k], v, ref.Values[k])
			}
		}
	}
}

// TestExpandBoundsPredictor: Expand accepts a predictor override only with
// its threshold in (0, 1] and its max degree in [1, MaxDegreeLimit] (a
// zero field keeps the default), and rejects a campaign whose override
// leaves those bounds whichever schedulers it names.
func TestExpandBoundsPredictor(t *testing.T) {
	setup := &experiments.Setup{Config: experiments.Config{Predictor: predictor.DefaultConfig()}}
	for _, c := range []struct {
		spec PredictorSpec
		ok   bool
	}{
		{PredictorSpec{}, true},
		{PredictorSpec{ConfidenceThreshold: 1, MaxDegree: 1}, true},
		{PredictorSpec{ConfidenceThreshold: 5e-324, MaxDegree: predictor.MaxDegreeLimit}, true},
		{PredictorSpec{ConfidenceThreshold: -1, MaxDegree: 100000}, false},
		{PredictorSpec{ConfidenceThreshold: -1}, false},
		{PredictorSpec{ConfidenceThreshold: math.Nextafter(1, 2)}, false},
		{PredictorSpec{ConfidenceThreshold: math.NaN()}, false},
		{PredictorSpec{MaxDegree: -1}, false},
		{PredictorSpec{MaxDegree: predictor.MaxDegreeLimit + 1}, false},
	} {
		for _, scheds := range [][]string{{sessions.PES}, {sessions.EBS}} {
			spec := c.spec
			plan, err := Campaign{Apps: []string{"cnn"}, Schedulers: scheds, Predictor: &spec}.Expand(setup)
			if (err == nil) != c.ok || (plan == nil) == c.ok {
				t.Errorf("%v with %+v: plan %v, error %v; want accepted %t", scheds, c.spec, plan, err, c.ok)
			}
		}
	}
}

// FuzzCampaignExpand feeds fuzzed bodies through the campaign POST's
// decoder and Campaign.Expand. Neither may panic; a body the decoder
// refuses answers 400 or 413; a rejected campaign returns an error and no
// plan; an accepted plan has one spec per metadata row, between 1 and
// cluster.MaxSessions of them, each naming a canonical scheduler, platform
// and app, and agreeing with its metadata, and every PES spec's predictor
// is within predictor.Config.Validate's bounds. The seed corpus is in
// testdata/fuzz/FuzzCampaignExpand. Expand reads only the setup's
// predictor defaults, so no predictor is trained.
func FuzzCampaignExpand(f *testing.F) {
	setup := &experiments.Setup{Config: experiments.Config{Predictor: predictor.DefaultConfig()}}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(body))
		var c Campaign
		if !decodeBody(w, r, maxCampaignBytes, "campaign", &c) {
			if w.Code != http.StatusBadRequest && w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("undecodable body answered %d", w.Code)
			}
			return
		}
		plan, err := c.Expand(setup)
		if err != nil {
			if plan != nil || err.Error() == "" {
				t.Fatalf("rejected campaign returned plan %v and error %q", plan, err)
			}
			return
		}
		if n := len(plan.Meta); n != len(plan.Specs) || n < 1 || n > cluster.MaxSessions {
			t.Fatalf("plan has %d metadata rows and %d specs, want the same count in [1, %d]", n, len(plan.Specs), cluster.MaxSessions)
		}
		for i, m := range plan.Meta {
			spec := plan.Specs[i]
			if canon, err := sessions.Canonical(m.Scheduler); err != nil || canon != m.Scheduler {
				t.Fatalf("session %d names scheduler %q, not a canonical name", i, m.Scheduler)
			}
			if p, err := acmp.ByName(m.Platform); err != nil || p.Name != m.Platform {
				t.Fatalf("session %d names platform %q, not a canonical name", i, m.Platform)
			}
			if a, err := webapp.ByName(m.App); err != nil || a.Name != m.App {
				t.Fatalf("session %d names app %q, not a canonical name", i, m.App)
			}
			if spec.Platform != m.Platform || spec.App != m.App || spec.TraceSeed != m.TraceSeed || spec.Scheduler != m.Scheduler {
				t.Fatalf("session %d: spec %+v disagrees with its metadata %+v", i, spec, m)
			}
			if th, deg := spec.Predictor.ConfidenceThreshold, spec.Predictor.MaxDegree; spec.Scheduler == sessions.PES &&
				!(th > 0 && th <= 1 && deg >= 1 && deg <= predictor.MaxDegreeLimit) {
				t.Fatalf("session %d: PES predictor %+v outside threshold (0, 1] and degree [1, %d]", i, spec.Predictor, predictor.MaxDegreeLimit)
			}
		}
	})
}
