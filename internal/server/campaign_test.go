package server

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/simtime"
	"repro/internal/stats"
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

// TestPercentileTableMatchesReference pins the latency-percentile table of
// the pool campaign, bit for bit, to percentileTableReference.
func TestPercentileTableMatchesReference(t *testing.T) {
	s := testServer(t)
	j := poolCampaignJob(t, s)
	got := j.plan.percentileTable(j.results)
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
