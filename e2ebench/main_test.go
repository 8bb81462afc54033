package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// runJSON runs the benchmark at test scale — three timed campaigns, three
// sampled — and decodes its result line.
func runJSON(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append(args, "-campaigns", "3", "-sample", "3", "-dir", t.TempDir())
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last stdout line is not the result object: %v\n%s", err, out.String())
	}
	return res
}

// TestWorkloadsReportEveryMetric runs every workload untraced and traced
// and checks that each prints exactly its metrics, each with its unit, with
// no failed campaign and a passing correctness check.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	// The warm-up decides what the timed campaigns meet: none leaves them
	// fresh to every cache; one pass over the pool puts the repeat pool in
	// the memo cache.
	warmup := map[string]string{"fresh-inproc": "0", "repeat-cluster": "-1"}
	for _, w := range workloads {
		for _, mode := range []struct {
			flag  string
			specs []metricSpec
		}{{"0", endToEnd}, {"1", perLayer}} {
			res := runJSON(t, "-workload", w.name, "-seed", "7", "-trace", mode.flag, "-warmup", warmup[w.name])
			if !res.Correct || res.Failed != 0 || res.Attempted != 6 {
				t.Errorf("%s -trace %s: correct=%v failed=%d attempted=%d, want true/0/6",
					w.name, mode.flag, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(mode.specs) {
				t.Errorf("%s -trace %s: %d metrics, want %d", w.name, mode.flag, len(res.Metrics), len(mode.specs))
			}
			for _, m := range mode.specs {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s -trace %s: metric %s = %+v, want unit %q", w.name, mode.flag, m.name, got, m.unit)
				}
			}
			if mode.flag == "0" {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, m.name, res.Metrics[m.name].Value)
					}
				}
				continue
			}
			hit := res.Metrics["batch.memo_hit_ratio"].Value
			switch w.name {
			case "repeat-cluster":
				// A rare work steal re-simulates a session on the other
				// worker once; every other session is a memo hit.
				if hit < 0.99 {
					t.Errorf("repeat-cluster memo hit ratio %v, want 1", hit)
				}
			case "fresh-inproc":
				if hit != 0 {
					t.Errorf("fresh-inproc memo hit ratio %v, want 0", hit)
				}
			}
		}
	}
}

// TestCheckRejectsAlteredRow feeds the correctness check rows rebuilt from
// its own re-simulation: they pass as they are and fail once one row is
// altered or two rows swap places.
func TestCheckRejectsAlteredRow(t *testing.T) {
	ck, err := newChecker(2)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedRows(poolCampaign(3))
	if err := ck.simulate(want); err != nil {
		t.Fatal(err)
	}
	served := func() []server.ResultRow {
		rows := make([]server.ResultRow, len(want))
		for i, k := range want {
			res := *ck.sims[k]
			rows[i] = server.ResultRow{
				SessionMeta: server.SessionMeta{App: k.App, TraceSeed: k.TraceSeed, Scheduler: k.Scheduler, ConfidenceThreshold: k.Threshold},
				Result:      &res,
			}
		}
		return rows
	}
	if err := compareRows(served(), want, ck.sims); err != nil {
		t.Fatalf("unaltered rows rejected: %v", err)
	}

	rows := served()
	rows[4].Result.TotalEnergyMJ *= 1.0001
	if err := compareRows(rows, want, ck.sims); err == nil {
		t.Error("a row with altered energy passed the check")
	}
	rows = served()
	rows[3].Result.Solver.Nodes++
	if err := compareRows(rows, want, ck.sims); err == nil {
		t.Error("a row with an altered solver node count passed the check")
	}
	rows = served()
	rows[0], rows[1] = rows[1], rows[0]
	if err := compareRows(rows, want, ck.sims); err == nil {
		t.Error("swapped rows passed the check")
	}
	if err := compareRows(served()[1:], want, ck.sims); err == nil {
		t.Error("a missing row passed the check")
	}
}

// TestCampaigns pins the campaign pools: 18 sessions per campaign, a
// distinct trace seed per pool campaign, and a seeded order that visits the
// whole pool before repeating it.
func TestCampaigns(t *testing.T) {
	seen := map[int64]bool{}
	for j := 0; j < poolSize; j++ {
		c := poolCampaign(j)
		if n := len(expectedRows(c)); n != sessionsPerCampaign {
			t.Fatalf("pool campaign %d expands to %d sessions, want %d", j, n, sessionsPerCampaign)
		}
		if seen[c.TraceSeeds[0]] {
			t.Fatalf("trace seed %d repeats inside the pool", c.TraceSeeds[0])
		}
		seen[c.TraceSeeds[0]] = true
	}
	for _, w := range workloads {
		order := w.schedule(5)
		visited := map[int]bool{}
		for i := 0; i < w.pool; i++ {
			visited[order[i]] = true
			if !reflect.DeepEqual(order.campaign(i), order.campaign(i+w.pool)) {
				t.Fatalf("%s: campaign %d differs from campaign %d", w.name, i, i+w.pool)
			}
		}
		if len(visited) != w.pool {
			t.Errorf("%s: one pass visits %d of %d pool campaigns", w.name, len(visited), w.pool)
		}
		if !reflect.DeepEqual(order, w.schedule(5)) {
			t.Errorf("%s: seed 5 orders the pool differently on a second call", w.name)
		}
		if reflect.DeepEqual(order, w.schedule(6)) {
			t.Errorf("%s: seeds 5 and 6 order the pool the same way", w.name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the workloads and metrics the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var ws, e2e, layers []named
	for _, w := range workloads {
		ws = append(ws, named{Name: w.name})
	}
	for _, m := range endToEnd {
		e2e = append(e2e, named{m.name, m.unit})
	}
	for _, m := range perLayer {
		layers = append(layers, named{m.name, m.unit})
	}
	if !reflect.DeepEqual(doc.Workloads, ws) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", doc.Workloads, ws)
	}
	if !reflect.DeepEqual(doc.EndToEnd, e2e) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", doc.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(doc.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark prints %v", doc.PerLayer, layers)
	}
}

// TestHeadline checks the paper's headline quantities on hand-made rows.
func TestHeadline(t *testing.T) {
	row := func(label string, energy float64, events, violations int) server.ResultRow {
		return server.ResultRow{
			SessionMeta: server.SessionMeta{Label: label},
			Result:      &engine.Result{TotalEnergyMJ: energy, Violations: violations, Outcomes: make([]engine.Outcome, events)},
		}
	}
	var h headline
	h.add([]server.ResultRow{
		row("Interactive", 200, 10, 0),
		row("PES", 150, 10, 1),
		row("PES@30%", 999, 10, 10), // the swept point is not the headline
		row("EBS", 999, 10, 10),
	})
	if got := h.energyPct(); got != 75 {
		t.Errorf("energy %v%% of Interactive, want 75", got)
	}
	if got := h.qosViolationPct(); got != 10 {
		t.Errorf("QoS violation %v%%, want 10", got)
	}

	// The same rows in another order give the same bits, although summing
	// these energies in submission order would not.
	energies := []float64{1e16, 1, -1e16, 0.1, 0.2, 0.3}
	var forward, backward headline
	for i := range energies {
		forward.add([]server.ResultRow{row("PES", energies[i], 1, 0), row("Interactive", 1, 1, 0)})
		backward.add([]server.ResultRow{row("PES", energies[len(energies)-1-i], 1, 0), row("Interactive", 1, 1, 0)})
	}
	if f, b := forward.energyPct(), backward.energyPct(); f != b {
		t.Errorf("energy share depends on row order: %v vs %v", f, b)
	}
}

// TestScaled checks the host scaling of the timed phase: a step in the
// host's speed is followed campaign by campaign, latencies and the clock
// are divided by the slowdown, and the campaigns after the last whole block
// are kept.
func TestScaled(t *testing.T) {
	// A campaign takes 10 ms on the reference host. The host runs at
	// reference speed for the first block and twice as slowly after it, for
	// a second block and half a block more.
	var tm timing
	var clock time.Duration
	for i := 0; i < 2*rateBlock+rateBlock/2; i++ {
		slow := 1.0
		if i >= rateBlock {
			slow = 2
		}
		clock += time.Duration(slow * float64(10*time.Millisecond))
		tm.latencies = append(tm.latencies, 10*slow)
		tm.completed = append(tm.completed, clock)
		tm.slowdowns = append(tm.slowdowns, slow)
	}
	latencies, rate := tm.scaled()
	if len(latencies) != len(tm.latencies) {
		t.Fatalf("%d scaled latencies, want %d", len(latencies), len(tm.latencies))
	}
	for i, l := range latencies {
		if l != 10 {
			t.Fatalf("scaled latency %d is %v ms, want 10", i, l)
		}
	}
	if want := sessionsPerCampaign / 0.010; math.Abs(rate-want) > 1e-9*want {
		t.Errorf("scaled rate %v sessions/s, want %v", rate, want)
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "fresh-inproc", "-trace", "2"},
		{"-workload", "fresh-inproc", "-seconds", "0"},
		{"-nosuchflag"},
	} {
		var out, errOut bytes.Buffer
		if err := run(append(args, "-dir", t.TempDir()), &out, &errOut); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed a result: %q", args, out.String())
		}
	}
}
