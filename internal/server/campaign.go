// Package server is the simulation-as-a-service layer: a long-running HTTP
// service that accepts simulation campaigns, executes them on the concurrent
// batch runner, and shares one process-wide memo cache across every request,
// so overlapping campaigns (and figure requests) simulate each unique
// session exactly once.
package server

import (
	"fmt"
	"sort"

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

// Campaign is one simulation campaign request: the cross product of
// applications, trace seeds and schedulers on one platform, optionally
// extended by a predictor sensitivity sweep. Every field is optional; the
// zero Campaign expands to the full scheduler comparison of every
// application on one seed.
type Campaign struct {
	// Platform names the hardware model: "exynos5410" (default) or "tx2"
	// (case-insensitive; the canonical model names are accepted too).
	Platform string `json:"platform,omitempty"`
	// Apps lists the applications to simulate; empty means the full
	// 18-application suite.
	Apps []string `json:"apps,omitempty"`
	// TraceSeeds lists the user/session seeds to generate traces from;
	// empty means seed 1.
	TraceSeeds []int64 `json:"trace_seeds,omitempty"`
	// Schedulers lists the schedulers to compare; empty means all five.
	Schedulers []string `json:"schedulers,omitempty"`
	// Predictor overrides the PES predictor configuration.
	Predictor *PredictorSpec `json:"predictor,omitempty"`
	// Sweep adds a sensitivity sweep on top of the base campaign.
	Sweep *Sweep `json:"sweep,omitempty"`
}

// PredictorSpec is the JSON form of the PES predictor configuration. Zero
// fields keep the paper defaults.
type PredictorSpec struct {
	ConfidenceThreshold float64 `json:"confidence_threshold,omitempty"`
	MaxDegree           int     `json:"max_degree,omitempty"`
	// UseDOMAnalysis defaults to true when omitted.
	UseDOMAnalysis *bool `json:"use_dom_analysis,omitempty"`
}

// Sweep describes an optional sensitivity sweep: extra PES sessions are
// added for each confidence threshold (reactive schedulers and the Oracle
// ignore the predictor, so only PES is swept).
type Sweep struct {
	ConfidenceThresholds []float64 `json:"confidence_thresholds,omitempty"`
}

// SessionMeta labels one expanded session of a campaign; results rows carry
// it alongside the engine result.
type SessionMeta struct {
	Platform  string `json:"platform"`
	App       string `json:"app"`
	TraceSeed int64  `json:"trace_seed"`
	Scheduler string `json:"scheduler"`
	// ConfidenceThreshold is set on PES sessions only.
	ConfidenceThreshold float64 `json:"confidence_threshold,omitempty"`
	// Label is the scheduler presentation label; for swept PES sessions it
	// carries the threshold (e.g. "PES@50%").
	Label string `json:"label"`
}

// Plan is a validated, fully expanded campaign: one self-describing wire
// spec per session and, index-aligned, the metadata describing it. A plan
// holds no runnable sessions; cluster.BuildSessions turns its Specs into
// them when the campaign runs, in-process or on a worker.
type Plan struct {
	Meta  []SessionMeta
	Specs []cluster.SessionSpec
}

// predictorConfig merges a PredictorSpec over the setup's base configuration.
func predictorConfig(base predictor.Config, spec *PredictorSpec) predictor.Config {
	if spec == nil {
		return base
	}
	cfg := base
	if spec.ConfidenceThreshold != 0 {
		cfg.ConfidenceThreshold = spec.ConfidenceThreshold
	}
	if spec.MaxDegree != 0 {
		cfg.MaxDegree = spec.MaxDegree
	}
	if spec.UseDOMAnalysis != nil {
		cfg.UseDOMAnalysis = *spec.UseDOMAnalysis
	}
	return cfg
}

// Expand validates the campaign and expands it into wire specs, filling in
// the setup's predictor defaults. The merged predictor configuration must
// pass predictor.Config.Validate. The expansion is the
// apps × seeds × schedulers cross product at the base predictor
// configuration, plus one extra PES pass per distinct sweep threshold. It
// never touches the artifact store: no trace is generated until the plan
// runs.
func (c Campaign) Expand(setup *experiments.Setup) (*Plan, error) {
	platform, err := acmp.ByName(c.Platform)
	if err != nil {
		return nil, err
	}

	var apps []*webapp.Spec
	if len(c.Apps) == 0 {
		apps = webapp.Registry()
	} else {
		for _, name := range c.Apps {
			spec, err := webapp.ByName(name)
			if err != nil {
				return nil, err
			}
			apps = append(apps, spec)
		}
	}

	seeds := c.TraceSeeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}

	var scheds []string
	if len(c.Schedulers) == 0 {
		scheds = sessions.Names()
	} else {
		for _, name := range c.Schedulers {
			canon, err := sessions.Canonical(name)
			if err != nil {
				return nil, err
			}
			scheds = append(scheds, canon)
		}
	}

	baseCfg := predictorConfig(setup.Config.Predictor, c.Predictor)
	if err := baseCfg.Validate(); err != nil {
		return nil, err
	}

	// Distinct sweep thresholds beyond the base configuration, in ascending
	// order so the expansion (and the results rows) are deterministic.
	var sweepThresholds []float64
	if c.Sweep != nil {
		seen := map[float64]bool{baseCfg.ConfidenceThreshold: true}
		for _, th := range c.Sweep.ConfidenceThresholds {
			cfg := baseCfg
			cfg.ConfidenceThreshold = th
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			if !seen[th] {
				seen[th] = true
				sweepThresholds = append(sweepThresholds, th)
			}
		}
		sort.Float64s(sweepThresholds)
	}
	// Every factor is at least 1; dividing cannot overflow.
	if perSeed := len(scheds) + len(sweepThresholds); len(apps) > cluster.MaxSessions/len(seeds)/perSeed {
		return nil, fmt.Errorf("campaign expands to %d apps × %d seeds × %d sessions, more than the %d-session limit",
			len(apps), len(seeds), perSeed, cluster.MaxSessions)
	}

	plan := &Plan{}
	add := func(app *webapp.Spec, seed int64, schedName string, cfg predictor.Config, label string) {
		meta := SessionMeta{
			Platform:  platform.Name,
			App:       app.Name,
			TraceSeed: seed,
			Scheduler: schedName,
			Label:     label,
		}
		spec := cluster.SessionSpec{
			Platform:  platform.Name,
			App:       app.Name,
			TraceSeed: seed,
			Scheduler: schedName,
			Predictor: cfg,
		}
		if schedName == sessions.PES {
			meta.ConfidenceThreshold = cfg.ConfidenceThreshold
		}
		plan.Meta = append(plan.Meta, meta)
		plan.Specs = append(plan.Specs, spec)
	}
	for _, app := range apps {
		for _, seed := range seeds {
			for _, name := range scheds {
				add(app, seed, name, baseCfg, name)
			}
			for _, th := range sweepThresholds {
				cfg := baseCfg
				cfg.ConfidenceThreshold = th
				label := fmt.Sprintf("%s@%d%%", sessions.PES, int(th*100+0.5))
				add(app, seed, sessions.PES, cfg, label)
			}
		}
	}
	if len(plan.Meta) == 0 {
		return nil, fmt.Errorf("campaign expands to zero sessions")
	}
	return plan, nil
}

// Tables aggregates campaign results into the energy and QoS tables the
// figure harness computes (the shape of Fig. 11 and 12): one row per
// application, one column per scheduler label, averaged over trace seeds,
// and the latency-percentile table (see tableScratch.tables). Sessions
// without a result (failed batch entries) are skipped. results must be
// index-aligned with the plan's specs, as returned by the batch runner or
// the cluster.
func (p *Plan) Tables(results []*engine.Result) []*experiments.Table {
	return new(tableScratch).tables(p, results)
}

// tableScratch is the working memory Plan.Tables builds its tables in. A
// job worker keeps one with its reused results buffers, so a warm pending
// encode sizes its slices once and then only reuses them; the tables it
// returns live in the scratch and are valid until its next use.
type tableScratch struct {
	labels, apps []string
	// at holds, per result with a row, its label's and its app's index.
	at []int
	// outcomes and violations count each label's outcomes and violated
	// ones; next is each label's cursor into samples, which holds every
	// label's latencies, in label order, followed by their QoS ratios.
	outcomes, violations, next []int
	samples                    []float64
	cells                      []tableCell // app-major: apps × labels
	values                     []float64   // every row's values
	rows                       []experiments.Row
	out                        [3]experiments.Table
	list                       [3]*experiments.Table
}

// tableCell sums one app's sessions under one label.
type tableCell struct{ energy, viol, n float64 }

var percentileColumns = []string{"p50_ms", "p95_ms", "p99_ms", "p95_qos_ratio", "p99_qos_ratio", "violation_pct"}

// tables builds the three tables in two passes over the results: the
// first indexes each result's label and app and counts outcomes, so the
// second writes cells and samples in place. The percentile table
// aggregates the per-event latency distribution of each scheduler label
// against its QoS targets: tail latencies (p50/p95/p99 in milliseconds),
// the tail of the latency-to-QoS-target ratio (a ratio above 1 is a
// violation; p99_qos_ratio says how deep the worst events cut into their
// deadlines), and the overall violation percentage. Means hide tails;
// under a heavy-traffic framing the p95/p99 columns are what a QoS budget
// is set against.
func (s *tableScratch) tables(p *Plan, results []*engine.Result) []*experiments.Table {
	s.labels, s.apps, s.at = s.labels[:0], s.apps[:0], s.at[:0]
	s.outcomes, s.violations = s.outcomes[:0], s.violations[:0]
	label, app, total := -1, -1, 0
	for i, r := range results {
		if i >= len(p.Meta) || r == nil {
			continue
		}
		// In plan order the next label follows the last one and the app
		// repeats, so each lookup usually costs one comparison.
		m := &p.Meta[i]
		label = indexOf(&s.labels, m.Label, label+1)
		app = indexOf(&s.apps, m.App, app)
		if label == len(s.outcomes) {
			s.outcomes, s.violations = append(s.outcomes, 0), append(s.violations, 0)
		}
		s.outcomes[label] += len(r.Outcomes)
		total += len(r.Outcomes)
		s.at = append(s.at, label, app)
	}
	nl, na := len(s.labels), len(s.apps)

	s.cells = resize(s.cells, na*nl)
	clear(s.cells)
	s.samples = resize(s.samples, 2*total)
	s.next = resize(s.next, nl)
	off := 0
	for l, n := range s.outcomes {
		s.next[l] = off
		off += n
	}
	k := 0
	for i, r := range results {
		if i >= len(p.Meta) || r == nil {
			continue
		}
		label, app := s.at[k], s.at[k+1]
		k += 2
		c := &s.cells[app*nl+label]
		c.energy += r.TotalEnergyMJ
		c.viol += 100 * r.ViolationRate
		c.n++
		at := s.next[label]
		for j, o := range r.Outcomes {
			s.samples[at+j] = float64(o.Latency) / float64(simtime.Millisecond)
			s.samples[total+at+j] = float64(o.Latency) / float64(o.Event.QoSTarget())
			if o.Violated {
				s.violations[label]++
			}
		}
		s.next[label] = at + len(r.Outcomes)
	}

	// The rows and their values are cut from two slices: the energy rows,
	// the QoS rows, then the percentile rows.
	s.values = resize(s.values, 2*na*nl+len(percentileColumns)*nl)
	s.rows = resize(s.rows, 2*na+nl)
	s.out = [3]experiments.Table{{
		ID:      "energy",
		Title:   "Total energy per session (mJ, averaged over trace seeds)",
		Columns: s.labels,
		Rows:    s.rows[:na:na],
	}, {
		ID:      "qos",
		Title:   "QoS violation (%, averaged over trace seeds)",
		Columns: s.labels,
		Rows:    s.rows[na : 2*na : 2*na],
	}, {
		ID:      "latency_percentiles",
		Title:   "Per-scheduler event latency percentiles vs QoS target (all sessions pooled)",
		Columns: percentileColumns,
		Rows:    s.rows[2*na : 2*na],
	}}
	energy, qos, pct := &s.out[0], &s.out[1], &s.out[2]
	for a, name := range s.apps {
		eRow := s.values[a*nl : (a+1)*nl : (a+1)*nl]
		vRow := s.values[(na+a)*nl : (na+a+1)*nl : (na+a+1)*nl]
		for l, c := range s.cells[a*nl : (a+1)*nl] {
			eRow[l], vRow[l] = 0, 0
			if c.n > 0 {
				eRow[l] = c.energy / c.n
				vRow[l] = c.viol / c.n
			}
		}
		energy.Rows[a] = experiments.Row{Label: name, Values: eRow}
		qos.Rows[a] = experiments.Row{Label: name, Values: vRow}
	}
	values := s.values[2*na*nl:]
	off = 0
	for l, n := range s.outcomes {
		ls, rs := s.samples[off:off+n], s.samples[total+off:total+off+n]
		off += n
		if n == 0 {
			continue
		}
		v := values[:len(percentileColumns):len(percentileColumns)]
		values = values[len(percentileColumns):]
		stats.SelectPercentiles(v[0:3], ls, 50, 95, 99)
		stats.SelectPercentiles(v[3:5], rs, 95, 99)
		v[5] = 100 * float64(s.violations[l]) / float64(n)
		pct.Rows = append(pct.Rows, experiments.Row{Label: s.labels[l], Values: v})
	}
	// encoding/json tells nil from empty: a table with no columns or rows
	// carries null, as one built by appending would.
	for t := range s.out {
		if len(s.out[t].Columns) == 0 {
			s.out[t].Columns = nil
		}
		if len(s.out[t].Rows) == 0 {
			s.out[t].Rows = nil
		}
	}
	s.list = [3]*experiments.Table{energy, qos, pct}
	return s.list[:]
}

// indexOf returns the index of name in *list, appending it when absent; it
// tries index hint first.
func indexOf(list *[]string, name string, hint int) int {
	if hint >= 0 && hint < len(*list) && (*list)[hint] == name {
		return hint
	}
	for i, have := range *list {
		if have == name {
			return i
		}
	}
	*list = append(*list, name)
	return len(*list) - 1
}

// resize returns s with length n, reusing its array when it has room.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
