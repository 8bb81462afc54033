// Package server is the simulation-as-a-service layer: a long-running HTTP
// service that accepts simulation campaigns, executes them on the concurrent
// batch runner, and shares one process-wide memo cache across every request,
// so overlapping campaigns (and figure requests) simulate each unique
// session exactly once.
package server

import (
	"fmt"
	"slices"
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
// application, one column per scheduler label, averaged over trace seeds.
// Sessions without a result (failed batch entries) are skipped. results must
// be index-aligned with the plan's specs, as returned by the batch runner or
// the cluster.
func (p *Plan) Tables(results []*engine.Result) []*experiments.Table {
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
	return []*experiments.Table{energy, qos, p.percentileTable(results)}
}

// percentileTable aggregates the per-event latency distribution of each
// scheduler label against its QoS targets: tail latencies (p50/p95/p99 in
// milliseconds), the tail of the latency-to-QoS-target ratio (a ratio above
// 1 is a violation; p99_qos_ratio says how deep the worst events cut into
// their deadlines), and the overall violation percentage. Means hide tails;
// under a heavy-traffic framing the p95/p99 columns are what a QoS budget
// is set against.
func (p *Plan) percentileTable(results []*engine.Result) *experiments.Table {
	// One distribution per label, in first-seen order; each result looks
	// its label up once, not once per outcome.
	type dist struct {
		label             string
		latencies, ratios []float64
		violations        int
	}
	var dists []*dist
	byLabel := map[string]*dist{}
	for i, r := range results {
		if i >= len(p.Meta) || r == nil {
			continue
		}
		d := byLabel[p.Meta[i].Label]
		if d == nil {
			d = &dist{label: p.Meta[i].Label}
			byLabel[d.label] = d
			dists = append(dists, d)
		}
		d.latencies = slices.Grow(d.latencies, len(r.Outcomes))
		d.ratios = slices.Grow(d.ratios, len(r.Outcomes))
		for _, o := range r.Outcomes {
			d.latencies = append(d.latencies, float64(o.Latency)/float64(simtime.Millisecond))
			d.ratios = append(d.ratios, float64(o.Latency)/float64(o.Event.QoSTarget()))
			if o.Violated {
				d.violations++
			}
		}
	}
	tab := &experiments.Table{
		ID:      "latency_percentiles",
		Title:   "Per-scheduler event latency percentiles vs QoS target (all sessions pooled)",
		Columns: []string{"p50_ms", "p95_ms", "p99_ms", "p95_qos_ratio", "p99_qos_ratio", "violation_pct"},
	}
	for _, d := range dists {
		ls, rs := d.latencies, d.ratios
		if len(ls) == 0 {
			continue
		}
		// Sort each slice once and read every percentile from it (the
		// slices are this call's own, so sorting in place is safe).
		sort.Float64s(ls)
		sort.Float64s(rs)
		tab.AddRow(d.label,
			stats.PercentileSorted(ls, 50),
			stats.PercentileSorted(ls, 95),
			stats.PercentileSorted(ls, 99),
			stats.PercentileSorted(rs, 95),
			stats.PercentileSorted(rs, 99),
			100*float64(d.violations)/float64(len(ls)),
		)
	}
	return tab
}
