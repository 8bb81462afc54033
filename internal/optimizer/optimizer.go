// Package optimizer implements the energy/QoS optimizer of PES: the latency
// cost model based on the classical DVFS law T = Tmem + Ndep/f (Eqn. 1), the
// power look-up table exposed by the ACMP platform, and the construction of
// the constrained-optimization problem (Eqn. 5) whose solution is the
// speculative schedule. The same cost model also powers the reactive EBS
// baseline's per-event configuration choice.
package optimizer

import (
	"time"

	"repro/internal/acmp"
	"repro/internal/ilp"
	"repro/internal/render"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

// maxObservations bounds the per-signature history kept by the cost model.
const maxObservations = 8

// obsPoint is one latency observation: the effective frequency (MHz divided
// by the core's CPI factor) and the observed execution latency.
type obsPoint struct {
	effFreq float64
	latency float64 // µs
}

// CostModel estimates event workloads (Tmem, Ndep) from observed execution
// latencies, exactly as the paper does: once an event signature has been
// observed under two different (effective) frequencies, the two-unknown
// system of Eqn. 1 is solved; with more observations a least-squares fit is
// used; before that, conservative per-interaction defaults apply.
type CostModel struct {
	platform *acmp.Platform
	obs      map[webevent.Signature][]obsPoint
	defaults map[webevent.Interaction]acmp.Workload

	// rev counts Observe calls. Every observation can shift the workload
	// estimate of its signature, so a memoized estimate is valid only while
	// the revision it was computed under is current.
	rev int

	// est memoizes the workload estimate per signature at the current
	// revision, so repeated plans between observations skip the
	// least-squares fit.
	est map[webevent.Signature]estEntry

	// power is the platform's active power for each configuration, in
	// Configs order: the energy of every candidate choice needs it, and
	// the platform's per-cluster power map is a hash lookup.
	power []float64
}

// estEntry is one memoized workload estimate.
type estEntry struct {
	rev      int
	w        acmp.Workload
	measured bool
}

// NewCostModel creates a cost model for the platform.
func NewCostModel(p *acmp.Platform) *CostModel {
	configs := p.Configs()
	power := make([]float64, len(configs))
	for i, cfg := range configs {
		power[i] = p.Power(cfg)
	}
	return &CostModel{
		platform: p,
		power:    power,
		obs:      make(map[webevent.Signature][]obsPoint),
		est:      make(map[webevent.Signature]estEntry),
		defaults: map[webevent.Interaction]acmp.Workload{
			// Conservative (heavier-than-typical) priors so that unknown
			// events are provisioned generously rather than missing QoS.
			webevent.LoadInteraction: {Tmem: 380 * simtime.Millisecond, Cycles: 4400e6},
			webevent.TapInteraction:  {Tmem: 26 * simtime.Millisecond, Cycles: 520e6},
			webevent.MoveInteraction: {Tmem: 3 * simtime.Millisecond, Cycles: 18e6},
		},
	}
}

// effFreq returns the CPI-adjusted frequency of a configuration, so that
// latency = Tmem + Cycles/effFreq holds across core types.
func (c *CostModel) effFreq(cfg acmp.Config) float64 {
	return float64(cfg.FreqMHz) / c.platform.Cluster(cfg.Core).CPI
}

// Observe records a completed execution of an event with the given signature
// on cfg.
func (c *CostModel) Observe(sig webevent.Signature, cfg acmp.Config, execLatency simtime.Duration) {
	pts := append(c.obs[sig], obsPoint{effFreq: c.effFreq(cfg), latency: float64(execLatency)})
	if len(pts) > maxObservations {
		pts = pts[len(pts)-maxObservations:]
	}
	c.obs[sig] = pts
	c.rev++
}

// Estimate returns the estimated workload for the signature and whether the
// estimate comes from measurements (true) or from the per-interaction
// default (false). Estimates are memoized per cost-model revision: the
// underlying fit only changes when Observe records a new sample.
func (c *CostModel) Estimate(sig webevent.Signature) (acmp.Workload, bool) {
	if e, ok := c.est[sig]; ok && e.rev == c.rev {
		return e.w, e.measured
	}
	w, measured := c.estimate(sig)
	c.est[sig] = estEntry{rev: c.rev, w: w, measured: measured}
	return w, measured
}

// estimate computes the estimate afresh (the uncached path of Estimate).
func (c *CostModel) estimate(sig webevent.Signature) (acmp.Workload, bool) {
	pts := c.obs[sig]
	if len(pts) == 0 {
		return c.defaults[sig.Type.Interaction()], false
	}
	// Check whether we have frequency diversity; without it Tmem and Ndep
	// cannot be separated and a fixed memory share is assumed.
	distinct := false
	for _, p := range pts[1:] {
		if p.effFreq != pts[0].effFreq {
			distinct = true
			break
		}
	}
	if !distinct || len(pts) < 2 {
		// Assume the interaction-typical memory share of the latency.
		share := 0.15
		if sig.Type.Interaction() == webevent.LoadInteraction {
			share = 0.20
		}
		mean := 0.0
		meanF := 0.0
		for _, p := range pts {
			mean += p.latency
			meanF += p.effFreq
		}
		mean /= float64(len(pts))
		meanF /= float64(len(pts))
		return acmp.Workload{
			Tmem:   simtime.Duration(mean * share),
			Cycles: int64(mean * (1 - share) * meanF),
		}, true
	}
	// Least-squares fit of latency = Tmem + Cycles * (1/effFreq).
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x := 1 / p.effFreq
		sx += x
		sy += p.latency
		sxx += x * x
		sxy += x * p.latency
	}
	n := float64(len(pts))
	den := n*sxx - sx*sx
	if den == 0 {
		return c.defaults[sig.Type.Interaction()], false
	}
	cycles := (n*sxy - sx*sy) / den
	tmem := (sy - cycles*sx) / n
	if cycles < 0 {
		cycles = 0
	}
	if tmem < 0 {
		tmem = 0
	}
	return acmp.Workload{Tmem: simtime.Duration(tmem), Cycles: int64(cycles)}, true
}

// PickMinEnergyConfig returns the minimum-energy configuration whose
// predicted latency meets the deadline when execution starts at start; when
// no configuration can meet the deadline (a Type I event or a very late
// start) the maximum-performance configuration is returned. This is the
// per-event decision rule of the reactive EBS scheduler. The deadline is
// tightened by the display-submission margin so that frames also reach the
// screen in time.
func (c *CostModel) PickMinEnergyConfig(sig webevent.Signature, start simtime.Time, deadline simtime.Time) acmp.Config {
	budget := deadline.Sub(start) - render.DisplayMargin
	w, _ := c.Estimate(sig)
	best := acmp.Config{}
	bestEnergy := 0.0
	for i, cfg := range c.platform.Configs() {
		lat := c.platform.Latency(w, cfg)
		if simtime.Duration(lat) > budget {
			continue
		}
		e := acmp.EnergyMJ(c.power[i], lat)
		if best.IsZero() || e < bestEnergy {
			best, bestEnergy = cfg, e
		}
	}
	if best.IsZero() {
		return c.platform.MaxPerformance()
	}
	return best
}

// Task is one entry of a speculative schedule: either an outstanding actual
// event or a predicted future event, with the configuration the optimizer
// assigned to it.
type Task struct {
	// Event is the outstanding actual event, or nil for a predicted event.
	Event *webevent.Event
	// Type is the event type (for predicted events).
	Type webevent.Type
	// Signature keys the cost model.
	Signature webevent.Signature
	// ExpectedTrigger is when the event is (expected to be) triggered.
	ExpectedTrigger simtime.Time
	// Deadline is the absolute QoS deadline used in the optimization.
	Deadline simtime.Time
	// Config is the assigned ACMP configuration (filled by Schedule).
	Config acmp.Config
	// EstimatedLatency is the cost model's latency estimate under Config
	// (the latency of the solver's chosen choice).
	EstimatedLatency simtime.Duration
}

// SolverCounts are the deterministic counters of a scheduler's
// constrained-optimization work. They are a pure function of the simulated
// session, so they travel in every engine.Result and sum across sessions,
// batches and campaigns.
type SolverCounts struct {
	// Solves counts ilp.Solver calls: one per plan.
	Solves int `json:"solves" metric:"pes_solver_solves_total" help:"ilp.Solver calls across unique runs."`
	// Nodes sums the branch-and-bound candidates explored across solves.
	Nodes int64 `json:"nodes" metric:"pes_solver_nodes_total" help:"Branch-and-bound nodes explored across unique runs."`
	// PlanCacheHits is always 0: neither scheduler caches plans, because
	// real session horizons never repeat (start times advance). The field
	// stays because stored results, the binary shard frame and the
	// end-to-end benchmark harness carry it; dropping it needs a frame
	// version bump and a benchmark change.
	PlanCacheHits int `json:"plan_cache_hits" metric:"pes_solver_plan_cache_hits_total" help:"Always 0: the schedulers keep no plan cache (kept for scrape compatibility)."`
	// BudgetAborts counts solves that exhausted the branch-and-bound node
	// budget, returning a traversal artifact instead of a proven optimum.
	// Zero on the PES path and on Oracle v2's fast-path windows; Oracle v1's
	// hardest windows abort by design (that is what pins its figures).
	BudgetAborts int `json:"budget_aborts" metric:"pes_solver_budget_aborts_total" help:"Solves that exhausted the branch-and-bound node budget."`
}

// Add returns the element-wise sum of two counter records.
func (s SolverCounts) Add(o SolverCounts) SolverCounts {
	return SolverCounts{
		Solves:        s.Solves + o.Solves,
		Nodes:         s.Nodes + o.Nodes,
		PlanCacheHits: s.PlanCacheHits + o.PlanCacheHits,
		BudgetAborts:  s.BudgetAborts + o.BudgetAborts,
	}
}

// SolverStats is one scheduler instance's solver record: the counters plus
// the solver's wall time, a host measurement that reaches the batch runner
// through batch.Session.Run and never enters a result.
type SolverStats struct {
	SolverCounts
	// WallNS is the wall-clock time spent inside the solver, in nanoseconds.
	WallNS int64 `json:"wall_ns"`
}

// Wall returns the solver wall time as a duration.
func (s SolverStats) Wall() time.Duration { return time.Duration(s.WallNS) }

// Record accounts one solve that began at begun and returned sol.
func (s *SolverStats) Record(sol ilp.Assignment, begun time.Time) {
	s.WallNS += time.Since(begun).Nanoseconds()
	s.Solves++
	s.Nodes += int64(sol.Nodes)
	if sol.Aborted() {
		s.BudgetAborts++
	}
}

// Optimizer assembles and solves the constrained optimization problem over
// outstanding plus predicted events.
type Optimizer struct {
	platform *acmp.Platform
	cost     *CostModel

	stats  SolverStats
	solver ilp.Solver

	// Reusable solve buffers: the problem's item list and one flat backing
	// array for all items' choice lists. The solver does not retain the
	// problem, and an Optimizer belongs to one scheduler instance (single
	// goroutine), so recycling them across solves is safe.
	itemsBuf  []ilp.Item
	choiceBuf []ilp.Choice
}

// New creates an optimizer using the given cost model, which must model
// the same platform p.
func New(p *acmp.Platform, cost *CostModel) *Optimizer {
	return &Optimizer{platform: p, cost: cost}
}

// Cost exposes the cost model (shared with the EBS fallback path).
func (o *Optimizer) Cost() *CostModel { return o.cost }

// Stats returns the accumulated solver statistics.
func (o *Optimizer) Stats() SolverStats { return o.stats }

// Schedule assigns a configuration to every task such that the total
// predicted energy is minimized while each task finishes by its deadline
// when execution starts at start (Eqn. 5). Infeasible deadlines (Type I
// events) are met as early as possible. It returns whether all original
// deadlines are predicted to be met.
func (o *Optimizer) Schedule(start simtime.Time, tasks []*Task) bool {
	if len(tasks) == 0 {
		return true
	}

	// Build the problem on the reusable buffers: one Item per task, all
	// choice lists carved out of one flat backing array.
	configs := o.platform.Configs()
	nc := len(configs)
	if cap(o.itemsBuf) < len(tasks) {
		o.itemsBuf = make([]ilp.Item, 0, 2*len(tasks))
	}
	if cap(o.choiceBuf) < len(tasks)*nc {
		o.choiceBuf = make([]ilp.Choice, 2*len(tasks)*nc)
	}
	prob := ilp.Problem{Start: start, Items: o.itemsBuf[:0]}
	for ti, t := range tasks {
		choices := o.choiceBuf[ti*nc : ti*nc : (ti+1)*nc]
		w, _ := o.cost.Estimate(t.Signature)
		for ci, cfg := range configs {
			lat := o.platform.Latency(w, cfg)
			choices = append(choices, ilp.Choice{
				Latency: lat,
				Energy:  acmp.EnergyMJ(o.cost.power[ci], lat),
			})
		}
		prob.Items = append(prob.Items, ilp.Item{
			Deadline: t.Deadline.Add(-render.DisplayMargin),
			Choices:  choices,
		})
	}
	begun := time.Now()
	sol := o.solver.Solve(prob)
	o.stats.Record(sol, begun)
	for i, t := range tasks {
		c := sol.Choice[i]
		t.Config = configs[c]
		t.EstimatedLatency = prob.Items[i].Choices[c].Latency
	}
	return sol.Feasible
}
