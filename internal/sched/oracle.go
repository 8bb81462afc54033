package sched

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/acmp"
	"repro/internal/ilp"
	"repro/internal/optimizer"
	"repro/internal/render"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

// OracleWindow is how many upcoming events the oracle optimizes over in one
// plan. The paper's oracle knows the entire event sequence; a bounded window
// keeps the ILP tractable while remaining effectively global because plans
// are recomputed as the session progresses.
const OracleWindow = 12

// OracleVersion selects which solver encoding the Oracle runs.
//
// v1 is the paper-exact baseline: the frozen reference-order traversal
// (ilp.Solver.SolveReferenceOrder) whose hardest 12-event windows exhaust
// the node budget, making the published figures artifacts of the traversal
// itself. v2 runs the pruned search (ilp.Solver.Solve, the PES solver): the
// same optimum wherever v1 proved one, provably no worse energy where v1
// was truncated, and roughly the PES hot path's cost per solve.
type OracleVersion int

const (
	// OracleV1 is the frozen paper-exact reference-order solver.
	OracleV1 OracleVersion = 1
	// OracleV2 is the pruned zero-alloc solver.
	OracleV2 OracleVersion = 2
)

// DefaultOracleVersion is the version used when none is requested.
const DefaultOracleVersion = OracleV2

// String renders the version in the canonical flag/wire spelling.
func (v OracleVersion) String() string {
	switch v {
	case OracleV1:
		return "v1"
	case OracleV2:
		return "v2"
	}
	return fmt.Sprintf("v%d", int(v))
}

// ParseOracleVersion resolves a flag/wire spelling ("v1", "1", "v2", "2";
// the empty string means the default) to a version.
func ParseOracleVersion(s string) (OracleVersion, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "":
		return DefaultOracleVersion, nil
	case "v1", "1":
		return OracleV1, nil
	case "v2", "2":
		return OracleV2, nil
	}
	return 0, fmt.Errorf("sched: unknown oracle version %q (want v1 or v2)", s)
}

// OrDefault maps the zero value to DefaultOracleVersion, so structs carrying
// a version need not special-case "unset".
func (v OracleVersion) OrDefault() OracleVersion {
	if v == 0 {
		return DefaultOracleVersion
	}
	return v
}

// Valid reports whether v names an implemented solver.
func (v OracleVersion) Valid() bool { return v == OracleV1 || v == OracleV2 }

// oracleEntry is one event of a plan window.
type oracleEntry struct {
	ev        *webevent.Event
	isPending bool
}

// Oracle is the upper-bound scheduler of the paper's evaluation: it has a
// priori knowledge of the entire event sequence (types, trigger times and
// workloads), never mis-predicts, and globally minimizes energy under every
// event's QoS constraint.
type Oracle struct {
	platform *acmp.Platform
	events   []*webevent.Event
	version  OracleVersion
	nextIdx  int
	stats    optimizer.SolverStats

	// solver runs both versions' searches on reused scratch.
	solver ilp.Solver

	// Reusable plan-building buffers: the window's entries, the problem's
	// item list with one flat backing array for every item's choices, and
	// the returned task list (consumed synchronously by the engine's
	// adoptPlan, which copies the values). Recycling them, together with
	// the solver's scratch, makes v2 Plan calls allocation-free in the
	// steady state.
	entries   []oracleEntry
	itemsBuf  []ilp.Item
	choiceBuf []ilp.Choice
	out       []SpecTask
}

// NewOracle creates an oracle for a specific trace at the default version.
func NewOracle(p *acmp.Platform, events []*webevent.Event) *Oracle {
	return NewOracleWithVersion(p, events, DefaultOracleVersion)
}

// NewOracleWithVersion creates an oracle running the given solver version
// (the zero value selects the default).
func NewOracleWithVersion(p *acmp.Platform, events []*webevent.Event, v OracleVersion) *Oracle {
	return &Oracle{platform: p, events: events, version: v.OrDefault()}
}

// Name implements ProactivePolicy.
func (o *Oracle) Name() string { return "Oracle" }

// Version returns the solver version the oracle runs.
func (o *Oracle) Version() OracleVersion { return o.version }

// Observe implements ProactivePolicy.
func (o *Oracle) Observe(e *webevent.Event) {
	if e.Seq+1 > o.nextIdx {
		o.nextIdx = e.Seq + 1
	}
}

// Plan implements ProactivePolicy: it schedules the outstanding events plus
// the next OracleWindow future events with exact workloads and deadlines.
func (o *Oracle) Plan(start simtime.Time, outstanding []*webevent.Event) []SpecTask {
	entries := o.entries[:0]
	first := o.nextIdx
	for _, e := range outstanding {
		entries = append(entries, oracleEntry{ev: e, isPending: true})
		if e.Seq+1 > first {
			first = e.Seq + 1
		}
	}
	for i := first; i < len(o.events) && len(entries) < OracleWindow; i++ {
		entries = append(entries, oracleEntry{ev: o.events[i]})
	}
	o.entries = entries
	if len(entries) == 0 {
		return nil
	}

	configs := o.platform.Configs()
	choice := o.solve(start, entries, configs)

	out := o.out[:0]
	for i, en := range entries {
		cfg := configs[choice[i]]
		task := SpecTask{
			Type:             en.ev.Type,
			Signature:        en.ev.Signature(),
			Config:           cfg,
			EstimatedLatency: o.platform.Latency(en.ev.Work, cfg),
			ExpectedTrigger:  en.ev.Trigger,
		}
		if en.isPending {
			task.Event = en.ev
		}
		out = append(out, task)
	}
	o.out = out
	return out
}

// solve runs the version-selected search over the window. The returned
// choice slice aliases the solver's scratch: valid until the next solve.
func (o *Oracle) solve(start simtime.Time, entries []oracleEntry, configs []acmp.Config) []int {
	// Build the problem on the reusable buffers: one Item per entry, all
	// choice lists carved out of one flat backing array.
	nc := len(configs)
	if cap(o.itemsBuf) < len(entries) {
		o.itemsBuf = make([]ilp.Item, 0, 2*len(entries))
	}
	if cap(o.choiceBuf) < len(entries)*nc {
		o.choiceBuf = make([]ilp.Choice, 2*len(entries)*nc)
	}
	prob := ilp.Problem{Start: start, Items: o.itemsBuf[:0]}
	for ei, en := range entries {
		choices := o.choiceBuf[ei*nc : ei*nc : (ei+1)*nc]
		for _, cfg := range configs {
			lat := o.platform.Latency(en.ev.Work, cfg)
			choices = append(choices, ilp.Choice{
				Latency: lat,
				Energy:  acmp.EnergyMJ(o.platform.Power(cfg), lat),
			})
		}
		prob.Items = append(prob.Items, ilp.Item{
			Deadline: en.ev.Deadline().Add(-render.DisplayMargin),
			Choices:  choices,
		})
	}

	var sol ilp.Assignment
	begun := time.Now()
	if o.version == OracleV1 {
		// v1 keeps the reference-order traversal: its figures are an
		// upper-bound baseline produced under the reference search budget,
		// and its hardest 12-item windows exhaust that budget, so the
		// returned assignment depends on the traversal itself.
		// SolveReferenceOrder pins the traversal (bit-identical assignments
		// and node counts) while doing each feasibility test in O(1).
		sol = o.solver.SolveReferenceOrder(prob)
	} else {
		sol = o.solver.Solve(prob)
	}
	o.stats.Record(sol, begun)
	return sol.Choice
}

// ReactiveConfig implements ProactivePolicy: with perfect workload knowledge
// the oracle picks the true minimum-energy configuration meeting the
// deadline.
func (o *Oracle) ReactiveConfig(e *webevent.Event, start simtime.Time) acmp.Config {
	budget := e.Deadline().Sub(start) - render.DisplayMargin
	best := acmp.Config{}
	bestEnergy := 0.0
	for _, cfg := range o.platform.Configs() {
		lat := o.platform.Latency(e.Work, cfg)
		if lat > budget {
			continue
		}
		en := acmp.EnergyMJ(o.platform.Power(cfg), lat)
		if best.IsZero() || en < bestEnergy {
			best, bestEnergy = cfg, en
		}
	}
	if best.IsZero() {
		return o.platform.MaxPerformance()
	}
	return best
}

// ObserveExecution implements ProactivePolicy (the oracle needs no cost
// model).
func (o *Oracle) ObserveExecution(sig webevent.Signature, cfg acmp.Config, execLatency simtime.Duration) {
}

// OnCorrectPrediction implements ProactivePolicy.
func (o *Oracle) OnCorrectPrediction() {}

// OnMisprediction implements ProactivePolicy; it cannot happen for an
// oracle.
func (o *Oracle) OnMisprediction() {}

// OnReactiveEvent implements ProactivePolicy.
func (o *Oracle) OnReactiveEvent() {}

// SpeculationEnabled implements ProactivePolicy.
func (o *Oracle) SpeculationEnabled() bool { return true }

// SolverStats implements SolverStatsProvider.
func (o *Oracle) SolverStats() optimizer.SolverStats { return o.stats }

var (
	_ ProactivePolicy     = (*Oracle)(nil)
	_ SolverStatsProvider = (*Oracle)(nil)
)
