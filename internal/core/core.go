// Package core implements PES itself — the paper's contribution: a
// proactive event scheduler that combines the event predictor (statistical
// sequence learner + DOM analysis), the energy/QoS optimizer (ILP over
// outstanding and predicted events), and the control unit's fallback policy
// (disable speculation after consecutive mis-predictions, behave like the
// reactive EBS scheduler meanwhile).
package core

import (
	"repro/internal/acmp"
	"repro/internal/control"
	"repro/internal/optimizer"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// PES is the proactive event scheduler. One instance schedules one
// interaction session of one application (mirroring the per-renderer PES
// layer in the browser); the predictor's logistic model is shared across
// applications and trained offline.
type PES struct {
	spec     *webapp.Spec
	pred     *predictor.Predictor
	opt      *optimizer.Optimizer
	fallback *control.Fallback

	lastTrigger simtime.Time

	// Reusable planning buffers: the optimizer tasks (values plus the
	// pointer list Schedule takes) and the returned speculative schedule.
	// Plan's result is consumed synchronously by the engine adapter, so the
	// buffers are recycled on the next planning round.
	taskBuf  []optimizer.Task
	taskPtrs []*optimizer.Task
	outBuf   []sched.SpecTask
}

// Option customizes a PES instance.
type Option func(*PES)

// WithFallback overrides the mis-prediction fallback controller (used by
// tests and sensitivity studies).
func WithFallback(f *control.Fallback) Option {
	return func(p *PES) { p.fallback = f }
}

// NewPES builds a PES scheduler for one session of the given application.
//
// learner is the offline-trained event sequence learner; domSeed must match
// the trace being replayed so that the predictor's DOM replica sees the same
// pages the user saw; predCfg carries the confidence threshold and the DOM
// analysis toggle (Sec. 6.5 sensitivity studies).
func NewPES(platform *acmp.Platform, learner *predictor.SequenceLearner, spec *webapp.Spec,
	domSeed int64, predCfg predictor.Config, opts ...Option) *PES {
	cost := optimizer.NewCostModel(platform)
	p := &PES{
		spec:     spec,
		pred:     predictor.New(learner, spec, domSeed, predCfg),
		opt:      optimizer.New(platform, cost),
		fallback: control.NewFallback(),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements sched.ProactivePolicy.
func (p *PES) Name() string { return "PES" }

// Predictor exposes the underlying predictor (for overhead reporting).
func (p *PES) Predictor() *predictor.Predictor { return p.pred }

// Optimizer exposes the underlying optimizer (for overhead reporting).
func (p *PES) Optimizer() *optimizer.Optimizer { return p.opt }

// Observe implements sched.ProactivePolicy: every actual event updates the
// predictor's feature window and DOM replica.
func (p *PES) Observe(e *webevent.Event) {
	p.pred.Observe(e)
	p.lastTrigger = e.Trigger
}

// Plan implements sched.ProactivePolicy: it predicts the upcoming event
// sequence and solves the constrained optimization problem over the
// outstanding events plus the predicted events, producing the speculative
// schedule. The returned slice is a reusable buffer owned by the scheduler;
// it is valid until the next Plan call (the engine consumes it immediately).
func (p *PES) Plan(start simtime.Time, outstanding []*webevent.Event) []sched.SpecTask {
	if !p.fallback.Enabled() {
		return nil
	}
	preds := p.pred.PredictSequence()
	if len(preds) == 0 && len(outstanding) == 0 {
		return nil
	}

	p.taskBuf = p.taskBuf[:0]
	for _, e := range outstanding {
		p.taskBuf = append(p.taskBuf, optimizer.Task{
			Event:           e,
			Type:            e.Type,
			Signature:       e.Signature(),
			ExpectedTrigger: e.Trigger,
			Deadline:        e.Deadline(),
		})
	}
	// Predicted events: their deadlines are anchored at the expected trigger
	// times accumulated from the last observed event. A predicted page load
	// whose content depends on suppressed network requests (Sec. 5.3) cannot
	// be usefully pre-rendered, so the speculative sequence stops at a deep
	// predicted load: the DOM state beyond it is too uncertain — committing
	// the load starts a fresh prediction round instead.
	expected := p.lastTrigger
	if len(outstanding) > 0 {
		expected = outstanding[len(outstanding)-1].Trigger
	}
	for i, pr := range preds {
		if pr.Type == webevent.Load && i > 0 {
			break
		}
		expected = expected.Add(pr.ExpectedGap)
		p.taskBuf = append(p.taskBuf, optimizer.Task{
			Type:            pr.Type,
			Signature:       webevent.Signature{App: p.spec.Name, Type: pr.Type, TargetKind: webevent.NodeKind(pr.TargetKind)},
			ExpectedTrigger: expected,
			Deadline:        expected.Add(pr.Type.QoSTarget()),
		})
	}
	p.taskPtrs = p.taskPtrs[:0]
	for i := range p.taskBuf {
		p.taskPtrs = append(p.taskPtrs, &p.taskBuf[i])
	}
	p.opt.Schedule(start, p.taskPtrs)

	p.outBuf = p.outBuf[:0]
	for i := range p.taskBuf {
		t := &p.taskBuf[i]
		p.outBuf = append(p.outBuf, sched.SpecTask{
			Event:            t.Event,
			Type:             t.Type,
			Signature:        t.Signature,
			Config:           t.Config,
			EstimatedLatency: t.EstimatedLatency,
			ExpectedTrigger:  t.ExpectedTrigger,
		})
	}
	return p.outBuf
}

// ReactiveConfig implements sched.ProactivePolicy: when speculation is not
// usable PES behaves exactly like EBS — the minimum-energy configuration
// that meets the single event's deadline.
func (p *PES) ReactiveConfig(e *webevent.Event, start simtime.Time) acmp.Config {
	return p.opt.Cost().PickMinEnergyConfig(e.Signature(), start, e.Deadline())
}

// ObserveExecution implements sched.ProactivePolicy.
func (p *PES) ObserveExecution(sig webevent.Signature, cfg acmp.Config, execLatency simtime.Duration) {
	p.opt.Cost().Observe(sig, cfg, execLatency)
}

// OnCorrectPrediction implements sched.ProactivePolicy.
func (p *PES) OnCorrectPrediction() { p.fallback.OnCorrectPrediction() }

// OnMisprediction implements sched.ProactivePolicy.
func (p *PES) OnMisprediction() { p.fallback.OnMisprediction() }

// OnReactiveEvent implements sched.ProactivePolicy.
func (p *PES) OnReactiveEvent() { p.fallback.OnReactiveEvent() }

// SpeculationEnabled implements sched.ProactivePolicy.
func (p *PES) SpeculationEnabled() bool { return p.fallback.Enabled() }

// SolverStats implements sched.SolverStatsProvider: the optimizer's
// accumulated solve/node/abort counters and solver wall time.
func (p *PES) SolverStats() optimizer.SolverStats { return p.opt.Stats() }

var (
	_ sched.ProactivePolicy     = (*PES)(nil)
	_ sched.SolverStatsProvider = (*PES)(nil)
)
