package engine

import (
	"sort"

	"repro/internal/acmp"
	"repro/internal/control"
	"repro/internal/optimizer"
	"repro/internal/render"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

// plannedTask is a speculative task queued for execution, annotated by the
// adapter with the index of the trace event it is intended to predict so
// that the execution can use the ground-truth workload when the prediction
// is correct.
type plannedTask struct {
	task     sched.SpecTask
	eventIdx int // index into the trace, or -1 when beyond the trace end
}

// inflightTask is a speculative task currently executing on the CPU.
type inflightTask struct {
	task          plannedTask
	start, finish simtime.Time
	energy        float64
	committed     bool // the matching event already arrived; do not buffer the frame
}

// proactiveAdapter drives a sched.ProactivePolicy (PES or the Oracle) on the
// unified engine. It owns the runtime state of proactive scheduling: the
// plan queue, the in-flight speculative execution, and the Pending Frame
// Buffer. The plan queue is consumed through a head index and the in-flight
// slot is an inline value so that the per-event loop recycles one backing
// array and never allocates per speculative task.
type proactiveAdapter struct {
	policy      sched.ProactivePolicy
	plan        []plannedTask
	planHead    int
	inflight    inflightTask
	hasInflight bool
	pfb         control.PFB
	wasteSum    []float64 // scratch for squash's sorted energy sum
}

// planLen returns the number of speculative tasks still queued.
func (a *proactiveAdapter) planLen() int { return len(a.plan) - a.planHead }

// resetPlan empties the queue, recycling the backing array.
func (a *proactiveAdapter) resetPlan() {
	a.plan = a.plan[:0]
	a.planHead = 0
}

// RunProactive replays the events under a proactive policy (PES or Oracle).
func RunProactive(p *acmp.Platform, app string, events []*webevent.Event, policy sched.ProactivePolicy) *Result {
	return Run(p, app, events, &proactiveAdapter{policy: policy})
}

func (a *proactiveAdapter) Name() string { return a.policy.Name() }

// SolverStats implements sched.SolverStatsProvider by delegating to the
// wrapped policy, so Run picks the stats up through the adapter.
func (a *proactiveAdapter) SolverStats() optimizer.SolverStats {
	if sp, ok := a.policy.(sched.SolverStatsProvider); ok {
		return sp.SolverStats()
	}
	return optimizer.SolverStats{}
}

// hasSpeculation reports whether any prediction is still outstanding. A
// committed in-flight execution no longer counts: it belongs to an event
// that has already arrived.
func (a *proactiveAdapter) hasSpeculation() bool {
	return a.pfb.Size() > 0 || (a.hasInflight && !a.inflight.committed) || a.planLen() > 0
}

// headType returns the type of the next expected predicted event.
func (a *proactiveAdapter) headType() (webevent.Type, bool) {
	if f, ok := a.pfb.Head(); ok {
		return f.Type, true
	}
	if a.hasInflight && !a.inflight.committed {
		return a.inflight.task.task.Type, true
	}
	if a.planLen() > 0 {
		return a.plan[a.planHead].task.Type, true
	}
	return 0, false
}

// busyUntil returns the instant the CPU becomes free, accounting for an
// in-flight execution.
func (a *proactiveAdapter) busyUntil(ec *Context) simtime.Time {
	if a.hasInflight && a.inflight.finish.After(ec.cpuFree) {
		return a.inflight.finish
	}
	return ec.cpuFree
}

// workFor returns the workload a speculative task will actually incur: the
// ground-truth work of the event it predicts when the prediction is correct,
// and a workload reconstructed from the estimate otherwise (the frame will
// be squashed, only its cost matters).
func (a *proactiveAdapter) workFor(ec *Context, t plannedTask) acmp.Workload {
	events := ec.events
	if t.eventIdx >= 0 && t.eventIdx < len(events) && events[t.eventIdx].Type == t.task.Type {
		return events[t.eventIdx].Work
	}
	p := ec.platform
	eff := float64(t.task.Config.FreqMHz) / p.Cluster(t.task.Config.Core).CPI
	return acmp.Workload{Cycles: int64(float64(t.task.EstimatedLatency) * eff)}
}

// Advance implements Policy: execute speculative work until the given
// instant.
func (a *proactiveAdapter) Advance(ec *Context, until simtime.Time) {
	for {
		if a.hasInflight {
			if a.inflight.finish.After(until) {
				return
			}
			// Completes before `until`.
			fl := &a.inflight
			fl.energy += ec.chargeBusy(fl.task.task.Config, fl.start, fl.finish)
			a.policy.ObserveExecution(fl.task.task.Signature, fl.task.task.Config, fl.finish.Sub(fl.start))
			if !fl.committed {
				a.pfb.Push(fl.task.task.Type, render.Frame{
					Started: fl.start, Completed: fl.finish,
					Config: fl.task.task.Config, EnergyMJ: fl.energy,
				})
			}
			ec.cpuFree = fl.finish
			a.hasInflight = false
			continue
		}
		if a.planLen() > 0 && a.policy.SpeculationEnabled() {
			if !ec.cpuFree.Before(until) {
				return
			}
			// Speculative tasks execute as soon as the main thread is
			// free, in plan order — the same as-soon-as-possible,
			// back-to-back execution the optimizer's chain constraint
			// (Eqn. 4) assumes. Predicted loads whose network requests are
			// suppressed (Sec. 5.3) never reach the queue: PES terminates
			// the speculative sequence at a deep predicted load instead
			// (see core.PES.Plan).
			t := a.plan[a.planHead]
			a.planHead++
			start, swEnergy := ec.switchTo(t.task.Config, ec.cpuFree)
			finish := start.Add(ec.platform.Latency(a.workFor(ec, t), t.task.Config))
			a.inflight = inflightTask{task: t, start: start, finish: finish, energy: swEnergy}
			a.hasInflight = true
			continue
		}
		// Nothing to run: idle until `until`.
		ec.chargeIdle(until)
		if until.After(ec.cpuFree) {
			ec.cpuFree = until
		}
		return
	}
}

// runNow executes an event reactively on the unified engine's execute path
// (quantum 0: proactive schedulers commit to one configuration per event)
// and records its outcome.
func (a *proactiveAdapter) runNow(ec *Context, e *webevent.Event, cfg acmp.Config) {
	start := simtime.Max(e.Trigger, a.busyUntil(ec))
	execStart, finish, final, energy := ec.execute(e, cfg, start, 0, nil)
	a.policy.ObserveExecution(e.Signature(), final, finish.Sub(execStart))
	ec.addOutcome(e, start, finish, final, energy, false)
	ec.cpuFree = finish
}

// adoptPlan installs a freshly produced plan: tasks for outstanding events
// are returned to the caller (executed immediately), predicted tasks are
// queued for speculative execution.
func (a *proactiveAdapter) adoptPlan(tasks []sched.SpecTask, nextEventIdx int, nEvents int) (outstandingTasks []sched.SpecTask) {
	a.resetPlan()
	k := 0
	for _, t := range tasks {
		if t.Event != nil {
			outstandingTasks = append(outstandingTasks, t)
			continue
		}
		idx := nextEventIdx + k
		if idx >= nEvents {
			idx = -1
		}
		a.plan = append(a.plan, plannedTask{task: t, eventIdx: idx})
		k++
	}
	return outstandingTasks
}

// squash drops every outstanding speculative artifact and accounts the
// waste.
func (a *proactiveAdapter) squash(ec *Context, at simtime.Time) {
	res := ec.res
	dropped, wasted := a.pfb.Squash()
	res.SquashedFrames += len(dropped)
	res.MispredictWaste += wasted
	// Energy of squashed frames stays charged (it was really spent) but
	// is also tracked as waste. Float addition is not associative, so the
	// summation order is part of the pinned result bits: ascending energy,
	// not buffer order.
	a.wasteSum = a.wasteSum[:0]
	for _, pf := range dropped {
		a.wasteSum = append(a.wasteSum, pf.Frame.EnergyMJ)
	}
	sort.Float64s(a.wasteSum)
	for _, e := range a.wasteSum {
		res.WastedEnergyMJ += e
	}
	if a.hasInflight && !a.inflight.committed {
		// Abort the in-flight speculative execution immediately. An
		// in-flight execution that has already been committed belongs to
		// an event that actually happened and is left to finish.
		elapsed := at.Sub(a.inflight.start)
		if elapsed < 0 {
			elapsed = 0
		}
		e := ec.chargeBusy(a.inflight.task.task.Config, a.inflight.start, at)
		res.WastedEnergyMJ += e + a.inflight.energy
		res.MispredictWaste += elapsed
		res.SquashedFrames++
		a.hasInflight = false
		ec.cpuFree = at
	}
	a.resetPlan()
}

// Dispatch implements Policy: resolve the event against the outstanding
// speculation — commit a matching frame, squash on a mis-prediction, or
// handle the event reactively.
func (a *proactiveAdapter) Dispatch(ec *Context, e *webevent.Event, idx int) {
	res := ec.res
	a.policy.Observe(e)

	headType, hasHead := a.headType()
	switch {
	case hasHead && headType == e.Type:
		a.policy.OnCorrectPrediction()
		res.CommittedFrames++
		if pf, ok := a.pfb.Head(); ok && pf.Type == e.Type {
			a.pfb.Commit()
			ec.addOutcome(e, pf.Frame.Started, pf.Frame.Completed, pf.Frame.Config, pf.Frame.EnergyMJ, true)
		} else if a.hasInflight && !a.inflight.committed {
			// The matching speculative execution is still running; the
			// frame commits when it completes.
			fl := &a.inflight
			fl.committed = true
			cfg := fl.task.task.Config
			energy := acmp.EnergyMJ(ec.platform.Power(cfg), fl.finish.Sub(fl.start))
			ec.addOutcome(e, fl.start, fl.finish, cfg, energy, true)
		} else {
			// Planned but not yet started: execute it now at the planned
			// configuration.
			t := a.plan[a.planHead]
			a.planHead++
			a.runNow(ec, e, t.task.Config)
		}
	case hasHead:
		// Mis-prediction: squash everything and fall back to reactive
		// handling of this event.
		a.policy.OnMisprediction()
		res.Mispredictions++
		a.squash(ec, e.Trigger)
		if !a.policy.SpeculationEnabled() {
			res.SpeculationStops++
		}
		a.handleReactively(ec, e, idx)
	default:
		// No speculation outstanding (e.g. first event or disabled).
		a.handleReactively(ec, e, idx)
	}
}

// AfterDispatch implements Policy: when the whole predicted pipeline has
// drained, start a new round of prediction so that the idle gap before the
// next event can be used; then sample the PFB occupancy.
func (a *proactiveAdapter) AfterDispatch(ec *Context, e *webevent.Event, idx int) {
	if !a.hasSpeculation() && a.policy.SpeculationEnabled() {
		start := simtime.Max(e.Trigger, a.busyUntil(ec))
		tasks := a.policy.Plan(start, nil)
		a.adoptPlan(tasks, idx+1, len(ec.events))
	}
	if ec.res.PFBSamples == nil {
		// Exactly one sample per event: size the buffer once, here rather
		// than in the engine's generic entry point, so only policies that
		// actually sample the PFB pay for (and retain) it.
		ec.res.PFBSamples = make([]PFBSample, 0, len(ec.events))
	}
	ec.res.PFBSamples = append(ec.res.PFBSamples, PFBSample{Seq: e.Seq, Size: a.pfb.Size()})
}

// handleReactively executes an event that has no usable speculation: if the
// policy can produce a plan covering it, the event runs at the planned
// configuration and the plan's predicted tail is queued speculatively;
// otherwise the policy's reactive (EBS-equivalent) configuration is used.
func (a *proactiveAdapter) handleReactively(ec *Context, e *webevent.Event, idx int) {
	a.policy.OnReactiveEvent()
	start := simtime.Max(e.Trigger, a.busyUntil(ec))
	if a.policy.SpeculationEnabled() {
		tasks := a.policy.Plan(start, []*webevent.Event{e})
		if len(tasks) > 0 {
			outstanding := a.adoptPlan(tasks, idx+1, len(ec.events))
			if len(outstanding) > 0 && outstanding[0].Event == e {
				a.runNow(ec, e, outstanding[0].Config)
				return
			}
		}
	}
	a.runNow(ec, e, a.policy.ReactiveConfig(e, start))
}
