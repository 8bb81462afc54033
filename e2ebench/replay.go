package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/acmp"
	"repro/internal/artifacts"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sessions"
	"repro/internal/simtime"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// timedProactive decorates a proactive scheduler (PES or the Oracle) with
// timers: all time inside the scheduler, time in Observe, time in Plan, and
// the solver time inside Plan (the scheduler's own solver wall-time counter
// read around each call).
type timedProactive struct {
	inner  sched.ProactivePolicy
	solver sched.SolverStatsProvider

	calls, observe, plan, solve time.Duration
}

// since adds the time since start to the decorator's total and returns it.
func (p *timedProactive) since(start time.Time) time.Duration {
	d := time.Since(start)
	p.calls += d
	return d
}

func (p *timedProactive) Name() string { return p.inner.Name() }

func (p *timedProactive) Observe(e *webevent.Event) {
	start := time.Now()
	p.inner.Observe(e)
	p.observe += p.since(start)
}

func (p *timedProactive) Plan(now simtime.Time, outstanding []*webevent.Event) []sched.SpecTask {
	before := p.solver.SolverStats().WallNS
	start := time.Now()
	tasks := p.inner.Plan(now, outstanding)
	p.plan += p.since(start)
	p.solve += time.Duration(p.solver.SolverStats().WallNS - before)
	return tasks
}

func (p *timedProactive) ReactiveConfig(e *webevent.Event, start simtime.Time) acmp.Config {
	t := time.Now()
	cfg := p.inner.ReactiveConfig(e, start)
	p.since(t)
	return cfg
}

func (p *timedProactive) ObserveExecution(sig webevent.Signature, cfg acmp.Config, lat simtime.Duration) {
	start := time.Now()
	p.inner.ObserveExecution(sig, cfg, lat)
	p.since(start)
}

func (p *timedProactive) OnCorrectPrediction() {
	start := time.Now()
	p.inner.OnCorrectPrediction()
	p.since(start)
}

func (p *timedProactive) OnMisprediction() {
	start := time.Now()
	p.inner.OnMisprediction()
	p.since(start)
}

func (p *timedProactive) OnReactiveEvent() {
	start := time.Now()
	p.inner.OnReactiveEvent()
	p.since(start)
}

func (p *timedProactive) SpeculationEnabled() bool {
	start := time.Now()
	on := p.inner.SpeculationEnabled()
	p.since(start)
	return on
}

// SolverStats forwards the scheduler's solver counters, so the engine
// copies them into the session result as it does undecorated.
func (p *timedProactive) SolverStats() optimizer.SolverStats { return p.solver.SolverStats() }

// timedReactive decorates a reactive scheduler with timers: all time inside
// the scheduler, and the time spent choosing configurations.
type timedReactive struct {
	inner sched.ReactivePolicy

	calls, config time.Duration
}

func (p *timedReactive) since(start time.Time) time.Duration {
	d := time.Since(start)
	p.calls += d
	return d
}

func (p *timedReactive) Name() string { return p.inner.Name() }

func (p *timedReactive) ConfigAtStart(e *webevent.Event, start simtime.Time) acmp.Config {
	t := time.Now()
	cfg := p.inner.ConfigAtStart(e, start)
	p.config += p.since(t)
	return cfg
}

func (p *timedReactive) Quantum() simtime.Duration {
	start := time.Now()
	q := p.inner.Quantum()
	p.since(start)
	return q
}

func (p *timedReactive) Requantum(e *webevent.Event, current acmp.Config, elapsed simtime.Duration) acmp.Config {
	start := time.Now()
	cfg := p.inner.Requantum(e, current, elapsed)
	p.config += p.since(start)
	return cfg
}

func (p *timedReactive) NoteIdle(from, to simtime.Time) {
	start := time.Now()
	p.inner.NoteIdle(from, to)
	p.since(start)
}

func (p *timedReactive) Observe(e *webevent.Event, cfg acmp.Config, start simtime.Time, lat simtime.Duration) {
	t := time.Now()
	p.inner.Observe(e, cfg, start, lat)
	p.since(t)
}

// solverTotals sums one proactive scheduler's replay measurements.
type solverTotals struct {
	sessions            int
	plan, solve         time.Duration
	solves, cacheHits   int
	nodes               int64
	observe             time.Duration
	committed, mispreds int
}

func (s *solverTotals) add(p *timedProactive, res *engine.Result) {
	s.sessions++
	s.plan += p.plan
	s.solve += p.solve
	s.observe += p.observe
	s.solves += res.Solver.Solves
	s.cacheHits += res.Solver.PlanCacheHits
	s.nodes += res.Solver.Nodes
	s.committed += res.CommittedFrames
	s.mispreds += res.Mispredictions
}

// perSession divides a total over the replayed sessions, in µs.
func (s *solverTotals) perSession(d time.Duration) float64 {
	if s.sessions == 0 {
		return 0
	}
	return us(d) / float64(s.sessions)
}

// replay re-runs, one at a time, the sessions of the given campaigns with
// every engine → scheduler call timed, and times the layers around a
// session: trace generation and runtime-event parsing on a fresh artifact
// store, result encoding, and store Put/Get of the encoded results in a
// scratch store under dir. Every time is a mean per session (per trace for
// the artifact layer, per record for the store).
func replay(campaigns []server.Campaign, learner *predictor.SequenceLearner, dir string, t *tracer) error {
	platform := acmp.Exynos5410()
	var pes, oracle solverTotals
	var reactive int
	var reactiveConfig time.Duration
	var encoded [][]byte
	for _, camp := range campaigns {
		arts := artifacts.NewStore() // fresh per campaign: every trace is built
		for _, key := range expectedRows(camp) {
			spec, err := webapp.ByName(key.App)
			if err != nil {
				return err
			}
			start := time.Now()
			tr := arts.Trace(spec, key.TraceSeed, trace.PurposeEval, trace.Options{})
			if d := time.Since(start); key.Scheduler == sessions.Names()[0] {
				t.add("artifacts.trace_ms", ms(d)) // first session of the trace built it
			}
			start = time.Now()
			evs, err := arts.Runtime(tr)
			if err != nil {
				return err
			}
			if d := time.Since(start); key.Scheduler == sessions.Names()[0] {
				t.add("artifacts.runtime_us", us(d))
			}

			var res *engine.Result
			var calls time.Duration
			start = time.Now()
			switch key.Scheduler {
			case sessions.PES, sessions.Oracle:
				var inner sched.ProactivePolicy
				if key.Scheduler == sessions.PES {
					cfg := predictor.DefaultConfig()
					cfg.ConfidenceThreshold = key.Threshold
					inner = core.NewPES(platform, learner, spec, tr.DOMSeed, cfg)
				} else {
					inner = sched.NewOracleWithVersion(platform, evs, sched.DefaultOracleVersion)
				}
				solver, ok := inner.(sched.SolverStatsProvider)
				if !ok {
					return fmt.Errorf("%s reports no solver statistics", key.Scheduler)
				}
				p := &timedProactive{inner: inner, solver: solver}
				res = engine.RunProactive(platform, key.App, evs, p)
				calls = p.calls
				if key.Scheduler == sessions.PES {
					pes.add(p, res)
				} else {
					oracle.add(p, res)
				}
			default:
				var inner sched.ReactivePolicy
				switch key.Scheduler {
				case sessions.Interactive:
					inner = sched.NewInteractive(platform)
				case sessions.Ondemand:
					inner = sched.NewOndemand(platform)
				default:
					inner = sched.NewEBS(platform)
				}
				p := &timedReactive{inner: inner}
				res = engine.RunReactive(platform, key.App, evs, p)
				calls = p.calls
				reactive++
				reactiveConfig += p.config
			}
			session := time.Since(start)
			name := "engine." + strings.ToLower(key.Scheduler)
			t.add(name+".session_us", us(session))
			t.add(name+".self_us", us(session-calls))

			start = time.Now()
			raw, err := json.Marshal(res)
			if err != nil {
				return err
			}
			t.add("engine.result_encode_us", us(time.Since(start)))
			t.add("engine.result_kb", kib(len(raw)))
			encoded = append(encoded, raw)
		}
	}

	t.add("core.pes.observe_us", pes.perSession(pes.observe))
	t.add("core.pes.plan_self_us", pes.perSession(pes.plan-pes.solve))
	t.add("optimizer.pes.solve_us", pes.perSession(pes.solve))
	t.add("optimizer.pes.solves", ratio(float64(pes.solves), float64(pes.sessions)))
	t.add("optimizer.pes.plan_cache_hit_ratio", ratio(float64(pes.cacheHits), float64(pes.solves+pes.cacheHits)))
	t.add("ilp.pes.nodes_per_solve", ratio(float64(pes.nodes), float64(pes.solves)))
	t.add("predictor.accuracy", ratio(float64(pes.committed), float64(pes.committed+pes.mispreds)))
	t.add("sched.oracle.plan_self_us", oracle.perSession(oracle.plan-oracle.solve))
	t.add("optimizer.oracle.solve_us", oracle.perSession(oracle.solve))
	t.add("ilp.oracle.nodes_per_solve", ratio(float64(oracle.nodes), float64(oracle.solves)))
	t.add("sched.reactive.config_us", ratio(us(reactiveConfig), float64(reactive)))
	return replayStore(encoded, dir, t)
}

// replayStore times a Put of every encoded result into a scratch store,
// then a Get of each.
func replayStore(encoded [][]byte, dir string, t *tracer) error {
	ps, err := store.Open(dir)
	if err != nil {
		return err
	}
	err = putGet(ps, encoded, t)
	if cerr := ps.Close(); err == nil {
		err = cerr
	}
	return err
}

func putGet(ps *store.Store, encoded [][]byte, t *tracer) error {
	key := func(i int) string { return fmt.Sprintf("result|replay|%d", i) }
	for i, raw := range encoded {
		start := time.Now()
		if err := ps.Put(key(i), raw); err != nil {
			return err
		}
		t.add("store.put_us", us(time.Since(start)))
	}
	for i := range encoded {
		start := time.Now()
		if _, ok := ps.Get(key(i)); !ok {
			return fmt.Errorf("store lost replay record %d", i)
		}
		t.add("store.get_us", us(time.Since(start)))
	}
	return nil
}
