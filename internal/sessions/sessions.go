// Package sessions bridges traces and scheduler names to batch sessions: it
// is the one place that knows how to construct every scheduler and run it on
// the unified engine, shared by the experiment harness, cmd/pes-sim and the
// campaign service.
package sessions

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/acmp"
	"repro/internal/artifacts"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// Canonical scheduler names (also used as batch memo keys and result
// labels).
const (
	Interactive = "Interactive"
	Ondemand    = "Ondemand"
	EBS         = "EBS"
	PES         = "PES"
	Oracle      = "Oracle"
)

// Names lists every scheduler in presentation order.
func Names() []string { return []string{Interactive, Ondemand, EBS, PES, Oracle} }

// Canonical resolves a case-insensitive scheduler name to its canonical
// form.
func Canonical(name string) (string, error) {
	for _, n := range Names() {
		if strings.EqualFold(name, n) {
			return n, nil
		}
	}
	return "", fmt.Errorf("sessions: unknown scheduler %q", name)
}

// Spec describes one session simulation: a trace replayed under a named
// scheduler on a platform. Learner and Predictor are consulted only for
// PES.
type Spec struct {
	Platform  *acmp.Platform
	Trace     *trace.Trace
	Scheduler string
	// Learner is the trained sequence model shared (read-only) by PES
	// sessions.
	Learner *predictor.SequenceLearner
	// Predictor is the PES predictor configuration; it participates in the
	// memo key so that sweeps over it cache correctly.
	Predictor predictor.Config
	// Artifacts is the shared artifact store the session draws its memo
	// fingerprint from. Sessions of the same trace share one content hash
	// through it, no matter which scheduler replays them. Nil memoizes
	// nothing: the trace is hashed per session, which yields the same key.
	Artifacts *artifacts.Store
}

// oracleVariant suffixes every Oracle session's memo-key variant. It names
// the solver that produced the result: the suffix dates from when the
// Oracle had two solver versions, and keeping it unchanged lets persisted
// stores keep their hits while a result of the retired reference solver
// (",oracle=v1") is never served as the Oracle's.
const oracleVariant = ",oracle=v2"

// PredictorKey canonically encodes a predictor configuration. It is the
// predictor component of both the batch memo key and the cluster route key,
// so sessions that share a memo slot also share a worker.
func PredictorKey(cfg predictor.Config) string {
	return fmt.Sprintf("ct=%g,deg=%d,dom=%t", cfg.ConfidenceThreshold, cfg.MaxDegree, cfg.UseDOMAnalysis)
}

// New builds the self-contained batch session for a spec. The returned
// session constructs its own scheduler instance on each (cache-miss) run,
// so it can execute on any worker concurrently. Every scheduler replaying
// the same trace replays its one event list, and the memo fingerprint comes
// from the spec's artifact store, which shares one content hash per trace.
// Without a store the trace is hashed per session.
func New(s Spec) (batch.Session, error) {
	name, err := Canonical(s.Scheduler)
	if err != nil {
		return batch.Session{}, err
	}
	p, tr, store := s.Platform, s.Trace, s.Artifacts
	// Populate the platform's lazy config cache now, from this goroutine:
	// the run closure may execute on any batch worker concurrently with
	// other sessions sharing the platform.
	p.Configs()
	key := batch.Key{
		Platform:  p.Name,
		App:       tr.App,
		TraceSeed: tr.Seed,
		Scheduler: name,
		Variant:   store.Fingerprint(p, tr),
	}
	var run func() (*engine.Result, time.Duration, error)
	switch name {
	case Interactive, Ondemand, EBS:
		run = func() (*engine.Result, time.Duration, error) {
			var pol sched.ReactivePolicy
			switch name {
			case Interactive:
				pol = sched.NewInteractive(p)
			case Ondemand:
				pol = sched.NewOndemand(p)
			default:
				pol = sched.NewEBS(p)
			}
			return engine.RunReactive(p, tr.App, tr.Events, pol), 0, nil
		}
	case Oracle:
		key.Variant += oracleVariant
		run = func() (*engine.Result, time.Duration, error) {
			oracle := sched.NewOracle(p, tr.Events)
			res := engine.RunProactive(p, tr.App, tr.Events, oracle)
			return res, oracle.SolverStats().Wall(), nil
		}
	case PES:
		if s.Learner == nil {
			return batch.Session{}, fmt.Errorf("sessions: PES requires a trained learner")
		}
		spec, err := webapp.ByName(tr.App)
		if err != nil {
			return batch.Session{}, err
		}
		learner, predCfg := s.Learner, s.Predictor
		key.Predictor = PredictorKey(predCfg)
		// PES results depend on the trained model; fingerprint the model
		// content so sessions built from different trainings never share a
		// cache slot, while identically-trained models — in this process or
		// a restarted one addressing a persistent store — share exactly one.
		key.Variant += fmt.Sprintf(",learner=%s", learner.Fingerprint())
		run = func() (*engine.Result, time.Duration, error) {
			pes := core.NewPES(p, learner, spec, tr.DOMSeed, predCfg)
			res := engine.RunProactive(p, tr.App, tr.Events, pes)
			return res, pes.SolverStats().Wall(), nil
		}
	}
	return batch.Session{Key: key, Run: run}, nil
}
