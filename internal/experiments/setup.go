package experiments

import (
	"fmt"

	"repro/internal/acmp"
	"repro/internal/artifacts"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/predictor"
	"repro/internal/sessions"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// Scheduler names used across tables.
const (
	SchedInteractive = sessions.Interactive
	SchedOndemand    = sessions.Ondemand
	SchedEBS         = sessions.EBS
	SchedPES         = sessions.PES
	SchedOracle      = sessions.Oracle
)

// Config parameterizes the experiment harness. The defaults reproduce the
// paper's setup at a scale that runs in seconds: three evaluation traces per
// application (as in the paper) and a training corpus of several traces per
// seen application.
type Config struct {
	// Platform is the ACMP hardware model (default Exynos 5410).
	Platform *acmp.Platform
	// TrainTracesPerApp is the number of training traces per seen
	// application (default 8, roughly the paper's ">100 traces" over 12
	// applications).
	TrainTracesPerApp int
	// EvalTracesPerApp is the number of evaluation traces per application
	// (default 3, as in the paper).
	EvalTracesPerApp int
	// Seed controls trace generation and training determinism.
	Seed int64
	// Predictor carries the PES predictor configuration.
	Predictor predictor.Config
	// Parallel is the batch runner's worker-pool size; 0 selects the number
	// of CPUs, 1 forces serial simulation.
	Parallel int
	// CacheMaxEntries bounds the session memo cache and the artifact
	// store's trace cache to at most this many entries each (the same n for
	// both) with LRU eviction; 0 keeps both unbounded. Long-lived servers
	// sweeping many seeds set it to cap memory; eviction only ever costs
	// recomputation, never changes a result.
	CacheMaxEntries int
	// Artifacts optionally selects the shared artifact store; nil uses the
	// process-wide artifacts.Default, or a private store when Store is set
	// (so the persistent layer never reaches another setup). Tests inject
	// private stores to get isolated counters.
	Artifacts *artifacts.Store
	// Store optionally layers a persistent content-addressed store under
	// both the trained-learner cache and the session memo cache: a
	// restarted process pointed at the same directory serves repeated
	// campaigns from disk with zero re-simulation and no training.
	// Nil (the default) keeps everything in memory. The caller owns the
	// store's lifecycle (Open/Close).
	Store *store.Store
}

// DefaultConfig returns the paper-equivalent configuration.
func DefaultConfig() Config {
	return Config{
		Platform:          acmp.Exynos5410(),
		TrainTracesPerApp: 8,
		EvalTracesPerApp:  3,
		Seed:              1,
		Predictor:         predictor.DefaultConfig(),
	}
}

func (c Config) withDefaults() Config {
	if c.Platform == nil {
		c.Platform = acmp.Exynos5410()
	}
	if c.TrainTracesPerApp == 0 {
		c.TrainTracesPerApp = 8
	}
	if c.EvalTracesPerApp == 0 {
		c.EvalTracesPerApp = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Predictor.ConfidenceThreshold == 0 {
		c.Predictor = predictor.DefaultConfig()
	}
	return c
}

// Setup holds the shared state of one experiment campaign: the trained
// predictor, the evaluation corpus, and the batch-session runner whose
// memoized cache guarantees that figures drawing on the same sessions (e.g.
// Fig. 11, 12 and 13) simulate each one exactly once.
type Setup struct {
	Config  Config
	Learner *predictor.SequenceLearner
	Eval    trace.Corpus

	// Runner executes simulation sessions concurrently and memoizes their
	// results by (platform, app, trace seed, scheduler, predictor config).
	Runner *batch.Runner

	// Artifacts is the shared artifact store the setup's corpora and
	// learner came from and its sessions draw runtime inputs from. Setups
	// with equal (TrainTracesPerApp, Seed) share one trained learner and
	// one trace corpus through it.
	Artifacts *artifacts.Store
}

// NewSetup trains the predictor on the seen applications and generates the
// evaluation corpus for all 18 applications. Evaluation traces always use
// seeds disjoint from the training traces (new users, as in the paper).
// Everything reusable — the training corpus, the trained model, the
// evaluation traces — comes from the process-wide artifact store (unless
// the config names a store or a persistent Store), so a second
// identically-configured setup (another server, another benchmark
// repetition) performs no training and no trace generation at all.
func NewSetup(cfg Config) (*Setup, error) {
	cfg = cfg.withDefaults()
	store := cfg.Artifacts
	if store == nil {
		store = artifacts.Default
		if cfg.Store != nil {
			// Never layer a persistent store under the process-wide
			// Default: every later setup in the process would write
			// through it.
			store = artifacts.NewStore()
		}
	}
	if cfg.Store != nil {
		// Layer the persistent store under the artifact caches before any
		// artifact is requested, so the learner/corpus builds below already
		// go through it.
		store.WithPersistent(cfg.Store)
	}
	if cfg.CacheMaxEntries > 0 {
		// The trace cache gets the same bound as the memo cache. A memo
		// entry is one (app, seed, scheduler, predictor) tuple while a trace
		// is shared by every scheduler, so n traces cover a larger working
		// set than n results.
		store.WithMaxTraces(cfg.CacheMaxEntries)
	}
	learner, _, err := store.Learner(artifacts.LearnerKey{
		TracesPerApp: cfg.TrainTracesPerApp,
		CorpusSeed:   cfg.Seed * 1000,
		TrainSeed:    trainConfig(cfg.Seed).Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: training: %w", err)
	}
	eval := store.Corpus(webapp.Registry(), cfg.EvalTracesPerApp, cfg.Seed*1000+500000, trace.PurposeEval, trace.Options{})
	return &Setup{
		Config:    cfg,
		Learner:   learner,
		Eval:      eval,
		Runner:    batch.NewRunner(cfg.Parallel).WithMaxEntries(cfg.CacheMaxEntries).AttachArtifacts(store).WithStore(cfg.Store),
		Artifacts: store,
	}, nil
}

// NewPES constructs a PES scheduler instance for one evaluation trace.
func (s *Setup) NewPES(tr *trace.Trace) (*core.PES, error) {
	spec, err := webapp.ByName(tr.App)
	if err != nil {
		return nil, err
	}
	return core.NewPES(s.Config.Platform, s.Learner, spec, tr.DOMSeed, s.Config.Predictor), nil
}

// runCorpus simulates every trace of the evaluation corpus under the named
// scheduler on the given platform/predictor configuration; results are
// index-aligned with the corpus. PES sessions carry the predictor
// configuration in their memo key, so a sensitivity sweep that revisits the
// default threshold shares the baseline PES runs.
func (s *Setup) runCorpus(p *acmp.Platform, name string, predCfg predictor.Config) ([]*engine.Result, error) {
	specs := make([]batch.Session, 0, len(s.Eval))
	for _, tr := range s.Eval {
		sess, err := sessions.New(sessions.Spec{
			Platform:  p,
			Trace:     tr,
			Scheduler: name,
			Learner:   s.Learner,
			Predictor: predCfg,
			Artifacts: s.Artifacts,
		})
		if err != nil {
			return nil, err
		}
		specs = append(specs, sess)
	}
	return s.Runner.Run(specs)
}

// runScheduler simulates every evaluation trace under the named scheduler on
// the default platform; the batch runner memoizes the results.
func (s *Setup) runScheduler(name string) ([]*engine.Result, error) {
	return s.runCorpus(s.Config.Platform, name, s.Config.Predictor)
}

// perApp aggregates a metric of the scheduler's results per application, in
// registry order.
func (s *Setup) perApp(name string, metric func(*engine.Result) float64) (map[string]float64, error) {
	rs, err := s.runScheduler(name)
	if err != nil {
		return nil, err
	}
	sums := make(map[string]float64)
	counts := make(map[string]float64)
	for i, r := range rs {
		app := s.Eval[i].App
		sums[app] += metric(r)
		counts[app]++
	}
	out := make(map[string]float64, len(sums))
	for app, sum := range sums {
		out[app] = sum / counts[app]
	}
	return out, nil
}

// appOrder returns the application names in presentation order: seen
// applications first, then unseen, as in the paper's figures.
func appOrder() []string {
	var names []string
	for _, s := range webapp.SeenApps() {
		names = append(names, s.Name)
	}
	for _, s := range webapp.UnseenApps() {
		names = append(names, s.Name)
	}
	return names
}
