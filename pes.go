// Package pes is the public API of the PES reproduction: Proactive Event
// Scheduling for responsive and energy-efficient mobile Web computing
// (Feng & Zhu, ISCA 2019), rebuilt as a pure-Go simulation library.
//
// The package is a facade over the internal packages. A typical use:
//
//	learner, err := pes.TrainPredictor(8, 1)             // offline training
//	spec, _ := pes.AppByName("cnn")                      // pick an application
//	tr := pes.GenerateTrace(spec, 42)                    // a user session
//	platform := pes.Exynos5410()
//	scheduler := pes.NewPES(platform, learner, spec, tr.DOMSeed, pes.DefaultPredictorConfig())
//	result := pes.RunProactive(platform, tr.App, tr.Events, scheduler)
//	fmt.Println(result.ViolationRate, result.TotalEnergyMJ)
//
// Many sessions can be simulated concurrently — with results memoized per
// (platform, app, trace seed, scheduler, predictor config) — through
// RunBatch / NewBatchRunner.
//
// The full evaluation of the paper is regenerated through NewExperiments /
// Experiments.All (also available as the cmd/pes-experiments binary).
package pes

import (
	"repro/internal/acmp"
	"repro/internal/artifacts"
	"repro/internal/batch"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sessions"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// Hardware platform models.
type (
	// Platform is an ACMP hardware model (clusters, DVFS ladders, power).
	Platform = acmp.Platform
	// Config is one <core, frequency> operating point.
	Config = acmp.Config
	// Workload is the Tmem/Ndep description of one event execution.
	Workload = acmp.Workload
)

// Exynos5410 returns the ODROID XU+E platform model used as the paper's
// primary evaluation hardware.
func Exynos5410() *Platform { return acmp.Exynos5410() }

// TX2Parker returns the NVIDIA TX2 platform model used in the paper's
// "other devices" study.
func TX2Parker() *Platform { return acmp.TX2Parker() }

// Applications and traces.
type (
	// AppSpec describes one mobile Web application of the benchmark suite.
	AppSpec = webapp.Spec
	// Trace is one recorded user interaction session.
	Trace = trace.Trace
	// TraceOptions controls synthetic trace generation.
	TraceOptions = trace.Options
	// Event is one runtime event instance.
	Event = webevent.Event
)

// Apps returns the full 18-application benchmark suite (12 seen + 6 unseen).
func Apps() []*AppSpec { return webapp.Registry() }

// SeenApps returns the 12 applications whose traces train the predictor.
func SeenApps() []*AppSpec { return webapp.SeenApps() }

// UnseenApps returns the 6 evaluation-only applications.
func UnseenApps() []*AppSpec { return webapp.UnseenApps() }

// AppByName looks up an application spec by name.
func AppByName(name string) (*AppSpec, error) { return webapp.ByName(name) }

// GenerateTrace produces a synthetic user interaction trace for an
// application with default options (≈110 s session).
func GenerateTrace(spec *AppSpec, seed int64) *Trace {
	return trace.Generate(spec, seed, trace.Options{})
}

// GenerateTraceWith produces a trace with explicit options.
func GenerateTraceWith(spec *AppSpec, seed int64, opts TraceOptions) *Trace {
	return trace.Generate(spec, seed, opts)
}

// Predictor training and configuration.
type (
	// SequenceLearner is the trained event sequence model.
	SequenceLearner = predictor.SequenceLearner
	// PredictorConfig controls the predictor (confidence threshold, DOM
	// analysis toggle).
	PredictorConfig = predictor.Config
)

// DefaultPredictorConfig returns the paper's predictor configuration (70%
// confidence threshold, DOM analysis on).
func DefaultPredictorConfig() PredictorConfig { return predictor.DefaultConfig() }

// TrainPredictor trains the event sequence learner on synthetic traces of
// the seen applications (tracesPerApp per application) and returns it.
func TrainPredictor(tracesPerApp int, seed int64) (*SequenceLearner, error) {
	return predictor.TrainOnSeenApps(tracesPerApp, seed, 1)
}

// Schedulers.
type (
	// ReactiveScheduler is the contract of reactive schedulers.
	ReactiveScheduler = sched.ReactivePolicy
	// ProactiveScheduler is the contract of proactive schedulers.
	ProactiveScheduler = sched.ProactivePolicy
	// PES is the paper's proactive event scheduler.
	PES = core.PES
)

// NewInteractive returns the Android Interactive governor baseline.
func NewInteractive(p *Platform) ReactiveScheduler { return sched.NewInteractive(p) }

// NewOndemand returns the Ondemand governor baseline.
func NewOndemand(p *Platform) ReactiveScheduler { return sched.NewOndemand(p) }

// NewEBS returns the reactive QoS-aware EBS baseline.
func NewEBS(p *Platform) ReactiveScheduler { return sched.NewEBS(p) }

// NewOracle returns the oracle scheduler for a specific event sequence.
func NewOracle(p *Platform, events []*Event) ProactiveScheduler { return sched.NewOracle(p, events) }

// NewPES builds the PES scheduler for one application session.
func NewPES(p *Platform, learner *SequenceLearner, spec *AppSpec, domSeed int64, cfg PredictorConfig) *PES {
	return core.NewPES(p, learner, spec, domSeed, cfg)
}

// Simulation.
type (
	// Result aggregates one simulated session (energy, QoS, speculation,
	// solver statistics).
	Result = engine.Result
	// Outcome is the per-event record of a simulation.
	Outcome = engine.Outcome
	// SolverCounts counts constrained-optimization work: solve count,
	// branch-and-bound nodes explored, budget aborts. It appears per
	// session in Result.Solver, summed over a runner's unique runs in
	// BatchStats.Solver, and summed over a campaign in
	// CampaignResults.Solver.
	SolverCounts = optimizer.SolverCounts
)

// RunReactive replays events under a reactive scheduler.
func RunReactive(p *Platform, app string, events []*Event, policy ReactiveScheduler) *Result {
	return engine.RunReactive(p, app, events, policy)
}

// RunProactive replays events under a proactive scheduler (PES or Oracle).
func RunProactive(p *Platform, app string, events []*Event, policy ProactiveScheduler) *Result {
	return engine.RunProactive(p, app, events, policy)
}

// Batch simulation.
type (
	// BatchRunner executes batches of sessions on a worker pool with a
	// memoized result cache keyed by BatchKey.
	BatchRunner = batch.Runner
	// BatchSession is one unit of batch work: a memo key plus the function
	// that simulates the session on a cache miss.
	BatchSession = batch.Session
	// BatchKey identifies one unique session simulation.
	BatchKey = batch.Key
	// BatchStats reports the sessions/unique-runs/cache-hits counters of a
	// BatchRunner.
	BatchStats = batch.Stats
)

// SessionSpec describes one session simulation for NewSession: a trace
// replayed under a named scheduler ("Interactive", "Ondemand", "EBS", "PES",
// "Oracle"; case-insensitive) on a platform. Learner and Predictor are
// consulted only for PES.
type SessionSpec = sessions.Spec

// NewSession builds a self-contained, correctly-keyed batch session: the
// memo key includes the predictor configuration, the learner identity, and
// a trace fingerprint, so differently-configured sessions never share a
// cache slot. Prefer this over hand-building a BatchSession.
func NewSession(s SessionSpec) (BatchSession, error) { return sessions.New(s) }

// NewBatchRunner creates a batch runner with the given worker-pool size;
// workers <= 0 selects the number of CPUs.
func NewBatchRunner(workers int) *BatchRunner { return batch.NewRunner(workers) }

// Shared session artifacts.
type (
	// ArtifactStore is the shared session-artifact cache: generated traces,
	// memo fingerprints, and offline-trained learners, each built exactly
	// once per store and shared by every consumer of that store. Sessions
	// built with NewSession memoize nothing unless their spec names a
	// store.
	ArtifactStore = artifacts.Store
	// ArtifactStats snapshots an ArtifactStore's build/hit counters (plus
	// the process-wide DOM page-tree cache); it appears in BatchStats when
	// a store is attached to the runner, and in the pes-serve /healthz and
	// campaign-results bodies.
	ArtifactStats = artifacts.Stats
)

// NewArtifactStore creates an empty artifact store. Pass the same store to
// every setup and session that should share traces and trained learners.
func NewArtifactStore() *ArtifactStore { return artifacts.NewStore() }

// Persistent content-addressed storage.
type (
	// PersistentStore is the disk-backed content-addressed store: an
	// append-only checksummed record log that survives restarts, layered
	// under the batch memo cache (BatchRunner.WithStore), the trained
	// learner cache (ArtifactStore.WithPersistent) and the experiment
	// harness (ExperimentConfig.Store). Campaigns re-run against the same
	// directory serve every repeated session from disk — zero
	// re-simulation, no re-training, byte-identical results. Traces are
	// never stored: they are regenerated, which is cheaper than decoding
	// them and yields the same memo keys. One process per directory.
	PersistentStore = store.Store
	// PersistentStoreStats snapshots a PersistentStore's recovery outcome
	// (records recovered, corrupt records skipped, torn bytes dropped) and
	// hit/miss counters; it appears in BatchStats when a store is attached.
	PersistentStoreStats = store.Stats
)

// OpenStore opens (or creates) the persistent store in dir, recovering all
// intact records from its log; torn tails are truncated and corrupt records
// skipped with a counted warning. Close it when done.
func OpenStore(dir string) (*PersistentStore, error) { return store.Open(dir) }

// RunBatch simulates many sessions concurrently on a fresh runner and
// returns the results index-aligned with the input. Sessions with equal keys
// simulate exactly once and share one Result. Keep the runner instead (see
// NewBatchRunner) to reuse its memo cache across batches.
func RunBatch(workers int, sessions []BatchSession) ([]*Result, error) {
	return batch.NewRunner(workers).Run(sessions)
}

// Experiments.
type (
	// Experiments is the harness that regenerates the paper's figures.
	Experiments = experiments.Setup
	// ExperimentConfig parameterizes the harness.
	ExperimentConfig = experiments.Config
	// ResultTable is a printable experiment result.
	ResultTable = experiments.Table
)

// DefaultExperimentConfig returns the paper-equivalent harness settings.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// NewExperiments prepares the experiment harness (trains the predictor; the
// figures generate the evaluation traces when they first read them).
func NewExperiments(cfg ExperimentConfig) (*Experiments, error) { return experiments.NewSetup(cfg) }

// Simulation as a service.
type (
	// Campaign is a simulation campaign request: the cross product of
	// applications, trace seeds and schedulers on one platform, optionally
	// extended by a predictor sensitivity sweep.
	Campaign = server.Campaign
	// CampaignSweep adds a confidence-threshold sensitivity sweep to a
	// campaign.
	CampaignSweep = server.Sweep
	// CampaignPlan is a validated, expanded campaign: one wire spec per
	// session plus index-aligned per-session metadata. It holds no runnable
	// sessions; CampaignSessions builds them.
	CampaignPlan = server.Plan
	// CampaignStatus is the status/progress view of a submitted campaign
	// (the body of POST /v1/campaigns and GET /v1/campaigns/{id}).
	CampaignStatus = server.JobStatus
	// CampaignResults is the body of GET /v1/campaigns/{id}/results:
	// per-session result rows, aggregate energy/QoS tables and the summed
	// solver statistics. Deployment counters (memo cache, store, cluster)
	// are served by GET /healthz and /metrics instead.
	CampaignResults = server.Results
	// Server is the long-running simulation service. All campaigns and
	// figure requests share one memo cache, so overlapping work simulates
	// each unique session exactly once per server.
	Server = server.Server
	// ServerConfig parameterizes the service.
	ServerConfig = server.Config
)

// NewCampaign validates a campaign and expands it into wire specs using the
// harness's predictor defaults; no trace is generated. Build the runnable
// sessions with CampaignSessions.
func NewCampaign(c Campaign, x *Experiments) (*CampaignPlan, error) { return c.Expand(x) }

// CampaignSessions builds a plan's runnable batch sessions, index-aligned
// with its metadata, from the harness's artifact store and trained learner.
// It is the same builder the server and cluster workers use; run the
// result with RunBatch (or a kept BatchRunner).
func CampaignSessions(p *CampaignPlan, x *Experiments) ([]BatchSession, error) {
	return cluster.BuildSessions(x, p.Specs)
}

// NewServer trains the shared harness state and starts the campaign
// workers; expose it over HTTP with its Handler method, and Close it to
// shut down.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Sharded multi-worker campaign execution.
type (
	// ClusterConfig parameterizes a campaign coordinator: static worker
	// seed, transport, per-shard session cap and logger. Ring replicas,
	// shard timeout, heartbeat cadence and probe backoff are fixed.
	ClusterConfig = cluster.Config
	// ClusterCoordinator shards campaign sessions across an elastic worker
	// set by consistent hashing on the batch memo key: workers join via
	// Register and are health-checked by heartbeats, idle workers steal
	// queued work from slow ones, and worker faults re-route to the
	// survivors. It only places and dispatches sessions: those no live
	// worker can take come back unplaced from RunContext, and a server
	// runs them in-process on the path it uses without a cluster. Merged
	// results stay byte-identical to single-process execution. Set it on
	// ServerConfig.Cluster to shard a server's campaigns.
	ClusterCoordinator = cluster.Coordinator
	// ClusterMember is one cluster member's externally visible state:
	// address, static/registered source, and health.
	ClusterMember = cluster.Member
	// ClusterWorker executes shards on its own trained harness and warm
	// caches; serve its Handler to join a cluster.
	ClusterWorker = cluster.Worker
	// ClusterSession is the wire description of one session — the batch
	// memo-key tuple a worker rebuilds the full session from.
	ClusterSession = cluster.SessionSpec
	// ClusterStats snapshots a coordinator's shard/retry/worker counters
	// plus the summed remote worker cache stats.
	ClusterStats = cluster.Stats
)

// NewClusterCoordinator builds a campaign coordinator over the configured
// workers (every worker must run the same harness configuration as the
// coordinating server for merged results to be byte-identical).
func NewClusterCoordinator(cfg ClusterConfig) (*ClusterCoordinator, error) { return cluster.New(cfg) }

// NewClusterWorker trains a worker harness from the experiment
// configuration; serve its Handler over HTTP and point a coordinator at it.
func NewClusterWorker(cfg ExperimentConfig) (*ClusterWorker, error) { return cluster.NewWorker(cfg) }

// Serve runs the simulation service on addr until the process exits (see
// cmd/pes-serve for the graceful-shutdown variant).
func Serve(addr string, cfg ServerConfig) error {
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	return obs.NewHTTPServer(addr, s.Handler()).ListenAndServe()
}
