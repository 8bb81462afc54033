// Package artifacts is the shared session-artifact cache: the immutable
// inputs that every simulation session of a campaign is built from —
// generated traces, platform/trace fingerprints, and offline-trained
// sequence learners — built exactly once per store and shared by every
// consumer of that store. Each harness (one experiment setup, one cluster
// worker) owns its store; there is no process-wide one, so one harness's
// bounds and persistent layer never reach another.
//
// A campaign is the cross product apps × trace seeds × schedulers (times
// sweep configurations); before this cache, each of the ~6 schedulers
// regenerated the identical trace, re-hashed its fingerprint and (per
// harness) re-trained the identical learner for every (app, seed) pair it
// touched. The batch runner's memo cache deduplicates the *results* of
// identical sessions; this package deduplicates the *inputs* of distinct
// ones, which is what gates unique-session throughput once the solver is
// fast (see BENCH_pr4.json).
//
// Every artifact is immutable after construction:
//
//   - traces and their runtime events are read-only by engine convention
//     (outcomes reference the events, nothing writes them);
//   - fingerprints are strings;
//   - trained learners are read-only at prediction time (each predictor owns
//     its own scratch buffers).
//
// The store caches two kinds of artifact, traces and learners. A corpus is
// not one: Corpus assembles it from the trace cache on each call, and the
// training corpus of a learner is generated inside its training run and
// dropped with it, so a learner loaded from the persistent store costs no
// trace at all.
//
// Construction is singleflight (each cache is a memo.Cache): concurrent
// campaigns requesting the same artifact block on one build and share the
// result. The caches live as long as their store, like the batch memo cache
// they feed (only trained learners can outlive the process, see
// WithPersistent); only traces can be bounded (WithMaxTraces), since
// learners are bounded by the handful of training configurations a process
// touches. The per-trace derivation (the trace half of a fingerprint) lives
// in the trace's own cache entry, so it exists only for traces the store
// itself generated and leaves with them on eviction — externally built
// traces are hashed per call, since entries keyed by them would never be hit
// again.
//
// The DOM page-tree half of session setup is cached one layer down, in
// package webapp (every webapp.NewSession shares cached master pages); its
// counters are surfaced through Stats here so one snapshot covers the whole
// artifact layer.
package artifacts

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/memo"
	"repro/internal/mlr"
	"repro/internal/predictor"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// traceKey identifies one generated trace.
type traceKey struct {
	app     string
	seed    int64
	purpose string
	opts    trace.Options
}

// LearnerKey identifies one offline training run: the seen-application
// corpus shape plus the SGD seed. Equal keys produce bit-identical models
// (training is deterministic), so every harness with the same configuration
// shares one trained learner.
type LearnerKey struct {
	// TracesPerApp is the number of training traces per seen application.
	TracesPerApp int
	// CorpusSeed is the base seed of the training corpus.
	CorpusSeed int64
	// TrainSeed seeds the SGD shuffling.
	TrainSeed int64
}

// traceArtifacts is one generated trace's cache entry: the trace plus the
// content hash of the trace half of its fingerprint, which is computed on
// first request and leaves the cache with the trace.
type traceArtifacts struct {
	tr    *trace.Trace
	asked atomic.Bool // a hash request has begun; later ones count as hits
	once  sync.Once
	hash  string
}

// traceHash returns the entry's trace hash. The first request builds it;
// every later one counts as a hit.
func (s *Store) traceHash(e *traceArtifacts) string {
	if e.asked.Swap(true) {
		s.fingerprintHits.Add(1)
	}
	e.once.Do(func() {
		s.fingerprintBuilds.Add(1)
		e.hash = computeTraceHash(e.tr)
	})
	return e.hash
}

// Stats snapshots the store's build/hit counters (plus the process-wide
// page-tree cache of package webapp). A build is one artifact constructed; a
// hit is a request answered by an artifact that another request had already
// begun building.
type Stats struct {
	TraceBuilds       int64 `json:"trace_builds" metric:"pes_artifact_builds_total,kind=trace" help:"Artifacts built (by kind)."`
	TraceHits         int64 `json:"trace_hits" metric:"pes_artifact_hits_total,kind=trace" help:"Artifacts served from cache (by kind)."`
	FingerprintBuilds int64 `json:"fingerprint_builds" metric:"pes_artifact_builds_total,kind=fingerprint" help:"Artifacts built (by kind)."`
	FingerprintHits   int64 `json:"fingerprint_hits" metric:"pes_artifact_hits_total,kind=fingerprint" help:"Artifacts served from cache (by kind)."`
	LearnerBuilds     int64 `json:"learner_builds" metric:"pes_artifact_builds_total,kind=learner" help:"Artifacts built (by kind)."`
	LearnerHits       int64 `json:"learner_hits" metric:"pes_artifact_hits_total,kind=learner" help:"Artifacts served from cache (by kind)."`
	// TraceEntries is the number of traces currently retained;
	// TraceEvictions counts traces dropped by the LRU bound (zero on
	// unbounded stores). Evicting a trace also drops its derived
	// fingerprint hash; regeneration is deterministic, so eviction
	// never changes an artifact's content, only whether it is rebuilt.
	TraceEntries   int64 `json:"trace_entries" metric:"pes_artifact_trace_entries" help:"Traces currently retained in the artifact cache."`
	TraceEvictions int64 `json:"trace_evictions" metric:"pes_artifact_trace_evictions_total" help:"Traces dropped by the artifact LRU bound."`
	// LearnerStoreHits counts learners loaded from the persistent store
	// instead of retrained (zero when none is attached). A store hit skips
	// the SGD training entirely — usually the single most expensive artifact
	// build in a process's life.
	LearnerStoreHits int64 `json:"learner_store_hits" metric:"pes_artifact_store_hits_total,kind=learner" help:"Artifacts loaded from the persistent store (by kind)."`
	// PageBuilds and PageHits are the process-wide DOM page-tree cache
	// counters (webapp.PageCacheStats); they are global, not per store.
	PageBuilds int64 `json:"page_builds" metric:"pes_artifact_builds_total,kind=page" help:"Artifacts built (by kind)."`
	PageHits   int64 `json:"page_hits" metric:"pes_artifact_hits_total,kind=page" help:"Artifacts served from cache (by kind)."`
}

// Store is one artifact cache. All methods are safe for concurrent use.
type Store struct {
	traces   memo.Cache[traceKey, *traceArtifacts]
	learners memo.Cache[LearnerKey, *predictor.SequenceLearner]
	persist  *store.Store

	// mu guards index, which finds the cache entry of a trace this store
	// generated (and still holds) from the trace pointer.
	mu    sync.Mutex
	index map[*trace.Trace]*traceArtifacts

	traceBuilds, traceHits             atomic.Int64
	fingerprintBuilds, fingerprintHits atomic.Int64
	learnerBuilds, learnerHits         atomic.Int64
	learnerStoreHits                   atomic.Int64
}

// NewStore creates an empty artifact store. A harness creates one and hands
// it to everything that should share its artifacts.
func NewStore() *Store {
	s := &Store{index: make(map[*trace.Trace]*traceArtifacts)}
	s.traces.OnEvict = func(_ traceKey, e *traceArtifacts) {
		s.mu.Lock()
		delete(s.index, e.tr)
		s.mu.Unlock()
	}
	return s
}

// WithMaxTraces bounds the per-trace cache to at most n generated traces,
// evicting least-recently-used ones (together with their derived
// fingerprint hashes) beyond it; n <= 0 keeps the cache unbounded (the
// default). Learners are never evicted — they are bounded by the handful of
// training configurations a process touches. It returns the store for
// chaining. The write is synchronized, but the bound only applies to traces
// completed after it is set.
func (s *Store) WithMaxTraces(n int) *Store {
	s.traces.SetMax(n)
	return s
}

// WithPersistent layers a persistent store under the learner cache: trained
// learners are written through on first build and loaded back — skipping SGD
// training — in later processes (or sibling stores) sharing the directory.
// Everything else stays memory-only: traces are regenerated (cheaper than
// decoding a stored copy, and bit-identical), and fingerprints are cheap
// derivations of them. A learner loaded from disk generates no training
// corpus. The persistent store's singleflight keeps training exactly-once
// even across several artifact stores sharing it.
// Set before the store is shared across goroutines; ps may be nil (no
// persistence, the default). It returns the store for chaining.
func (s *Store) WithPersistent(ps *store.Store) *Store {
	s.persist = ps
	return s
}

// artifactsOf returns the cache entry of a trace the store generated and
// still holds, or nil. A nil store holds nothing, so Fingerprint on it
// hashes per call.
func (s *Store) artifactsOf(tr *trace.Trace) *traceArtifacts {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index[tr]
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	pageBuilds, pageHits := webapp.PageCacheStats()
	return Stats{
		TraceBuilds:       s.traceBuilds.Load(),
		TraceHits:         s.traceHits.Load(),
		FingerprintBuilds: s.fingerprintBuilds.Load(),
		FingerprintHits:   s.fingerprintHits.Load(),
		LearnerBuilds:     s.learnerBuilds.Load(),
		LearnerHits:       s.learnerHits.Load(),
		TraceEntries:      int64(s.traces.Len()),
		TraceEvictions:    s.traces.Evictions(),
		LearnerStoreHits:  s.learnerStoreHits.Load(),
		PageBuilds:        pageBuilds,
		PageHits:          pageHits,
	}
}

// Trace returns the deterministic trace for (application, seed, purpose,
// options), generating it on first request. The returned trace is shared;
// callers must not mutate it. Traces are never persisted: generation is
// deterministic and cheaper than decoding a stored copy, so a restarted
// process regenerates the same trace and, through its content hash, the
// same memo keys.
func (s *Store) Trace(spec *webapp.Spec, seed int64, purpose string, opts trace.Options) *trace.Trace {
	k := traceKey{app: spec.Name, seed: seed, purpose: purpose, opts: opts}
	e, hit, _ := s.traces.Get(k, func() (*traceArtifacts, error) {
		s.traceBuilds.Add(1)
		e := &traceArtifacts{tr: trace.Generate(spec, seed, opts)}
		e.tr.Purpose = purpose
		s.mu.Lock()
		s.index[e.tr] = e
		s.mu.Unlock()
		return e, nil
	})
	if hit {
		s.traceHits.Add(1)
	}
	return e.tr
}

// Runtime returns tr.Events: a trace is its runtime events, so there is
// nothing to parse or cache. It stays because the end-to-end benchmark
// harness (e2ebench/replay.go) calls it; dropping it needs a benchmark
// change. New code reads tr.Events.
func (s *Store) Runtime(tr *trace.Trace) ([]*webevent.Event, error) {
	return tr.Events, nil
}

// Corpus returns the deterministic corpus for the application set: the
// traces trace.GenerateCorpus would build, each drawn from the per-trace
// cache. The slice itself is assembled per call and not cached.
func (s *Store) Corpus(apps []*webapp.Spec, tracesPerApp int, baseSeed int64, purpose string, opts trace.Options) trace.Corpus {
	out := make(trace.Corpus, 0, len(apps)*tracesPerApp)
	for ai, spec := range apps {
		for u := 0; u < tracesPerApp; u++ {
			out = append(out, s.Trace(spec, trace.CorpusSeed(baseSeed, ai, u), purpose, opts))
		}
	}
	return out
}

// Learner returns the trained sequence learner for the key, training it on
// first request (or loading it from the persistent store). Training is
// deterministic, so every harness configured identically shares one model —
// and, through the session memo key's learner identity, one batch cache
// slot per session.
func (s *Store) Learner(k LearnerKey) (*predictor.SequenceLearner, error) {
	l, hit, err := s.learners.Get(k, func() (*predictor.SequenceLearner, error) { return s.buildLearner(k) })
	if hit {
		s.learnerHits.Add(1)
	}
	return l, err
}

// buildLearner resolves a learner-cache miss: training without a persistent
// store, get-or-build through it otherwise. Only training generates the
// training corpus, and the corpus is dropped when training returns.
func (s *Store) buildLearner(k LearnerKey) (*predictor.SequenceLearner, error) {
	train := func() (*predictor.SequenceLearner, error) {
		s.learnerBuilds.Add(1)
		l, err := predictor.TrainOnSeenApps(k.TracesPerApp, k.CorpusSeed, k.TrainSeed)
		if err != nil {
			return nil, fmt.Errorf("artifacts: training %+v: %w", k, err)
		}
		return l, nil
	}
	if s.persist == nil {
		return train()
	}
	// The key is configuration-addressed, not content-addressed — safe
	// because training is deterministic: equal configurations produce
	// bit-identical models, which is the same contract LearnerKey already
	// guarantees in memory.
	key := fmt.Sprintf("learner|tpa=%d|corpus=%d|train=%d", k.TracesPerApp, k.CorpusSeed, k.TrainSeed)
	var built *predictor.SequenceLearner
	val, _, err := s.persist.GetOrBuild(key, func() ([]byte, error) {
		l, err := train()
		if err != nil {
			return nil, err
		}
		built = l
		return json.Marshal(l.Model())
	})
	if built != nil {
		return built, nil
	}
	if err != nil {
		return nil, err
	}
	m := new(mlr.Model)
	if err := json.Unmarshal(val, m); err == nil {
		if l, lerr := predictor.LearnerFromModel(m); lerr == nil {
			s.learnerStoreHits.Add(1)
			return l, nil
		}
	}
	// A stored model that doesn't decode or doesn't match the current
	// feature shape (written by an older build) falls back to training.
	return train()
}
