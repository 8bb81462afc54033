// Package artifacts is the shared session-artifact cache: the immutable
// inputs that every simulation session of a campaign is built from —
// generated traces, their runtime event lists, platform/trace fingerprints,
// and offline-trained sequence learners — built exactly once per process and
// shared by every consumer.
//
// A campaign is the cross product apps × trace seeds × schedulers (times
// sweep configurations); before this cache, each of the ~6 schedulers
// regenerated the identical trace, re-parsed its runtime events, re-hashed
// its fingerprint and (per harness) re-trained the identical learner for
// every (app, seed) pair it touched. The batch runner's memo cache
// deduplicates the *results* of identical sessions; this package
// deduplicates the *inputs* of distinct ones, which is what gates
// unique-session throughput once the solver is fast (see BENCH_pr4.json).
//
// Every artifact is immutable after construction:
//
//   - traces are plain data and no consumer mutates events;
//   - runtime event instances are read-only by engine convention (outcomes
//     reference them, nothing writes them);
//   - fingerprints are strings;
//   - trained learners are read-only at prediction time (each predictor owns
//     its own scratch buffers).
//
// Construction is singleflight: concurrent campaigns requesting the same
// artifact block on one build and share the result. The cache is unbounded
// and process-lived, like the batch memo cache it feeds: artifacts are a few
// kilobytes each and bounded by the distinct (app, seed) pairs and training
// configurations a process touches. The per-trace derivations (runtime
// events, fingerprints) are memoized only for traces the store itself
// generated — pointer-keyed entries for externally built traces would never
// be hit again and would grow without bound, so they are computed without
// caching instead.
//
// The DOM page-tree half of session setup is cached one layer down, in
// package webapp (every webapp.NewSession clones cached master pages); its
// counters are surfaced through Stats here so one snapshot covers the whole
// artifact layer.
package artifacts

import (
	"container/list"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/acmp"
	"repro/internal/mlr"
	"repro/internal/predictor"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// Default is the process-wide store shared by the experiment harness, the
// campaign server, and cmd/pes-bench. Sessions built through
// internal/sessions use it unless a spec names another store.
var Default = NewStore()

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
	// TrainSeed seeds the SGD shuffling (mlr.TrainConfig.Seed).
	TrainSeed int64
}

// corpusKey identifies one generated corpus slice.
type corpusKey struct {
	apps         string // "|"-joined app names
	tracesPerApp int
	baseSeed     int64
	purpose      string
	opts         trace.Options
}

// Singleflight slots. The first requester builds inside the Once; everyone
// else blocks on it and shares the built value.
type (
	traceEntry struct {
		once sync.Once
		tr   *trace.Trace
		// elem is the entry's LRU slot, linked (under Store.mu) once the
		// trace is built; in-flight entries are never evicted.
		elem *list.Element
	}
	runtimeEntry struct {
		once sync.Once
		evs  []*webevent.Event
		err  error
	}
	fingerprintEntry struct {
		once sync.Once
		hash string // content hash of the trace half of a fingerprint
	}
	learnerEntry struct {
		once    sync.Once
		learner *predictor.SequenceLearner
		corpus  trace.Corpus
		err     error
	}
	corpusEntry struct {
		once   sync.Once
		corpus trace.Corpus
	}
)

// Stats snapshots the store's build/hit counters (plus the process-wide
// page-tree cache of package webapp). A build is one artifact constructed; a
// hit is a request answered by an artifact that another request had already
// begun building.
type Stats struct {
	TraceBuilds       int64 `json:"trace_builds" metric:"pes_artifact_builds_total,kind=trace" help:"Artifacts built (by kind)."`
	TraceHits         int64 `json:"trace_hits" metric:"pes_artifact_hits_total,kind=trace" help:"Artifacts served from cache (by kind)."`
	RuntimeBuilds     int64 `json:"runtime_builds" metric:"pes_artifact_builds_total,kind=runtime" help:"Artifacts built (by kind)."`
	RuntimeHits       int64 `json:"runtime_hits" metric:"pes_artifact_hits_total,kind=runtime" help:"Artifacts served from cache (by kind)."`
	FingerprintBuilds int64 `json:"fingerprint_builds" metric:"pes_artifact_builds_total,kind=fingerprint" help:"Artifacts built (by kind)."`
	FingerprintHits   int64 `json:"fingerprint_hits" metric:"pes_artifact_hits_total,kind=fingerprint" help:"Artifacts served from cache (by kind)."`
	LearnerBuilds     int64 `json:"learner_builds" metric:"pes_artifact_builds_total,kind=learner" help:"Artifacts built (by kind)."`
	LearnerHits       int64 `json:"learner_hits" metric:"pes_artifact_hits_total,kind=learner" help:"Artifacts served from cache (by kind)."`
	// TraceEntries is the number of traces currently retained;
	// TraceEvictions counts traces dropped by the LRU bound (zero on
	// unbounded stores). Evicting a trace also drops its derived runtime
	// events and fingerprint; regeneration is deterministic, so eviction
	// never changes an artifact's content, only whether it is rebuilt.
	TraceEntries   int64 `json:"trace_entries" metric:"pes_artifact_trace_entries" help:"Traces currently retained in the artifact cache."`
	TraceEvictions int64 `json:"trace_evictions" metric:"pes_artifact_trace_evictions_total" help:"Traces dropped by the artifact LRU bound."`
	// TraceStoreHits and LearnerStoreHits count artifacts loaded from the
	// persistent store instead of regenerated/retrained (zero when none is
	// attached). A learner store hit skips the SGD training entirely —
	// usually the single most expensive artifact build in a process's life.
	TraceStoreHits   int64 `json:"trace_store_hits" metric:"pes_artifact_store_hits_total,kind=trace" help:"Artifacts loaded from the persistent store (by kind)."`
	LearnerStoreHits int64 `json:"learner_store_hits" metric:"pes_artifact_store_hits_total,kind=learner" help:"Artifacts loaded from the persistent store (by kind)."`
	// PageBuilds and PageHits are the process-wide DOM page-tree cache
	// counters (webapp.PageCacheStats); they are global, not per store.
	PageBuilds int64 `json:"page_builds" metric:"pes_artifact_builds_total,kind=page" help:"Artifacts built (by kind)."`
	PageHits   int64 `json:"page_hits" metric:"pes_artifact_hits_total,kind=page" help:"Artifacts served from cache (by kind)."`
}

// Store is one artifact cache. All methods are safe for concurrent use.
type Store struct {
	mu           sync.Mutex
	traces       map[traceKey]*traceEntry
	owned        map[*trace.Trace]bool // traces this store generated
	runtimes     map[*trace.Trace]*runtimeEntry
	fingerprints map[*trace.Trace]*fingerprintEntry
	learners     map[LearnerKey]*learnerEntry
	corpora      map[corpusKey]*corpusEntry
	maxTraces    int        // 0 = unbounded
	traceLRU     *list.List // completed trace keys, most recently used first
	persist      *store.Store

	traceBuilds, traceHits             atomic.Int64
	runtimeBuilds, runtimeHits         atomic.Int64
	fingerprintBuilds, fingerprintHits atomic.Int64
	learnerBuilds, learnerHits         atomic.Int64
	traceEvictions                     atomic.Int64
	traceStoreHits, learnerStoreHits   atomic.Int64
}

// NewStore creates an empty artifact store. Most callers want Default; a
// private store only makes sense for isolation in tests and cold-path
// benchmarks.
func NewStore() *Store {
	return &Store{
		traces:       make(map[traceKey]*traceEntry),
		owned:        make(map[*trace.Trace]bool),
		runtimes:     make(map[*trace.Trace]*runtimeEntry),
		fingerprints: make(map[*trace.Trace]*fingerprintEntry),
		learners:     make(map[LearnerKey]*learnerEntry),
		corpora:      make(map[corpusKey]*corpusEntry),
		traceLRU:     list.New(),
	}
}

// WithMaxTraces bounds the per-trace cache to at most n generated traces,
// evicting least-recently-used ones (together with their derived runtime
// events and fingerprints) beyond it; n <= 0 keeps the cache unbounded (the
// default). Learners and corpora are never evicted — they are bounded by
// the handful of training configurations a process touches. It returns the
// store for chaining. The write is synchronized (a harness may bound the
// process-wide Default while other consumers run), but the bound only
// applies to traces completed after it is set.
func (s *Store) WithMaxTraces(n int) *Store {
	s.mu.Lock()
	s.maxTraces = n
	s.mu.Unlock()
	return s
}

// WithPersistent layers a persistent content-addressed store under the
// in-memory caches: traces and trained learners are written through on
// first build and loaded back — skipping generation and SGD training — in
// later processes (or sibling stores) sharing the directory. Runtime events,
// fingerprints and corpora are cheap derivations and stay memory-only. The
// persistent store's singleflight keeps builds exactly-once even across
// several artifact stores sharing it. Set before the store is shared across
// goroutines; ps may be nil (no persistence, the default). It returns the
// store for chaining.
func (s *Store) WithPersistent(ps *store.Store) *Store {
	s.persist = ps
	return s
}

// owns reports whether the store generated the trace (and thus keeps its
// derived artifacts).
func (s *Store) owns(tr *trace.Trace) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.owned[tr]
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	pageBuilds, pageHits := webapp.PageCacheStats()
	s.mu.Lock()
	entries := int64(len(s.traces))
	s.mu.Unlock()
	return Stats{
		TraceBuilds:       s.traceBuilds.Load(),
		TraceHits:         s.traceHits.Load(),
		RuntimeBuilds:     s.runtimeBuilds.Load(),
		RuntimeHits:       s.runtimeHits.Load(),
		FingerprintBuilds: s.fingerprintBuilds.Load(),
		FingerprintHits:   s.fingerprintHits.Load(),
		LearnerBuilds:     s.learnerBuilds.Load(),
		LearnerHits:       s.learnerHits.Load(),
		TraceEntries:      entries,
		TraceEvictions:    s.traceEvictions.Load(),
		TraceStoreHits:    s.traceStoreHits.Load(),
		LearnerStoreHits:  s.learnerStoreHits.Load(),
		PageBuilds:        pageBuilds,
		PageHits:          pageHits,
	}
}

// entryLocked returns m[k], creating it with mk on first request, and
// reports whether the entry already existed. Generics keep the five
// singleflight maps on one code path.
func entryLocked[K comparable, E any](mu *sync.Mutex, m map[K]*E, k K, mk func() *E) (*E, bool) {
	mu.Lock()
	defer mu.Unlock()
	if e, ok := m[k]; ok {
		return e, true
	}
	e := mk()
	m[k] = e
	return e, false
}

// Trace returns the deterministic trace for (application, seed, purpose,
// options), generating it on first request. The returned trace is shared;
// callers must not mutate it.
func (s *Store) Trace(spec *webapp.Spec, seed int64, purpose string, opts trace.Options) *trace.Trace {
	k := traceKey{app: spec.Name, seed: seed, purpose: purpose, opts: opts}
	e, hit := entryLocked(&s.mu, s.traces, k, func() *traceEntry { return &traceEntry{} })
	if hit {
		s.traceHits.Add(1)
	}
	e.once.Do(func() {
		e.tr = s.buildTrace(spec, seed, purpose, opts)
		s.mu.Lock()
		s.owned[e.tr] = true
		s.mu.Unlock()
	})
	s.touchTrace(k, e)
	return e.tr
}

// buildTrace resolves a trace-cache miss: plain generation without a
// persistent store, get-or-build through it otherwise. A loaded trace is
// bit-equivalent to a generated one (trace.Trace round-trips through JSON
// exactly, floats included), so fingerprints — and through them the batch
// memo keys — are identical either way.
func (s *Store) buildTrace(spec *webapp.Spec, seed int64, purpose string, opts trace.Options) *trace.Trace {
	generate := func() *trace.Trace {
		s.traceBuilds.Add(1)
		tr := trace.Generate(spec, seed, opts)
		tr.Purpose = purpose
		return tr
	}
	if s.persist == nil {
		return generate()
	}
	key := fmt.Sprintf("trace|%s|%d|%s|%+v", spec.Name, seed, purpose, opts)
	var built *trace.Trace
	val, _, err := s.persist.GetOrBuild(key, func() ([]byte, error) {
		built = generate()
		return json.Marshal(built)
	})
	if built != nil {
		return built
	}
	if err == nil {
		tr := new(trace.Trace)
		if err := json.Unmarshal(val, tr); err == nil {
			s.traceStoreHits.Add(1)
			return tr
		}
	}
	// Store trouble (encode/decode mismatch from a foreign writer) never
	// fails a trace request — generation is always available.
	return generate()
}

// touchTrace marks a trace entry most-recently-used once it is built and
// applies the LRU bound. Evicting a trace drops its derived runtime-event
// and fingerprint entries too; consumers already holding the trace pointer
// keep working (the trace itself is immutable), and a later request for the
// same key regenerates a bit-identical trace.
func (s *Store) touchTrace(k traceKey, e *traceEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.elem != nil {
		s.traceLRU.MoveToFront(e.elem)
		return
	}
	if s.traces[k] != e {
		return // evicted while (or before) completing
	}
	e.elem = s.traceLRU.PushFront(k)
	if s.maxTraces <= 0 {
		return
	}
	for len(s.traces) > s.maxTraces {
		back := s.traceLRU.Back()
		if back == nil {
			break // only in-flight entries remain
		}
		old := back.Value.(traceKey)
		if oe, ok := s.traces[old]; ok && oe.elem == back {
			delete(s.traces, old)
			delete(s.owned, oe.tr)
			delete(s.runtimes, oe.tr)
			delete(s.fingerprints, oe.tr)
			s.traceEvictions.Add(1)
		}
		s.traceLRU.Remove(back)
	}
}

// Runtime returns the runtime event instances of a trace, parsing them on
// first request. Runtime events are immutable by engine convention, so one
// list serves every scheduler replaying the trace. Only traces generated by
// this store are memoized (their pointers are the canonical instances);
// external traces are parsed per call, since a pointer-keyed entry for them
// would never be hit again.
func (s *Store) Runtime(tr *trace.Trace) ([]*webevent.Event, error) {
	if !s.owns(tr) {
		return tr.Runtime()
	}
	e, hit := entryLocked(&s.mu, s.runtimes, tr, func() *runtimeEntry { return &runtimeEntry{} })
	if hit {
		s.runtimeHits.Add(1)
	}
	e.once.Do(func() {
		s.runtimeBuilds.Add(1)
		e.evs, e.err = tr.Runtime()
	})
	return e.evs, e.err
}

// Fingerprint hashes the platform parameters and the full trace content.
// (Platform.Name, App, Seed) alone do not pin the simulation inputs: a
// caller may tweak an exported platform field without renaming it, or load
// or edit a trace whose events differ from the generated ones. Only the
// exported, pointer-free fields are hashed (fmt prints them
// deterministically); the platform's unexported lazily-built config cache
// stays out of the hash.
//
// The expensive half — walking every trace event — is memoized per
// store-generated trace (external traces are hashed per call, see Runtime);
// the handful of platform fields are hashed fresh on every call, so no
// per-platform-instance state accumulates no matter how many Platform
// values a caller constructs. The memo assumes the trace is immutable once
// sessions are being built from it — the same assumption every other shared
// artifact makes.
func (s *Store) Fingerprint(p *acmp.Platform, tr *trace.Trace) string {
	var traceHash string
	if !s.owns(tr) {
		traceHash = computeTraceHash(tr)
	} else {
		e, hit := entryLocked(&s.mu, s.fingerprints, tr, func() *fingerprintEntry { return &fingerprintEntry{} })
		if hit {
			s.fingerprintHits.Add(1)
		}
		e.once.Do(func() {
			s.fingerprintBuilds.Add(1)
			e.hash = computeTraceHash(tr)
		})
		traceHash = e.hash
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%+v|%+v|%d|%d|%g|%s",
		p.Name, p.Little, p.Big, p.DVFSLatency, p.MigrationLatency, p.IdlePowerMW, traceHash)
	return fmt.Sprintf("%016x", h.Sum64())
}

// computeTraceHash hashes the trace half of a fingerprint: the DOM seed and
// every event.
func computeTraceHash(tr *trace.Trace) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|", tr.DOMSeed, len(tr.Events))
	for i := range tr.Events {
		fmt.Fprintf(h, "%+v;", tr.Events[i])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Corpus returns the deterministic corpus for the application set, sharing
// each trace with the per-trace cache (a corpus slice is assembled once per
// distinct shape). It mirrors trace.GenerateCorpus exactly.
func (s *Store) Corpus(apps []*webapp.Spec, tracesPerApp int, baseSeed int64, purpose string, opts trace.Options) trace.Corpus {
	names := ""
	for i, spec := range apps {
		if i > 0 {
			names += "|"
		}
		names += spec.Name
	}
	k := corpusKey{apps: names, tracesPerApp: tracesPerApp, baseSeed: baseSeed, purpose: purpose, opts: opts}
	e, _ := entryLocked(&s.mu, s.corpora, k, func() *corpusEntry { return &corpusEntry{} })
	e.once.Do(func() {
		out := make(trace.Corpus, 0, len(apps)*tracesPerApp)
		for ai, spec := range apps {
			for u := 0; u < tracesPerApp; u++ {
				out = append(out, s.Trace(spec, trace.CorpusSeed(baseSeed, ai, u), purpose, opts))
			}
		}
		e.corpus = out
	})
	return e.corpus
}

// Learner returns the trained sequence learner for the key (and the training
// corpus it was fitted on), training it on first request. Training is
// deterministic, so every harness configured identically shares one model —
// and, through the session memo key's learner identity, one batch cache
// slot per session.
func (s *Store) Learner(k LearnerKey) (*predictor.SequenceLearner, trace.Corpus, error) {
	e, hit := entryLocked(&s.mu, s.learners, k, func() *learnerEntry { return &learnerEntry{} })
	if hit {
		s.learnerHits.Add(1)
	}
	e.once.Do(func() {
		// The corpus is needed in both paths: a freshly trained learner fits
		// on it, and a store-loaded one is still returned alongside it (the
		// harness replays training traces for its own reporting). Corpus
		// traces go through the per-trace cache, so a persistent store warms
		// them too.
		corpus := s.Corpus(webapp.SeenApps(), k.TracesPerApp, k.CorpusSeed, trace.PurposeTrain, trace.Options{})
		train := func() (*predictor.SequenceLearner, error) {
			s.learnerBuilds.Add(1)
			learner := predictor.NewSequenceLearner()
			if err := learner.Train(corpus, mlr.TrainConfig{Seed: k.TrainSeed}); err != nil {
				return nil, fmt.Errorf("artifacts: training %+v: %w", k, err)
			}
			return learner, nil
		}
		if s.persist == nil {
			e.learner, e.err = train()
			e.corpus = corpus
			return
		}
		// The key is configuration-addressed, not content-addressed — safe
		// because training is deterministic: equal configurations produce
		// bit-identical models, which is the same contract LearnerKey
		// already guarantees in memory.
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
			e.learner, e.corpus = built, corpus
			return
		}
		if err != nil {
			e.err = err
			return
		}
		m := new(mlr.Model)
		if err := json.Unmarshal(val, m); err == nil {
			if l, lerr := predictor.LearnerFromModel(m); lerr == nil {
				s.learnerStoreHits.Add(1)
				e.learner, e.corpus = l, corpus
				return
			}
		}
		// A stored model that doesn't decode or doesn't match the current
		// feature shape (written by an older build) falls back to training.
		e.learner, e.err = train()
		e.corpus = corpus
	})
	return e.learner, e.corpus, e.err
}
