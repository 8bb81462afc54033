package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/sessions"
	"repro/internal/webapp"
)

// Config parameterizes the service.
type Config struct {
	// Experiments configures the shared harness state: predictor training
	// scale, evaluation corpus, simulation worker-pool size, seed. The zero
	// value selects the paper defaults.
	Experiments experiments.Config
	// JobWorkers is the number of campaigns executed concurrently (each
	// campaign's sessions additionally fan out on the batch runner's worker
	// pool). Default 2.
	JobWorkers int
	// QueueDepth caps the number of campaigns waiting to run. Default 256.
	QueueDepth int
	// MaxJobs caps the number of jobs retained for status/result queries;
	// when a new submission would exceed it, the oldest finished jobs are
	// evicted. Default 1024.
	MaxJobs int
	// Cluster optionally shards campaign execution across remote workers
	// through a coordinator; nil executes campaigns in-process on the
	// shared runner. Figure endpoints always run in-process. Workers must
	// share this server's Experiments configuration for merged results to
	// be byte-identical to in-process execution. Sessions no live worker
	// can take run in-process, on the same path as without a cluster, so
	// campaigns degrade to in-process execution when the live worker set
	// empties instead of failing.
	Cluster *cluster.Coordinator
	// DrainTimeout bounds graceful shutdown when a persistent store backs
	// the server (Experiments.Store): Close gives running campaigns this
	// long to finish, then cancels their in-process execution between
	// sessions and returns them to queued — the journal resumes them
	// (tail-only, completed sessions come back as store hits) on the next
	// boot. Default 30s. Without a store, Close waits for running
	// campaigns unconditionally, as before.
	DrainTimeout time.Duration
	// Logger receives the server's structured events (campaign lifecycle,
	// journal recovery); nil selects slog.Default().
	Logger *slog.Logger
}

// ErrQueueFull is returned by Submit when QueueDepth campaigns are already
// waiting — admission control instead of unbounded memory growth. The HTTP
// layer maps it to 429 Too Many Requests with a Retry-After header.
var ErrQueueFull = errors.New("campaign queue is full")

// Job statuses.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// job is one submitted campaign and its lifecycle state.
type job struct {
	id   string
	plan *Plan
	// total is the campaign's session count. It is kept apart from the
	// plan because a campaign that fails to re-expand on journal recovery
	// has an empty plan but still reports its journaled count.
	total int
	// trace accumulates the campaign's span timeline. Its trace ID is
	// minted deterministically from the job ID, so a journal-resumed
	// campaign (same ID) rejoins the same trace.
	trace *obs.Recorder
	// enqueued is when the job entered the queue, the start of its
	// queue_wait span.
	enqueued time.Time

	completed atomic.Int64

	mu      sync.Mutex
	status  string
	results []*engine.Result
	errMsg  string
}

// terminal reports whether a status is final.
func terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCanceled
}

func (j *job) setStatus(status, errMsg string) {
	j.mu.Lock()
	j.status = status
	j.errMsg = errMsg
	j.mu.Unlock()
}

// snapshot returns the job's externally visible state.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:        j.id,
		Status:    j.status,
		Sessions:  j.total,
		Completed: int(j.completed.Load()),
		Error:     j.errMsg,
	}
}

// JobStatus is the response body of GET /v1/campaigns/{id} (and of the
// submission response).
type JobStatus struct {
	ID string `json:"id"`
	// Status is one of queued, running, done, failed, canceled.
	Status string `json:"status"`
	// Sessions is the number of sessions the campaign expanded to.
	Sessions int `json:"sessions"`
	// Completed counts the sessions resolved so far (cache hits included).
	Completed int    `json:"completed"`
	Error     string `json:"error,omitempty"`
}

// ResultRow is one session of a finished campaign: its metadata plus the
// full engine result.
type ResultRow struct {
	SessionMeta
	Result *engine.Result `json:"result"`
}

// Results is the response body of GET /v1/campaigns/{id}/results.
type Results struct {
	ID   string      `json:"id"`
	Rows []ResultRow `json:"rows"`
	// Tables are the aggregate energy and QoS tables (the shape the figure
	// harness computes for Fig. 11/12) over the campaign's sessions.
	Tables []*experiments.Table `json:"tables"`
	// Solver sums the constrained-optimization counters over the
	// campaign's session results (cache-served sessions report the counters
	// of the one simulation that produced them).
	Solver optimizer.SolverCounts `json:"solver"`
}

// Server is the simulation service: one trained harness setup, one shared
// batch runner (and thus one cross-request memo cache), a bounded campaign
// queue, and the HTTP handlers on top.
type Server struct {
	cfg   Config
	setup *experiments.Setup

	// journal persists campaign lifecycle records when a store backs the
	// server; nil otherwise (every journal method is nil-safe).
	journal *journal
	// recovery is the boot-time journal replay outcome.
	recovery RecoverySummary

	// metrics is the registry /metrics serves; log receives structured
	// events; httpLat holds the per-route latency histograms.
	metrics *obs.Registry
	log     *slog.Logger
	httpLat map[string]*obs.Histogram

	// runCtx bounds in-process campaign execution; runCancel fires when the
	// drain deadline passes during Close (journal-backed servers only).
	runCtx    context.Context
	runCancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // job ids in submission order, for eviction
	nextID int
	closed bool

	queue   chan *job
	wg      sync.WaitGroup
	figures memo.Cache[string, *experiments.Table]
}

// New trains the shared predictor, generates the evaluation corpus, and
// starts the campaign workers. Call Close to shut the workers down.
func New(cfg Config) (*Server, error) {
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.MaxJobs < cfg.QueueDepth+cfg.JobWorkers {
		// Eviction skips live jobs, so the cap must leave room for every
		// job that can be queued or running at once.
		cfg.MaxJobs = cfg.QueueDepth + cfg.JobWorkers
	}
	setup, err := experiments.NewSetup(cfg.Experiments)
	if err != nil {
		return nil, err
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	s := &Server{
		cfg:     cfg,
		setup:   setup,
		metrics: obs.NewRegistry(),
		log:     cfg.Logger,
		jobs:    make(map[string]*job),
		queue:   make(chan *job, cfg.QueueDepth),
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	if st := cfg.Experiments.Store; st != nil {
		s.journal = &journal{st: st, log: s.log}
		// Replay the journal before the workers start: every non-terminal
		// campaign re-enqueues under its original ID, and s.nextID advances
		// past every journaled ID so fresh submissions never collide.
		s.recovery = s.recoverJournal()
	}
	s.initMetrics()
	for i := 0; i < cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Resumed reports how many journaled campaigns this server re-enqueued at
// boot.
func (s *Server) Resumed() int { return s.recovery.Resumed }

// Setup exposes the shared harness state (trained learner, corpus, runner).
func (s *Server) Setup() *experiments.Setup { return s.setup }

// Stats snapshots the shared runner's memo-cache counters.
func (s *Server) Stats() batch.Stats { return s.setup.Runner.Stats() }

// Close stops accepting campaigns and shuts the workers down. Without a
// journal, queued jobs are canceled and running ones finish unconditionally
// (individual session simulations are not interruptible). With a journal
// (Experiments.Store set), shutdown drains instead of dropping: queued jobs
// stay journaled as queued and resume on the next boot, running jobs get
// DrainTimeout to finish before their in-process execution is canceled
// between sessions and they return to queued — nothing a client submitted
// is ever silently lost.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	// Closing under the lock serializes with Submit's send on the same
	// channel; waiting happens outside it so workers can keep taking s.mu.
	close(s.queue)
	s.mu.Unlock()
	var deadline *time.Timer
	if s.journal != nil {
		deadline = time.AfterFunc(s.cfg.DrainTimeout, s.runCancel)
	}
	s.wg.Wait()
	if deadline != nil {
		deadline.Stop()
	}
	s.runCancel()
}

// worker executes queued campaigns until the queue closes. After shutdown
// begins, jobs still in the queue are canceled — or, with a journal, left
// queued on disk to resume on the next boot.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			if s.journal != nil {
				// The job's journal spec has no terminal state, so the next
				// boot on this store re-enqueues it. In-memory it stays
				// queued, which is also what the journal says.
				continue
			}
			j.setStatus(StatusCanceled, "server shut down before the campaign started")
			continue
		}
		j.setStatus(StatusRunning, "")
		j.trace.Record(obs.Span{
			Name: "queue_wait", StartUS: j.enqueued.UnixMicro(),
			DurUS: time.Since(j.enqueued).Microseconds(),
		})
		s.log.Info("campaign started",
			"campaign", j.id, "trace", j.trace.TraceID(), "sessions", j.total)
		start := time.Now()
		results, err := s.execute(j, func(completed, total int) {
			j.completed.Add(1)
		})
		if err != nil && errors.Is(err, context.Canceled) && s.journal != nil {
			// The drain deadline passed mid-campaign. Completed sessions are
			// in the store; the journal stays non-terminal, so the next boot
			// resumes this campaign and re-simulates only the missing tail.
			j.mu.Lock()
			j.status = StatusQueued
			j.completed.Store(0)
			j.mu.Unlock()
			s.log.Info("campaign returned to queue at drain deadline",
				"campaign", j.id, "trace", j.trace.TraceID())
			continue
		}
		j.mu.Lock()
		j.results = results
		j.mu.Unlock()
		if err != nil {
			j.setStatus(StatusFailed, err.Error())
			s.journal.state(j.id, StatusFailed, err.Error())
			s.log.Warn("campaign failed",
				"campaign", j.id, "trace", j.trace.TraceID(), "error", err)
		} else {
			j.setStatus(StatusDone, "")
			s.journal.state(j.id, StatusDone, "")
			s.log.Info("campaign done",
				"campaign", j.id, "trace", j.trace.TraceID(),
				"sessions", j.total, "elapsed", time.Since(start).Round(time.Millisecond))
		}
	}
}

// execute runs one expanded campaign and returns its results index-aligned
// with the plan. It is the one place a server runs campaign sessions: with
// a coordinator configured, the sessions are first dispatched to the
// workers (each resolves its shard against its own warm memo/artifact
// caches), and only those no live worker could take run here; without one,
// every session runs here. Local sessions are built from the plan's specs
// with cluster.BuildSessions — the builder the workers use — so the merge,
// and everything downstream of it (rows, tables, solver aggregation), is
// identical either way. Local execution is bounded by the server's run
// context (the drain deadline); cluster dispatch is not — a coordinator
// killed mid-campaign relies on the journal plus the workers' own stores,
// which is the same guarantee with no cooperation needed from remote
// processes.
func (s *Server) execute(j *job, progress func(completed, total int)) ([]*engine.Result, error) {
	specs := j.plan.Specs
	var results []*engine.Result
	var unplaced []int
	if s.cfg.Cluster != nil {
		// Background context plus the trace recorder: cluster dispatch stays
		// non-cancelable (a killed coordinator relies on the journal), while
		// the recorder collects dispatch/steal and worker spans.
		var err error
		results, unplaced, err = s.cfg.Cluster.RunContext(obs.WithTrace(context.Background(), j.trace), specs, progress)
		if err != nil || len(unplaced) == 0 {
			return results, err
		}
	} else {
		results = make([]*engine.Result, len(specs))
		unplaced = make([]int, len(specs))
		for i := range unplaced {
			unplaced[i] = i
		}
	}
	local := make([]cluster.SessionSpec, len(unplaced))
	for k, i := range unplaced {
		local[k] = specs[i]
	}
	sess, err := cluster.BuildSessions(s.setup, local)
	if err != nil {
		return nil, err
	}
	// The runner records its simulate and solve spans on a recorder of its
	// own, merged under the "local" worker label.
	rec := obs.NewRecorder(j.trace.TraceID())
	out, err := s.setup.Runner.RunContext(obs.WithTrace(s.runCtx, rec), sess, progress)
	j.trace.Merge("local", rec.Timeline())
	for k, i := range unplaced {
		results[i] = out[k]
	}
	return results, err
}

// Submit validates and enqueues a campaign, returning its job status. The
// campaign is expanded into wire specs only, in either mode: submission
// generates no trace, and the sessions are built when the campaign runs.
func (s *Server) Submit(c Campaign) (JobStatus, error) {
	plan, err := c.Expand(s.setup)
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, fmt.Errorf("server is shutting down")
	}
	s.nextID++
	id := fmt.Sprintf("c%04d", s.nextID)
	j := &job{
		id:       id,
		plan:     plan,
		total:    len(plan.Meta),
		trace:    obs.NewRecorder(obs.MintTraceID(id)),
		enqueued: time.Now(),
		status:   StatusQueued,
	}
	// The queue is buffered, so a non-blocking send under s.mu is safe —
	// and holding the lock here means Close (which closes the channel under
	// the same lock) cannot race the send.
	select {
	case s.queue <- j:
	default:
		return JobStatus{}, fmt.Errorf("%w (%d campaigns pending)", ErrQueueFull, s.cfg.QueueDepth)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	// Journal only after the job is actually admitted: a spec record is a
	// promise the campaign will reach a terminal state.
	s.journal.spec(j.id, c, j.total)
	return j.snapshot(), nil
}

// evictLocked drops the oldest finished jobs while more than MaxJobs are
// retained. Queued or running jobs are never evicted. Caller holds s.mu.
func (s *Server) evictLocked() {
	if len(s.jobs) <= s.cfg.MaxJobs {
		return
	}
	kept := s.order[:0]
	for i, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if len(s.jobs) <= s.cfg.MaxJobs {
			kept = append(kept, s.order[i:]...)
			break
		}
		j.mu.Lock()
		done := terminal(j.status)
		j.mu.Unlock()
		if done {
			delete(s.jobs, id)
		} else {
			kept = append(kept, id)
		}
	}
	s.order = kept
}

// jobByID looks a job up.
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// figure computes (once) and returns the named figure table. Figure
// simulations run on the shared runner, so campaigns covering the same
// sessions are served from the same memo cache.
func (s *Server) figure(name string) (*experiments.Table, error) {
	f, err := experiments.LookupFigure(name)
	if err != nil {
		return nil, err
	}
	tab, _, err := s.figures.Get(f.Name, func() (*experiments.Table, error) { return f.Run(s.setup) })
	return tab, err
}

// Handler returns the HTTP API:
//
//	POST /v1/campaigns              submit a campaign (JSON body), 202 + job id
//	GET  /v1/campaigns/{id}         job status and progress
//	GET  /v1/campaigns/{id}/results per-session results + aggregate tables
//	GET  /v1/campaigns/{id}/trace   the campaign's span timeline
//	GET  /v1/figures/{name}         one figure of the paper, computed on demand
//	GET  /healthz                   liveness + shared-cache counters
//	GET  /metrics                   Prometheus text exposition of the registry
//
// Coordinators (Config.Cluster set) additionally serve the membership API:
//
//	POST   /v1/cluster/workers        register a worker ({"addr": "host:port"})
//	DELETE /v1/cluster/workers?addr=  deregister a worker
//	GET    /v1/cluster/workers        list members with health state
//
// Every route is timed into the pes_http_request_duration_seconds histogram
// under its route pattern.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(method, route string, h http.HandlerFunc) {
		mux.Handle(method+" "+route, s.timed(route, h))
	}
	handle("POST", "/v1/campaigns", s.handleSubmit)
	handle("GET", "/v1/campaigns/{id}", s.handleStatus)
	handle("GET", "/v1/campaigns/{id}/results", s.handleResults)
	handle("GET", "/v1/campaigns/{id}/trace", s.handleTrace)
	handle("GET", "/v1/figures/{name}", s.handleFigure)
	handle("GET", "/healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.timed("/metrics", s.metrics.Handler()))
	if s.cfg.Cluster != nil {
		handle("POST", "/v1/cluster/workers", s.handleClusterRegister)
		handle("DELETE", "/v1/cluster/workers", s.handleClusterDeregister)
		handle("GET", "/v1/cluster/workers", s.handleClusterMembers)
	}
	return mux
}

// TraceResponse is the body of GET /v1/campaigns/{id}/trace: the campaign's
// span timeline in canonical order. Queryable at any point of the lifecycle
// (an in-flight campaign reports the spans recorded so far); because the
// trace ID is minted from the campaign ID, a journal-resumed campaign keeps
// its trace identity across restarts.
type TraceResponse struct {
	ID      string     `json:"id"`
	TraceID string     `json:"trace_id"`
	Status  string     `json:"status"`
	Spans   []obs.Span `json:"spans"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown campaign id"})
		return
	}
	spans := j.trace.Timeline()
	if spans == nil {
		spans = []obs.Span{}
	}
	writeJSON(w, http.StatusOK, TraceResponse{
		ID:      j.id,
		TraceID: j.trace.TraceID(),
		Status:  j.snapshot().Status,
		Spans:   spans,
	})
}

// registerRequest is the body of POST /v1/cluster/workers.
type registerRequest struct {
	Addr string `json:"addr"`
}

// membersResponse is the body of the membership endpoints' answers.
type membersResponse struct {
	Members []cluster.Member `json:"members"`
}

func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decodeBody(w, r, maxRegistrationBytes, "registration", &req) {
		return
	}
	if err := s.cfg.Cluster.Register(req.Addr); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, membersResponse{Members: s.cfg.Cluster.Members()})
}

func (s *Server) handleClusterDeregister(w http.ResponseWriter, r *http.Request) {
	addr := r.URL.Query().Get("addr")
	if addr == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "missing addr query parameter"})
		return
	}
	if !s.cfg.Cluster.Deregister(addr) {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown worker address"})
		return
	}
	writeJSON(w, http.StatusOK, membersResponse{Members: s.cfg.Cluster.Members()})
}

func (s *Server) handleClusterMembers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, membersResponse{Members: s.cfg.Cluster.Members()})
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON answers compact JSON; `jq .` pretty-prints it. The body is
// encoded before the status line goes out, so a value that cannot be
// encoded (a NaN energy, say) answers 500 with an apiError instead of the
// intended status and an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(apiError{Error: "encoding response: " + err.Error()})
	}
	writeBody(w, code, append(body, '\n'))
}

// writeBody answers an encoded JSON body, newline included.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body) // the status line is out; a failed write is a client gone away
}

// Request body limits: a campaign spec is a few KiB even with long app and
// sweep lists, a registration one address.
const (
	maxCampaignBytes     = 1 << 20
	maxRegistrationBytes = 4 << 10
)

// decodeBody strictly decodes a JSON request body of at most limit bytes
// into v. On failure it answers 413 for an oversized body and 400 for
// anything else, prefixing the error with what, and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, apiError{Error: "invalid " + what + " JSON: " + err.Error()})
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var c Campaign
	if !decodeBody(w, r, maxCampaignBytes, "campaign", &c) {
		return
	}
	st, err := s.Submit(c)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			// Admission control, not a client mistake: tell the client when
			// to come back instead of letting the queue grow without bound.
			w.Header().Set("Retry-After", "5")
			writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown campaign id"})
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// rowFilter is the validated server-side row selection of a results
// request: an optional application and an optional (canonical) scheduler.
type rowFilter struct {
	app   string
	sched string
}

// parseRowFilter validates the ?app= / ?scheduler= query parameters.
func parseRowFilter(r *http.Request) (rowFilter, error) {
	var f rowFilter
	if name := r.URL.Query().Get("app"); name != "" {
		spec, err := webapp.ByName(name)
		if err != nil {
			return f, err
		}
		f.app = spec.Name
	}
	if name := r.URL.Query().Get("scheduler"); name != "" {
		canon, err := sessions.Canonical(name)
		if err != nil {
			return f, err
		}
		f.sched = canon
	}
	return f, nil
}

// match reports whether a session's metadata passes the filter.
func (f rowFilter) match(m SessionMeta) bool {
	return (f.app == "" || m.App == f.app) && (f.sched == "" || m.Scheduler == f.sched)
}

// wantsNDJSON reports whether the client asked for streaming NDJSON rows
// (?format=ndjson or an Accept header naming application/x-ndjson).
func wantsNDJSON(r *http.Request) bool {
	if r.URL.Query().Get("format") == "ndjson" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown campaign id"})
		return
	}
	st := j.snapshot()
	if st.Status != StatusDone {
		writeJSON(w, http.StatusConflict, apiError{
			Error: fmt.Sprintf("campaign %s is %s, results are available once it is %s", st.ID, st.Status, StatusDone),
		})
		return
	}
	filter, err := parseRowFilter(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	j.mu.Lock()
	results := j.results
	j.mu.Unlock()

	buf := resultBufs.Get().(*[]byte)
	defer resultBufs.Put(buf)
	if wantsNDJSON(r) {
		// Stream one ResultRow per line so a large sharded sweep never
		// materializes as one giant document on either side. Aggregate
		// tables/solver stats are JSON-mode only. Each line is encoded
		// whole before any of it is written, so a row that cannot be
		// encoded (a NaN energy) ends the stream after the last good line:
		// a 500 with an apiError if it is the first row, else a final
		// apiError line after the rows already sent, so a client can tell
		// a truncated stream from a short one.
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		wrote := false
		for i, res := range results {
			if !filter.match(j.plan.Meta[i]) {
				continue
			}
			*buf, err = ResultRow{SessionMeta: j.plan.Meta[i], Result: res}.appendJSON((*buf)[:0])
			if err != nil {
				e := apiError{Error: "encoding results: " + err.Error()}
				if !wrote {
					writeJSON(w, http.StatusInternalServerError, e)
				} else {
					line, _ := json.Marshal(e) // a string field always encodes
					_, _ = w.Write(append(line, '\n'))
				}
				return
			}
			*buf = append(*buf, '\n')
			if _, err := w.Write(*buf); err != nil {
				return // client went away; nothing left to report
			}
			wrote = true
			if flusher != nil {
				flusher.Flush()
			}
		}
		return
	}

	rows := make([]ResultRow, 0, len(results))
	var solver optimizer.SolverCounts
	for i, res := range results {
		if !filter.match(j.plan.Meta[i]) {
			continue
		}
		rows = append(rows, ResultRow{SessionMeta: j.plan.Meta[i], Result: res})
		solver = solver.Add(res.Solver)
	}
	// The aggregate tables always cover the full campaign — a filtered
	// subset would silently change what the figures mean — while rows and
	// the solver sum honor the filter.
	out := Results{
		ID:     j.id,
		Rows:   rows,
		Tables: j.plan.Tables(results),
		Solver: solver,
	}
	if *buf, err = out.appendJSON((*buf)[:0]); err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: "encoding results: " + err.Error()})
		return
	}
	*buf = append(*buf, '\n')
	writeBody(w, http.StatusOK, *buf)
}

// resultBufs recycles the results handler's encoding buffers. A results
// document runs to ~16 KiB a session; growing a fresh one per request costs
// more than encoding into it.
var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendJSON appends the row's JSON encoding, byte for byte what
// json.Marshal(row) writes: the small metadata object through encoding/json,
// the result through engine.Result.AppendJSON.
func (row ResultRow) appendJSON(dst []byte) ([]byte, error) {
	meta, err := json.Marshal(row.SessionMeta)
	if err != nil {
		return dst, err
	}
	n := len(dst)
	dst = append(dst, meta[:len(meta)-1]...) // the metadata object, still open
	dst = append(dst, `,"result":`...)
	if dst, err = row.Result.AppendJSON(dst); err != nil {
		return dst[:n], err
	}
	return append(dst, '}'), nil
}

// appendJSON appends the results document's JSON encoding, byte for byte
// what json.Marshal(r) writes for the non-nil Rows the handler builds. Rows
// go through ResultRow.appendJSON; the small aggregate tables and solver
// sum through encoding/json.
func (r *Results) appendJSON(dst []byte) ([]byte, error) {
	id, err := json.Marshal(r.ID)
	if err != nil {
		return dst, err
	}
	tables, err := json.Marshal(r.Tables)
	if err != nil {
		return dst, err
	}
	solver, err := json.Marshal(r.Solver)
	if err != nil {
		return dst, err
	}
	n := len(dst)
	dst = append(dst, `{"id":`...)
	dst = append(dst, id...)
	dst = append(dst, `,"rows":[`...)
	for i, row := range r.Rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = row.appendJSON(dst); err != nil {
			return dst[:n], err
		}
	}
	dst = append(dst, `],"tables":`...)
	dst = append(dst, tables...)
	dst = append(dst, `,"solver":`...)
	dst = append(dst, solver...)
	return append(dst, '}'), nil
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	tab, err := s.figure(r.PathValue("name"))
	if err != nil {
		code := http.StatusNotFound
		if !errors.Is(err, experiments.ErrUnknownFigure) {
			code = http.StatusInternalServerError
		}
		writeJSON(w, code, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, tab)
}

// health is the response body of GET /healthz, and the snapshot the
// server's own /metrics gauges are read from (its metric-tagged fields).
type health struct {
	Status string `json:"status"`
	Jobs   int    `json:"jobs" metric:"pes_jobs" help:"Jobs retained for status/result queries."`
	// Stats and Cluster register their own series (Runner.RegisterMetrics,
	// Coordinator.RegisterMetrics).
	Stats batch.Stats `json:"stats" metric:"-"`
	// Workers is the simulation worker-pool size of the shared runner.
	Workers int `json:"workers"`
	// Cluster reports shard/retry/remote-worker counters when campaigns
	// are sharded across workers (absent in-process).
	Cluster    *cluster.Stats `json:"cluster,omitempty" metric:"-"`
	QueueDepth int            `json:"queue_depth" metric:"pes_campaign_queue_depth" help:"Campaigns waiting in the admission queue."`
	// Journaled reports whether a persistent store journals campaign
	// lifecycles; the embedded RecoverySummary counts what happened to its
	// campaigns at boot. Always present (no omitempty): the CI chaos smoke
	// gates on the exact resumed count, and 0 is an answer, not an absence.
	Journaled bool `json:"journaled" metric:"pes_journaled" help:"1 when a persistent store journals campaign lifecycles."`
	RecoverySummary
}

// health snapshots the /healthz body.
func (s *Server) health() health {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	h := health{
		Status:          "ok",
		Jobs:            jobs,
		Stats:           s.Stats(),
		Workers:         s.setup.Runner.Workers(),
		QueueDepth:      len(s.queue),
		Journaled:       s.journal != nil,
		RecoverySummary: s.recovery,
	}
	if s.cfg.Cluster != nil {
		cs := s.cfg.Cluster.Stats()
		h.Cluster = &cs
	}
	return h
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}
