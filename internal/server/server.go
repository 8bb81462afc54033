package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
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

// ErrQueueFull is returned by submit when QueueDepth campaigns are already
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
	// pending is the campaign's answer, encoded by its job worker when the
	// campaign finished; the first results read takes it (nil after that,
	// and once the worker takes its buffers back).
	pending *pendingResults
	// finished is closed when the job reaches a terminal status (finish),
	// which ends the hold of the POST that submitted it.
	finished chan struct{}
}

// newJob returns a queued job for a campaign expanded to total sessions.
func newJob(id string, plan *Plan, total int) *job {
	return &job{
		id:       id,
		plan:     plan,
		total:    total,
		trace:    obs.NewRecorder(obs.MintTraceID(id)),
		enqueued: time.Now(),
		status:   StatusQueued,
		finished: make(chan struct{}),
	}
}

// terminal reports whether a status is final.
func terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCanceled
}

// finish moves the job to a terminal status, with a done campaign's pending
// entry set in the same critical section, and closes finished. It is the
// one place a job becomes terminal, and a job becomes terminal once.
func (j *job) finish(status, errMsg string, pending *pendingResults) {
	j.mu.Lock()
	j.status, j.errMsg, j.pending = status, errMsg, pending
	j.mu.Unlock()
	close(j.finished)
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

	// spare holds the emptied buffers of pending entries already read, for
	// the job workers' next entries. Its capacity is JobWorkers, one for
	// each worker that can need buffers at once; any more are let go.
	spare chan resultsBuffers
	// resultsPending and resultsOnDemand count the results reads served
	// from a pending entry and those encoded when they arrived.
	resultsPending, resultsOnDemand atomic.Int64
	// submitsTerminal and submitsPending count the campaign POSTs answered
	// with a terminal status and those answered still queued or running.
	submitsTerminal, submitsPending atomic.Int64
}

// New trains the shared predictor (or loads it from the persistent store)
// and starts the campaign workers. Call Close to shut the workers down.
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
		spare:   make(chan resultsBuffers, cfg.JobWorkers),
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
// queued on disk to resume on the next boot. Once a campaign is done, the
// worker encodes its answer into a pending entry for the first results read
// (see pendingResults) while the client is still polling.
func (s *Server) worker() {
	defer s.wg.Done()
	// last is the entry this worker encoded for its previous campaign; the
	// next one reuses its buffers.
	var last *pendingResults
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
			j.finish(StatusCanceled, "server shut down before the campaign started", nil)
			continue
		}
		j.mu.Lock()
		j.status = StatusRunning
		j.mu.Unlock()
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
			j.finish(StatusFailed, err.Error(), nil)
			s.journal.state(j.id, StatusFailed, err.Error())
			s.log.Warn("campaign failed",
				"campaign", j.id, "trace", j.trace.TraceID(), "error", err)
		} else {
			p := &pendingResults{job: j, ready: make(chan struct{}), resultsBuffers: s.buffers(last)}
			j.finish(StatusDone, "", p)
			// Encode first: finish has just released a held POST, whose
			// results read now waits on p.ready, and the journal write and
			// the log line need not stand in its way.
			p.encode(j.plan, results)
			s.journal.state(j.id, StatusDone, "")
			s.log.Info("campaign done",
				"campaign", j.id, "trace", j.trace.TraceID(),
				"sessions", j.total, "elapsed", time.Since(start).Round(time.Millisecond))
			last = p
		}
	}
}

// pendingResults is a finished campaign's answer, encoded by the job worker
// that ran it right after the campaign was marked done, while its client is
// still polling: the job-service form of PES's pending frames, work done
// ahead of the event that needs it. The first results read takes the entry
// (waiting on ready if the worker is still writing it) and serves any
// format and filter from its bytes; the entry is then used up. A read that
// finds no entry, or one that is not ok, encodes on demand.
//
// Whoever clears the job's pending field owns the entry's buffers: the
// read that takes it, which hands them to the spare buffers once it is
// done, or the worker that ran the campaign, which takes them back for its
// next campaign if no read took the entry. So each job worker parks at most
// one entry at any time.
type pendingResults struct {
	job   *job
	ready chan struct{} // closed once the fields below are written
	// ok reports that every row and the tables encoded; a NaN anywhere
	// leaves it false and sends the read to the on-demand path, which
	// reports the error exactly as it always has.
	ok bool
	resultsBuffers
	// tables and solver are the document's aggregate tables and the solver
	// sum over every row.
	tables, solver []byte
}

// resultsBuffers are the reusable buffers a pending entry is written into:
// rows holds every row's JSON followed by '\n', in plan order, and row i
// ends at ends[i], its newline included. events is the memo through which
// the rows share each trace event's bytes: a campaign's rows replaying one
// trace are contiguous (plan order is app, seed, scheduler), so each of its
// events is encoded once per answer instead of once per scheduler. scratch
// is the working memory the aggregate tables are built in.
type resultsBuffers struct {
	rows    []byte
	ends    []int
	events  engine.EventMemo
	scratch *tableScratch
}

// emptied returns the buffers with no rows in them, for the next entry.
func (b resultsBuffers) emptied() resultsBuffers {
	return resultsBuffers{b.rows[:0], b.ends[:0], b.events, b.scratch}
}

// buffers returns empty buffers for a job worker's next pending entry: those
// of the worker's previous entry if no read took it (the worker takes it
// back), else spare ones, else none, and the entry grows its own.
func (s *Server) buffers(last *pendingResults) resultsBuffers {
	if last != nil {
		j := last.job
		j.mu.Lock()
		parked := j.pending == last
		if parked {
			j.pending = nil
		}
		j.mu.Unlock()
		if parked {
			return last.emptied()
		}
	}
	select {
	case b := <-s.spare:
		return b
	default:
		return resultsBuffers{}
	}
}

// release hands the buffers of an entry a read took, emptied, to the spare
// buffers once the read is done with them.
func (s *Server) release(p *pendingResults) {
	select {
	case s.spare <- p.emptied():
	default: // JobWorkers spares are already waiting
	}
}

// maxPendingBytes bounds the rows a pending entry holds. A campaign whose
// rows run past it (a sweep of several hundred sessions) is read on demand,
// so no job worker keeps a buffer much larger than this, and the NDJSON
// stream of a large sweep still never holds it whole.
const maxPendingBytes = 8 << 20

// encode writes the campaign's answer into the entry and closes ready. It
// leaves the entry not ok when a row or the tables cannot be encoded, or
// when the rows outgrow maxPendingBytes.
func (p *pendingResults) encode(plan *Plan, results []*engine.Result) {
	defer close(p.ready)
	p.events.Reset() // its offsets were into the rows of an earlier entry
	var solver optimizer.SolverCounts
	for i, res := range results {
		var err error
		if p.rows, err = (ResultRow{SessionMeta: plan.Meta[i], Result: res}).appendJSON(p.rows, &p.events); err != nil {
			return
		}
		p.rows = append(p.rows, '\n')
		if len(p.rows) > maxPendingBytes {
			return
		}
		p.ends = append(p.ends, len(p.rows))
		solver = solver.Add(res.Solver)
	}
	if p.scratch == nil {
		p.scratch = new(tableScratch)
	}
	var err error
	if p.tables, err = json.Marshal(p.scratch.tables(plan, results)); err != nil {
		return
	}
	p.solver, _ = json.Marshal(solver) // integer counters always encode
	p.ok = true
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

// submit validates and enqueues a campaign, returning its job and whether
// it was admitted behind another campaign already waiting in the queue. The
// campaign is expanded into wire specs only, in either mode: submission
// generates no trace, and the sessions are built when the campaign runs.
// submit does not wait for the campaign; the POST handler's hold does.
func (s *Server) submit(c Campaign) (j *job, behind bool, err error) {
	plan, err := c.Expand(s.setup)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, fmt.Errorf("server is shutting down")
	}
	s.nextID++
	j = newJob(fmt.Sprintf("c%04d", s.nextID), plan, len(plan.Meta))
	behind = len(s.queue) > 0
	// The queue is buffered, so a non-blocking send under s.mu is safe —
	// and holding the lock here means Close (which closes the channel under
	// the same lock) cannot race the send.
	select {
	case s.queue <- j:
	default:
		return nil, false, fmt.Errorf("%w (%d campaigns pending)", ErrQueueFull, s.cfg.QueueDepth)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	// Journal only after the job is actually admitted: a spec record is a
	// promise the campaign will reach a terminal state.
	s.journal.spec(j.id, c, j.total)
	return j, behind, nil
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
//	POST /v1/campaigns              submit a campaign (JSON body), 202 + job
//	                                status once it is done or at submitHold
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
	j, behind, err := s.submit(c)
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
	if !behind {
		// Hold the answer until the campaign finishes, so a short campaign
		// answers done and its client reads the results next instead of
		// sleeping through a poll. A campaign queued behind another does
		// not wait: a client filling the queue pays no bound per campaign.
		hold := time.NewTimer(submitHold)
		select {
		case <-j.finished:
		case <-hold.C:
		case <-r.Context().Done():
		}
		hold.Stop()
	}
	st := j.snapshot()
	if terminal(st.Status) {
		s.submitsTerminal.Add(1)
	} else {
		s.submitsPending.Add(1)
	}
	// 202 even when the campaign is already done: the status in the body
	// says so, and the answer's contract is the same either way.
	writeJSON(w, http.StatusAccepted, st)
}

// submitHold bounds how long a campaign POST waits for its campaign to reach
// a terminal status before answering with the status it has. An 18-session
// campaign runs in about a millisecond warm and a few cold, so both come
// back done; a client that wants a longer campaign's id to show progress
// gets it after a wait it does not notice.
const submitHold = 50 * time.Millisecond

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
	results, p := j.results, j.pending
	j.pending = nil // an entry is used up by its first read
	j.mu.Unlock()
	ndjson := wantsNDJSON(r)
	if p != nil && s.servePending(w, j, p, results, filter, ndjson) {
		s.resultsPending.Add(1)
		return
	}
	s.resultsOnDemand.Add(1)

	buf := resultBufs.Get().(*[]byte)
	defer resultBufs.Put(buf)
	if ndjson {
		// Stream one ResultRow per line so a large sharded sweep never
		// materializes as one giant document on either side. Aggregate
		// tables/solver stats are JSON-mode only. Rows are encoded into
		// the buffer and written in blocks of at least ndjsonBlock bytes,
		// each followed by a flush, and the rest at the end. A row that
		// cannot be encoded (a NaN energy) ends the stream after the last
		// good line: a 500 with an apiError if it is the first row, else a
		// final apiError line after the good rows, so a client can tell a
		// truncated stream from a short one.
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		*buf = (*buf)[:0]
		good := false // some row was encoded, whether or not written yet
		for i, res := range results {
			if !filter.match(j.plan.Meta[i]) {
				continue
			}
			*buf, err = ResultRow{SessionMeta: j.plan.Meta[i], Result: res}.appendJSON(*buf, nil)
			if err != nil {
				e := apiError{Error: "encoding results: " + err.Error()}
				if !good {
					writeJSON(w, http.StatusInternalServerError, e)
					return
				}
				line, _ := json.Marshal(e) // a string field always encodes
				*buf = append(append(*buf, line...), '\n')
				_, _ = w.Write(*buf)
				return
			}
			*buf = append(*buf, '\n')
			good = true
			if len(*buf) >= ndjsonBlock {
				if !writeBlock(w, flusher, *buf) {
					return // client went away; nothing left to report
				}
				*buf = (*buf)[:0]
			}
		}
		if len(*buf) > 0 {
			writeBlock(w, flusher, *buf)
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

// servePending answers a results read from the pending entry it took: the
// same bytes, and for NDJSON the same blocks, as the on-demand path below,
// written straight from the entry's buffer. The entry is used up by this
// read, so the read may rewrite that buffer: the rows the filter selects
// move to its front, and for the document each row's newline becomes the
// comma that joins it to the next. It waits for the entry if the worker is
// still writing it, and reports false, having written nothing, when the
// entry is not ok. Either way it releases the entry's buffers.
func (s *Server) servePending(w http.ResponseWriter, j *job, p *pendingResults, results []*engine.Result, filter rowFilter, ndjson bool) bool {
	<-p.ready
	defer s.release(p)
	if !p.ok {
		return false
	}
	n, k, start := 0, 0, 0 // bytes and rows kept; where row i starts
	var sum optimizer.SolverCounts
	for i, end := range p.ends {
		row := p.rows[start:end]
		start = end
		if !filter.match(j.plan.Meta[i]) {
			continue
		}
		n += copy(p.rows[n:], row)
		p.ends[k] = n
		k++
		sum = sum.Add(results[i].Solver)
	}
	rows, ends := p.rows[:n], p.ends[:k]

	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		from := 0
		for _, end := range ends {
			if end-from >= ndjsonBlock || end == n {
				if !writeBlock(w, flusher, rows[from:end]) {
					return true // client went away
				}
				from = end
			}
		}
		return true
	}

	for _, end := range ends {
		rows[end-1] = ','
	}
	if n > 0 {
		rows = rows[:n-1] // the last row's separator
	}
	solver := p.solver
	if filter != (rowFilter{}) {
		solver, _ = json.Marshal(sum) // the solver sum honors the filter
	}
	id, _ := json.Marshal(j.id) // a string always encodes
	head := append(append([]byte(`{"id":`), id...), `,"rows":[`...)
	tail := append(append([]byte(`],"tables":`), p.tables...), `,"solver":`...)
	tail = append(append(tail, solver...), "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	for _, part := range [][]byte{head, rows, tail} {
		if _, err := w.Write(part); err != nil {
			return true // client went away
		}
	}
	return true
}

// ndjsonBlock is the least number of bytes the NDJSON results stream
// writes at once: a few rows per write and flush instead of one, each of
// which under chunked encoding costs up to three socket writes.
const ndjsonBlock = 64 << 10

// writeBlock writes one block of NDJSON rows and flushes it to the client.
// It reports false when the client went away.
func writeBlock(w http.ResponseWriter, flusher http.Flusher, block []byte) bool {
	if _, err := w.Write(block); err != nil {
		return false
	}
	if flusher != nil {
		flusher.Flush()
	}
	return true
}

// resultBufs recycles the results handler's encoding buffers. A results
// document runs to ~16 KiB a session; growing a fresh one per request costs
// more than encoding into it.
var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendJSON appends the row's JSON encoding, byte for byte what
// json.Marshal(row) writes: the metadata fields in declaration order through
// the engine's string and float appenders, the result through
// engine.Result.AppendJSONMemo with the given event memo (nil for none). On
// error it returns dst as it was, so the rows already in it stay whole.
func (row ResultRow) appendJSON(dst []byte, events *engine.EventMemo) ([]byte, error) {
	m := &row.SessionMeta
	n := len(dst)
	dst = append(dst, `{"platform":`...)
	dst = engine.AppendJSONString(dst, m.Platform)
	dst = append(dst, `,"app":`...)
	dst = engine.AppendJSONString(dst, m.App)
	dst = append(dst, `,"trace_seed":`...)
	dst = strconv.AppendInt(dst, m.TraceSeed, 10)
	dst = append(dst, `,"scheduler":`...)
	dst = engine.AppendJSONString(dst, m.Scheduler)
	var err error
	if m.ConfidenceThreshold != 0 { // omitempty
		dst = append(dst, `,"confidence_threshold":`...)
		if dst, err = engine.AppendJSONFloat(dst, m.ConfidenceThreshold); err != nil {
			return dst[:n], err
		}
	}
	dst = append(dst, `,"label":`...)
	dst = engine.AppendJSONString(dst, m.Label)
	dst = append(dst, `,"result":`...)
	if dst, err = row.Result.AppendJSONMemo(dst, events); err != nil {
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
		if dst, err = row.appendJSON(dst, nil); err != nil {
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
	// ResultsPending counts results reads served from the bytes a job
	// worker encoded when the campaign finished, ResultsOnDemand those
	// encoded when they arrived (a repeat read, an entry already taken
	// back, or one that failed to encode): the committed and the squashed
	// frames of PES, for the service.
	ResultsPending  int64 `json:"results_pending_reads" metric:"pes_results_reads_total,source=pending" help:"Campaign results reads, by where their bytes were encoded."`
	ResultsOnDemand int64 `json:"results_on_demand_reads" metric:"pes_results_reads_total,source=on_demand" help:"Campaign results reads, by where their bytes were encoded."`
	// SubmitsTerminal counts the campaign POSTs whose hold ended with the
	// campaign finished, SubmitsPending those answered still queued or
	// running (at the bound, queued behind another campaign, or the client
	// gone): whether the hold spares clients their status polls.
	SubmitsTerminal int64 `json:"submits_answered_terminal" metric:"pes_submit_answers_total,status=terminal" help:"Campaign submissions answered, by whether the campaign had finished."`
	SubmitsPending  int64 `json:"submits_answered_pending" metric:"pes_submit_answers_total,status=pending" help:"Campaign submissions answered, by whether the campaign had finished."`
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
		ResultsPending:  s.resultsPending.Load(),
		ResultsOnDemand: s.resultsOnDemand.Load(),
		SubmitsTerminal: s.submitsTerminal.Load(),
		SubmitsPending:  s.submitsPending.Load(),
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
