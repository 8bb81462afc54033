// Package cluster is the multi-process execution layer: a coordinator that
// expands a campaign's sessions into per-worker shards, routes each shard to
// a worker by consistent hashing on the batch memo key, executes shards over
// an HTTP transport, and merges the per-session results back in campaign
// order — byte-identical to single-process execution.
//
// The design leans on two properties the lower layers already guarantee:
//
//   - Determinism. A session is fully described by (platform, app, trace
//     seed, scheduler, predictor config): trace generation, predictor
//     training, and the simulation itself are deterministic, so a worker
//     that rebuilds the session from this description produces the same
//     Result bytes the coordinator's own process would have (workers must
//     run the same harness configuration — training scale and seed — which
//     cmd/pes-serve enforces by sharing one flag set).
//   - Keyed caching. Routing hashes the same tuple the batch memo cache is
//     keyed by, so a given session always lands on the same worker; repeat
//     campaigns hit that worker's warm memo cache, and sessions of one
//     (app, seed) pair cluster on few workers, keeping each worker's
//     artifact cache (traces, fingerprints) warm too.
//
// The cluster is elastic. Membership is dynamic: Config.Workers only seeds
// the set, workers join and leave at runtime through Register/Deregister,
// and every member is health-checked against its /healthz endpoint; the
// consistent ring rebalances live as the healthy set changes. Within a run,
// each worker is fed its ring-owned sessions in bounded chunks, and a
// worker that drains its own queue steals half of the longest remaining
// queue — so one slow shard (the Oracle tail) cannot stall the campaign
// behind an otherwise idle cluster. The coordinator only places and
// dispatches: it builds and runs no session itself. Sessions that no live
// worker can take (the membership is empty, or every member failed) are
// returned to the caller as unplaced, and the server runs them in-process
// on the same path it uses without a cluster.
//
// Failures are split by fault domain, because the two kinds must be treated
// oppositely:
//
//   - Client fault (HTTP 4xx: invalid session spec, shard-frame-version
//     skew).
//     Deterministic — every worker would reject it identically — so the
//     campaign fails immediately with the rejection and no worker is
//     excluded. Treating these as worker failures would cascade the same
//     rejection across the ring and poison every member for the run.
//   - Worker fault (transport error, 5xx, malformed or short response).
//     The worker is excluded for the rest of the run, marked unhealthy in
//     the membership (probes heal it when it recovers), and its sessions
//     are re-routed across the remaining workers.
//   - Session error (a deterministic simulation error reported by a healthy
//     worker). Not retried — it would fail identically anywhere — and
//     surfaced like the in-process runner's first error, with every other
//     session still completing.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/sessions"
)

// SessionSpec is the wire description of one session: the same tuple that
// keys the batch memo cache. A worker rebuilds the full batch session —
// trace, fingerprint, scheduler instance — from it; Predictor must be
// fully specified (the campaign layer merges defaults before routing).
type SessionSpec struct {
	Platform  string           `json:"platform"`
	App       string           `json:"app"`
	TraceSeed int64            `json:"trace_seed"`
	Scheduler string           `json:"scheduler"`
	Predictor predictor.Config `json:"predictor"`
}

// RouteKey canonically encodes the memo-key tuple for consistent hashing.
func (s SessionSpec) RouteKey() string {
	var b strings.Builder
	b.WriteString(s.Platform)
	b.WriteByte('|')
	b.WriteString(s.App)
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(s.TraceSeed, 10))
	b.WriteByte('|')
	b.WriteString(s.Scheduler)
	b.WriteByte('|')
	b.WriteString(sessions.PredictorKey(s.Predictor))
	return b.String()
}

// ShardRequest is the body of POST /v1/shards: the sessions routed to one
// worker.
type ShardRequest struct {
	Sessions []SessionSpec `json:"sessions"`
}

// ShardResponse is a worker's answer: results index-aligned with the
// request's sessions (entries are null for failed sessions), the first
// session error if any, and a snapshot of the worker's cumulative runner
// counters (how warm its memo cache is).
type ShardResponse struct {
	Results []*engine.Result `json:"results"`
	Error   string           `json:"error,omitempty"`
	// Stats are the worker runner's counters, without the Artifacts and
	// Store snapshots: the coordinator sums only the top-level counters.
	Stats batch.Stats `json:"stats"`
	// Spans are the worker-side trace spans for this shard (the batch
	// runner's simulate and solve spans), present only when the request
	// carried a trace ID.
	// The coordinator merges them into the campaign's timeline, stamping the
	// worker address the worker itself does not know.
	Spans []obs.Span `json:"spans,omitempty"`
}

// ClientFaultError is a shard rejection that is the campaign's fault — an
// invalid session spec, a frame-version skew, a malformed shard request —
// not the worker's. The rejection is deterministic: every worker would
// answer it identically, so the dispatcher fails the campaign immediately
// and excludes nobody instead of cascading the same 4xx across the ring.
type ClientFaultError struct {
	// Worker is the address that rejected the shard.
	Worker string
	// Status is the HTTP status code: 4xx, or 200 for a worker that
	// answered JSON instead of a shard-response frame.
	Status int
	// Msg is the worker's error message.
	Msg string
}

func (e *ClientFaultError) Error() string {
	return fmt.Sprintf("cluster: worker %s rejected the shard (HTTP %d): %s", e.Worker, e.Status, e.Msg)
}

// IsClientFault reports whether err marks a deterministic client-fault
// shard rejection (see ClientFaultError) anywhere in its chain.
func IsClientFault(err error) bool {
	var cf *ClientFaultError
	return errors.As(err, &cf)
}

// Transport executes one shard on one worker. Implementations must be safe
// for concurrent use. An error return that satisfies IsClientFault fails
// the whole campaign immediately (deterministic rejection, nobody
// excluded); any other error means the worker failed and its sessions are
// re-routed. Transports that also implement Pinger get coordinator health
// probes.
type Transport interface {
	RunShard(ctx context.Context, worker string, req ShardRequest) (ShardResponse, error)
}

// Pinger is the optional health-probe side of a Transport. The coordinator
// heartbeat loop probes every member through it; transports that do not
// implement it (test fakes) skip health checking entirely.
type Pinger interface {
	Ping(ctx context.Context, worker string) error
}

// Stats snapshots a coordinator's counters.
type Stats struct {
	// Workers is the current healthy member count.
	Workers int `json:"workers" metric:"pes_cluster_workers" help:"Currently healthy cluster members."`
	// Members lists every member (healthy or not) with its source.
	Members []Member `json:"members,omitempty"`
	// Shards counts shard dispatches (including re-dispatches after a
	// worker failure); SessionsRouted counts the sessions inside them.
	Shards         int64 `json:"shards" metric:"pes_cluster_shards_total" help:"Shard dispatches, re-dispatches after worker failure included."`
	SessionsRouted int64 `json:"sessions_routed" metric:"pes_cluster_sessions_routed_total" help:"Sessions inside dispatched shards."`
	// Retries counts redistribution events after a worker failure;
	// WorkerFailures counts the failed dispatches that caused them.
	Retries        int64 `json:"retries" metric:"pes_cluster_retries_total" help:"Redistribution events after a worker failure."`
	WorkerFailures int64 `json:"worker_failures" metric:"pes_cluster_worker_failures_total" help:"Failed shard dispatches that caused re-routing."`
	// Steals counts dispatches an idle worker stole from the longest
	// remaining queue; SessionsStolen counts the sessions inside them.
	Steals         int64 `json:"steals" metric:"pes_cluster_steals_total" help:"Dispatches an idle worker stole from the longest queue."`
	SessionsStolen int64 `json:"sessions_stolen" metric:"pes_cluster_sessions_stolen_total" help:"Sessions inside stolen dispatches."`
	// SpillOvers counts the times sessions were left unplaced because no
	// live worker remained (the caller runs them in-process);
	// SessionsSpilled counts those sessions. They are not counted in
	// Shards/SessionsRouted.
	SpillOvers      int64 `json:"spill_overs" metric:"pes_cluster_spill_overs_total" help:"Fallbacks to local in-process execution (no live workers)."`
	SessionsSpilled int64 `json:"sessions_spilled" metric:"pes_cluster_sessions_spilled_total" help:"Sessions no live worker could take, left to local in-process execution."`
	// ClientFaults counts campaigns rejected for a deterministic client
	// fault (4xx): the campaign fails, no worker is excluded.
	ClientFaults int64 `json:"client_faults" metric:"pes_cluster_client_faults_total" help:"Campaigns rejected for a deterministic client fault (4xx)."`
	// ProbesSkipped counts health probes suppressed because the member's
	// failure backoff window had not elapsed (flap damping at work).
	ProbesSkipped int64 `json:"probes_skipped" metric:"pes_cluster_probes_skipped_total" help:"Health probes suppressed by a member's failure backoff window."`
	// Remote sums the latest runner-stats snapshot reported by each
	// currently healthy member: cache hits here are sessions a worker
	// served from its warm memo cache. Snapshots of excluded, unhealthy, or
	// departed members are dropped, not summed — a dead worker's stale
	// counters must not inflate the cluster's cache totals.
	Remote batch.Stats `json:"remote" metric:"-"`
}

// Coordinator tuning that no deployment has needed to change.
const (
	// ringReplicas is the number of virtual nodes per worker on the hash
	// ring.
	ringReplicas = 64
	// shardTimeout bounds one shard execution. A shard that exceeds it
	// counts as a worker failure — the worker is excluded and the shard
	// re-routed — so it sits well above the largest expected chunk's cold
	// (cache-miss) run time.
	shardTimeout = 10 * time.Minute
	// probeBackoffBase is the first re-probe delay charged to a member
	// after a failure. Each further consecutive failure — dispatch fault or
	// probe — doubles it with jitter, up to probeBackoffMax, so a flapping
	// worker is re-routed away from immediately but re-probed lazily instead
	// of hammered. A passing probe or a re-registration clears the backoff.
	probeBackoffBase = time.Second
	probeBackoffMax  = time.Minute
)

// Config parameterizes a coordinator.
type Config struct {
	// Workers statically seeds the membership ("host:port" or a full URL
	// per entry). It may be empty: workers can join at runtime through
	// Register (the -coordinator flag on pes-serve workers).
	Workers []string
	// Transport overrides the shard transport; nil selects HTTP.
	Transport Transport
	// MaxShardSessions caps the sessions per dispatched chunk (default 16).
	// A worker is fed its queue in chunks of up to this cap; smaller chunks
	// leave more queue behind for idle workers to steal and shrink the work
	// lost to a worker fault, larger chunks amortize transport overhead and
	// preserve session→worker cache affinity.
	MaxShardSessions int
	// Logger receives the coordinator's structured events (membership
	// transitions, worker faults, steals); nil selects slog.Default().
	Logger *slog.Logger

	// heartbeatInterval is the period of the membership health-check loop
	// (default 3s). Probes run only when the transport implements Pinger.
	heartbeatInterval time.Duration
	// heartbeatTimeout bounds one health probe (default 2s).
	heartbeatTimeout time.Duration
	// heartbeatFailures is the number of consecutive failed probes that
	// mark a member unhealthy (default 3). A single passing probe heals it.
	heartbeatFailures int
	// retryBudget caps worker-fault re-route events per campaign (default
	// 16). Re-routing is immediate and cheap, but unbounded: a pathological
	// fleet (every worker flapping) could otherwise bounce the same
	// sessions around the ring forever. Exhausting the budget fails the
	// campaign with the last worker error attached.
	retryBudget int
}

// Coordinator routes sessions to workers and merges their results. Safe for
// concurrent use; one coordinator serves every campaign of a server. Close
// stops the health-check loop.
type Coordinator struct {
	cfg       Config
	transport Transport
	members   *membership
	log       *slog.Logger

	// shardLatency is the round-trip histogram set by RegisterMetrics at
	// wiring time (nil when telemetry is unwired; observations are nil-safe).
	shardLatency *obs.Histogram

	shards          atomic.Int64
	sessionsRouted  atomic.Int64
	retries         atomic.Int64
	workerFailures  atomic.Int64
	steals          atomic.Int64
	sessionsStolen  atomic.Int64
	spillOvers      atomic.Int64
	sessionsSpilled atomic.Int64
	clientFaults    atomic.Int64
	probesSkipped   atomic.Int64

	mu          sync.Mutex
	workerStats map[string]batch.Stats // latest snapshot per worker

	hbStop    chan struct{}
	hbDone    chan struct{}
	closeOnce sync.Once
}

// New builds a coordinator. The static worker seed may be empty — workers
// can join later through Register — in which case every session is
// unplaced until the first member joins.
func New(cfg Config) (*Coordinator, error) {
	if err := validateSeed(cfg.Workers); err != nil {
		return nil, err
	}
	if cfg.MaxShardSessions <= 0 {
		cfg.MaxShardSessions = 16
	}
	if cfg.heartbeatInterval <= 0 {
		cfg.heartbeatInterval = 3 * time.Second
	}
	if cfg.heartbeatTimeout <= 0 {
		cfg.heartbeatTimeout = 2 * time.Second
	}
	if cfg.heartbeatFailures <= 0 {
		cfg.heartbeatFailures = 3
	}
	if cfg.retryBudget <= 0 {
		cfg.retryBudget = 16
	}
	t := cfg.Transport
	if t == nil {
		t = NewHTTPTransport()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	c := &Coordinator{
		cfg:         cfg,
		transport:   t,
		members:     newMembership(cfg.Workers),
		log:         logger,
		workerStats: make(map[string]batch.Stats),
		hbStop:      make(chan struct{}),
		hbDone:      make(chan struct{}),
	}
	if p, ok := t.(Pinger); ok {
		go c.heartbeat(p)
	} else {
		close(c.hbDone)
	}
	return c, nil
}

// Close stops the membership health-check loop. Idempotent; in-flight runs
// are unaffected (they finish on the membership as last probed).
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.hbStop) })
	<-c.hbDone
}

// heartbeat probes every member's /healthz on a fixed period, healing
// members whose probes pass and marking members unhealthy after
// heartbeatFailures consecutive failures. Membership changes rebuild the
// ring and wake in-flight runs.
func (c *Coordinator) heartbeat(p Pinger) {
	defer close(c.hbDone)
	ticker := time.NewTicker(c.cfg.heartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-ticker.C:
		}
		due, skipped := c.members.probeTargets(time.Now())
		c.probesSkipped.Add(int64(skipped))
		for _, addr := range due {
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.heartbeatTimeout)
			err := p.Ping(ctx, addr)
			cancel()
			if err != nil {
				if c.members.probe(addr, false, c.cfg.heartbeatFailures) {
					c.dropStats(addr)
					c.log.Warn("cluster member unhealthy", "worker", addr, "cause", "probe", "error", err)
				}
			} else if c.members.probe(addr, true, c.cfg.heartbeatFailures) {
				c.log.Info("cluster member healed", "worker", addr)
			}
		}
	}
}

// Register adds a worker to the live membership (or heals an existing
// member). The ring rebalances immediately and in-flight campaigns start
// stealing work for the new member.
func (c *Coordinator) Register(addr string) error {
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return fmt.Errorf("cluster: empty worker address")
	}
	if c.members.register(addr, SourceRegistered) {
		c.log.Info("cluster member registered", "worker", addr)
	}
	return nil
}

// Deregister removes a worker from the membership entirely and drops its
// stats snapshot; reports whether the worker was a member. In-flight
// dispatches to it are not interrupted (their failure, if any, is handled
// like any worker fault).
func (c *Coordinator) Deregister(addr string) bool {
	if !c.members.deregister(addr) {
		return false
	}
	c.dropStats(addr)
	c.log.Info("cluster member deregistered", "worker", addr)
	return true
}

// Members returns a snapshot (copies) of every member's state.
func (c *Coordinator) Members() []Member { return c.members.snapshot() }

// Workers returns a copy of the current member addresses, sorted. Mutating
// the returned slice does not affect routing.
func (c *Coordinator) Workers() []string { return c.members.addrs() }

// noteWorkerFault marks a member unhealthy after a dispatch-level failure
// and drops its stats snapshot.
func (c *Coordinator) noteWorkerFault(addr string) {
	c.members.fault(addr)
	c.dropStats(addr)
}

func (c *Coordinator) setWorkerStats(addr string, st batch.Stats) {
	c.mu.Lock()
	c.workerStats[addr] = st
	c.mu.Unlock()
}

func (c *Coordinator) dropStats(addr string) {
	c.mu.Lock()
	delete(c.workerStats, addr)
	c.mu.Unlock()
}

// Stats returns a snapshot of the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	members := c.members.snapshot()
	st := Stats{
		Members:         members,
		Shards:          c.shards.Load(),
		SessionsRouted:  c.sessionsRouted.Load(),
		Retries:         c.retries.Load(),
		WorkerFailures:  c.workerFailures.Load(),
		Steals:          c.steals.Load(),
		SessionsStolen:  c.sessionsStolen.Load(),
		SpillOvers:      c.spillOvers.Load(),
		SessionsSpilled: c.sessionsSpilled.Load(),
		ClientFaults:    c.clientFaults.Load(),
		ProbesSkipped:   c.probesSkipped.Load(),
	}
	healthy := make(map[string]bool, len(members))
	for _, m := range members {
		if m.Healthy {
			healthy[m.Addr] = true
			st.Workers++
		}
	}
	c.mu.Lock()
	for addr, ws := range c.workerStats {
		if !healthy[addr] {
			// Excluded or departed members' last snapshots must not inflate
			// the live totals.
			continue
		}
		st.Remote.Sessions += ws.Sessions
		st.Remote.UniqueRuns += ws.UniqueRuns
		st.Remote.CacheHits += ws.CacheHits
		st.Remote.CacheEntries += ws.CacheEntries
		st.Remote.CacheEvictions += ws.CacheEvictions
		st.Remote.StoreHits += ws.StoreHits
		st.Remote.Solver = st.Remote.Solver.Add(ws.Solver)
	}
	c.mu.Unlock()
	return st
}

// run is the in-flight state of one Coordinator.RunContext call: per-member
// work queues fed in bounded chunks, a runner goroutine per member that
// steals from the longest queue when its own drains, and the list of
// sessions no live member can take.
type run struct {
	c     *Coordinator
	specs []SessionSpec
	out   []*engine.Result
	total int

	ctx    context.Context
	cancel context.CancelFunc
	// trace is the campaign's span recorder, taken from the caller's context
	// (nil when untraced — all recording is nil-safe).
	trace *obs.Recorder

	progress  func(completed, total int)
	completed atomic.Int64

	mu          sync.Mutex
	cond        *sync.Cond
	queues      map[string][]int // pending original indices per member
	unplaced    []int            // indices no live member could take
	runners     map[string]bool
	excluded    map[string]bool // members failed this run
	inflight    map[string]bool // members with a shard dispatched and unresolved
	resolved    int
	retriesUsed int // worker-fault re-routes charged against retryBudget
	done        bool
	fatalErr    error
	sessErr     error
	wg          sync.WaitGroup
}

// RunContext places the sessions on the cluster's workers and returns the
// results index-aligned with the input — the same contract as the in-process
// batch runner: on a session error the first error is returned and the
// corresponding entries are nil, while every other session still completes.
// progress (may be nil) is called once per session a worker resolved,
// possibly from several goroutines.
//
// unplaced lists, in ascending order, the indices no healthy, non-excluded
// member could take — the membership was empty, or every member failed
// mid-run. Their results are nil; running them is the caller's job (the
// server runs them in-process). They are counted in SpillOvers and
// SessionsSpilled, not reported to progress.
//
// A worker fault excludes that worker for the rest of the run and re-routes
// its sessions; a client fault (deterministic 4xx rejection) fails the
// campaign immediately and excludes nobody. A trace recorder attached to
// ctx with obs.WithTrace collects dispatch/steal spans (and the worker-side
// spans returned in shard responses), the trace ID propagates to workers in
// the X-Pes-Trace-Id header, and cancelling ctx aborts the run with ctx's
// error (in-flight shards are abandoned; workers complete them into their
// own caches).
func (c *Coordinator) RunContext(ctx context.Context, specs []SessionSpec, progress func(completed, total int)) (results []*engine.Result, unplaced []int, err error) {
	out := make([]*engine.Result, len(specs))
	if len(specs) == 0 {
		return out, nil, nil
	}
	r := &run{
		c:        c,
		specs:    specs,
		out:      out,
		total:    len(specs),
		trace:    obs.TraceFrom(ctx),
		progress: progress,
		queues:   make(map[string][]int),
		runners:  make(map[string]bool),
		excluded: make(map[string]bool),
		inflight: make(map[string]bool),
	}
	r.cond = sync.NewCond(&r.mu)
	r.ctx, r.cancel = context.WithCancel(ctx)
	defer r.cancel()
	// A parent-context cancellation must wake the completion wait below,
	// which otherwise only the runners' broadcasts do.
	stopWatch := context.AfterFunc(ctx, func() {
		r.mu.Lock()
		if r.fatalErr == nil {
			r.fatalErr = ctx.Err()
		}
		r.cancel()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer stopWatch()

	all := make([]int, len(specs))
	for i := range all {
		all[i] = i
	}
	r.mu.Lock()
	r.assignLocked(all)
	// Idle members get runners too, so they can steal immediately.
	for _, addr := range c.members.healthy() {
		r.ensureRunnerLocked(addr)
	}
	r.mu.Unlock()

	go r.watchMembership()

	r.mu.Lock()
	for r.fatalErr == nil && r.resolved < r.total {
		r.cond.Wait()
	}
	r.done = true
	err = r.fatalErr
	r.cancel()
	r.cond.Broadcast()
	r.mu.Unlock()

	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	slices.Sort(r.unplaced)
	if err == nil {
		err = r.sessErr
	}
	return out, r.unplaced, err
}

// note reports n resolved sessions to the progress callback (outside r.mu —
// the callback may call back into the coordinator).
func (r *run) note(n int) {
	if r.progress == nil {
		return
	}
	for i := 0; i < n; i++ {
		r.progress(int(r.completed.Add(1)), r.total)
	}
}

// assignLocked routes indices to the healthy, non-excluded members by ring
// ownership; those no member can take resolve as unplaced. Caller holds
// r.mu.
func (r *run) assignLocked(indices []int) {
	spilled := 0
	for _, i := range indices {
		addr, ok := r.c.members.owner(r.specs[i].RouteKey(), r.excluded)
		if !ok {
			r.unplaced = append(r.unplaced, i)
			spilled++
			continue
		}
		r.queues[addr] = append(r.queues[addr], i)
		r.ensureRunnerLocked(addr)
	}
	if spilled > 0 {
		r.c.spillOvers.Add(1)
		r.c.sessionsSpilled.Add(int64(spilled))
		r.resolved += spilled
	}
	r.cond.Broadcast()
}

// ensureRunnerLocked starts the member's runner goroutine once. Caller
// holds r.mu.
func (r *run) ensureRunnerLocked(addr string) {
	if r.runners[addr] || r.excluded[addr] || r.done || r.fatalErr != nil {
		return
	}
	r.runners[addr] = true
	r.wg.Add(1)
	go r.runner(addr)
}

// watchMembership starts runners for members that join mid-run, so a fresh
// worker immediately begins stealing queued work.
func (r *run) watchMembership() {
	for {
		ch := r.c.members.watchCh()
		r.mu.Lock()
		if r.done || r.fatalErr != nil {
			r.mu.Unlock()
			return
		}
		for _, addr := range r.c.members.healthy() {
			r.ensureRunnerLocked(addr)
		}
		r.mu.Unlock()
		select {
		case <-r.ctx.Done():
			return
		case <-ch:
		}
	}
}

// chunkLocked takes the member's next dispatch: its own queue from the head
// (up to the chunk cap), or — when its queue is empty — half of the longest
// queue of a member with a shard in flight, from the tail (a steal).
// Own-queue chunks take everything up to the cap rather than a fraction, so
// a balanced cluster dispatches each member's sessions in one shard and
// steals nothing: session→worker affinity (and the warm memo caches it buys
// on repeat campaigns) is only traded away when a queue outlives its busy
// owner. A member whose runner has not yet taken its first chunk is never
// stolen from, however late that runner gets scheduled. Caller holds r.mu.
func (r *run) chunkLocked(addr string) (indices []int, stolen bool) {
	limit := r.c.cfg.MaxShardSessions
	if q := r.queues[addr]; len(q) > 0 {
		n := len(q)
		if n > limit {
			n = limit
		}
		indices = append([]int(nil), q[:n]...)
		r.queues[addr] = q[n:]
		return indices, false
	}
	victim, longest := "", 0
	for a, q := range r.queues {
		if a != addr && r.inflight[a] && len(q) > longest {
			victim, longest = a, len(q)
		}
	}
	if victim == "" {
		return nil, false
	}
	n := (longest + 1) / 2
	if n > limit {
		n = limit
	}
	q := r.queues[victim]
	indices = append([]int(nil), q[len(q)-n:]...)
	r.queues[victim] = q[:len(q)-n]
	return indices, true
}

// runner is one member's dispatch loop: chunks of its own queue, then
// steals, until the run completes, a fatal error lands, or the member
// fails.
func (r *run) runner(addr string) {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		var chunk []int
		var stolen bool
		for {
			if r.done || r.fatalErr != nil || r.excluded[addr] {
				r.mu.Unlock()
				return
			}
			chunk, stolen = r.chunkLocked(addr)
			if chunk != nil {
				break
			}
			r.cond.Wait()
		}
		r.inflight[addr] = true
		if len(r.queues[addr]) > 0 {
			// The rest of this member's queue just became stealable.
			r.cond.Broadcast()
		}
		r.mu.Unlock()

		spanName := "dispatch"
		if stolen {
			r.c.steals.Add(1)
			r.c.sessionsStolen.Add(int64(len(chunk)))
			spanName = "steal"
			r.c.log.Debug("cluster steal", "worker", addr, "sessions", len(chunk), "trace", r.trace.TraceID())
		}
		r.c.shards.Add(1)
		r.c.sessionsRouted.Add(int64(len(chunk)))
		req := ShardRequest{Sessions: make([]SessionSpec, len(chunk))}
		for k, i := range chunk {
			req.Sessions[k] = r.specs[i]
		}
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.ctx, shardTimeout)
		resp, err := r.c.transport.RunShard(ctx, addr, req)
		cancel()
		rtt := time.Since(start)
		if err == nil && len(resp.Results) != len(chunk) {
			err = fmt.Errorf("cluster: worker %s returned %d results for %d sessions", addr, len(resp.Results), len(chunk))
		}
		if err == nil {
			r.c.shardLatency.ObserveSeconds(int64(rtt))
			r.trace.Record(obs.Span{
				Name: spanName, Worker: addr, Sessions: len(chunk),
				StartUS: start.UnixMicro(), DurUS: rtt.Microseconds(),
			})
			r.trace.Merge(addr, resp.Spans)
		}

		r.mu.Lock()
		delete(r.inflight, addr)
		if err != nil {
			if r.ctx.Err() != nil {
				// The run is over (done or fatal); the abort is ours.
				r.cond.Broadcast()
				r.mu.Unlock()
				return
			}
			if IsClientFault(err) {
				// Deterministic rejection: every worker answers identically.
				// Fail the campaign now and exclude nobody — re-routing
				// would only cascade the same 4xx around the ring.
				r.c.clientFaults.Add(1)
				r.c.log.Warn("cluster client fault",
					"worker", addr, "trace", r.trace.TraceID(), "error", err)
				if r.fatalErr == nil {
					r.fatalErr = err
				}
				r.cancel()
				r.cond.Broadcast()
				r.mu.Unlock()
				return
			}
			// Worker fault: exclude it for the run, mark it unhealthy, and
			// re-route everything it still held — unless this campaign has
			// exhausted its retry budget, in which case it fails now instead
			// of bouncing the same sessions around a flapping fleet forever.
			r.c.workerFailures.Add(1)
			r.c.retries.Add(1)
			r.c.noteWorkerFault(addr)
			r.c.log.Warn("cluster worker fault",
				"worker", addr, "sessions", len(chunk), "trace", r.trace.TraceID(), "error", err)
			r.excluded[addr] = true
			r.retriesUsed++
			if r.retriesUsed > r.c.cfg.retryBudget {
				if r.fatalErr == nil {
					r.fatalErr = fmt.Errorf("cluster: campaign retry budget exhausted (%d worker faults > budget %d; last: %w)",
						r.retriesUsed, r.c.cfg.retryBudget, err)
				}
				r.cancel()
				r.cond.Broadcast()
				r.mu.Unlock()
				return
			}
			requeue := append(chunk, r.queues[addr]...)
			delete(r.queues, addr)
			r.assignLocked(requeue)
			r.cond.Broadcast()
			r.mu.Unlock()
			return
		}
		for k, i := range chunk {
			r.out[i] = resp.Results[k]
		}
		if resp.Error != "" && r.sessErr == nil {
			r.sessErr = fmt.Errorf("cluster: worker %s: %s", addr, resp.Error)
		}
		r.resolved += len(chunk)
		r.c.setWorkerStats(addr, resp.Stats)
		r.cond.Broadcast()
		r.mu.Unlock()
		r.note(len(chunk))
	}
}

// httpTransport POSTs shards to workers over HTTP and probes their
// /healthz.
type httpTransport struct {
	client *http.Client
	// maxResponse caps the shard-response bytes read before decoding; a
	// larger response is a worker fault.
	maxResponse int64
}

// maxShardResponseBytes is the production response cap: a warm 16-session
// shard is tens of KiB, a cold one of long traces a few MiB.
const maxShardResponseBytes = 64 << 20

// NewHTTPTransport returns the production HTTP shard transport — the one a
// nil Config.Transport selects. Exported so wrappers (internal/chaos) can
// interpose on the real transport instead of a test fake.
func NewHTTPTransport() Transport {
	return &httpTransport{client: &http.Client{}, maxResponse: maxShardResponseBytes}
}

// BaseURL normalizes a worker or coordinator address (host:port or URL) to
// a base URL without a trailing slash.
func BaseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + addr
}

func (t *httpTransport) RunShard(ctx context.Context, worker string, req ShardRequest) (ShardResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return ShardResponse{}, fmt.Errorf("cluster: encoding shard: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, BaseURL(worker)+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return ShardResponse{}, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(frameVersionHeader, strconv.Itoa(frameVersion))
	if id := obs.TraceIDFrom(ctx); id != "" {
		httpReq.Header.Set(obs.TraceHeader, id)
	}
	httpResp, err := t.client.Do(httpReq)
	if err != nil {
		return ShardResponse{}, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		msg := strings.TrimSpace(string(raw))
		var se shardError
		if json.Unmarshal(raw, &se) == nil && se.Error != "" {
			msg = se.Error
		}
		if httpResp.StatusCode >= 400 && httpResp.StatusCode < 500 {
			// The worker deliberately rejected the shard: the campaign's
			// fault (bad spec, version skew), not the worker's.
			return ShardResponse{}, &ClientFaultError{Worker: worker, Status: httpResp.StatusCode, Msg: msg}
		}
		return ShardResponse{}, fmt.Errorf("cluster: worker %s returned %d: %s", worker, httpResp.StatusCode, msg)
	}
	if ct := httpResp.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		// A build from before the frame ignores the version header and
		// answers JSON. Every such worker would, so this is version skew,
		// not a broken worker.
		return ShardResponse{}, &ClientFaultError{Worker: worker, Status: httpResp.StatusCode, Msg: fmt.Sprintf(
			"shard frame version mismatch: coordinator reads frame v%d but the worker answered JSON (no frame version); run matching pes-serve builds",
			frameVersion)}
	}
	// Read at most one byte past the cap: enough to tell an oversized body
	// without buffering it.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(httpResp.ContentLength, 0), t.maxResponse)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(httpResp.Body, t.maxResponse+1)); err != nil {
		return ShardResponse{}, fmt.Errorf("cluster: reading worker %s response: %w", worker, err)
	}
	if int64(buf.Len()) > t.maxResponse {
		return ShardResponse{}, fmt.Errorf("cluster: worker %s response exceeds the %d-byte cap", worker, t.maxResponse)
	}
	resp, err := decodeShardResponse(buf.Bytes())
	if err != nil {
		return ShardResponse{}, fmt.Errorf("cluster: decoding worker %s response: %w", worker, err)
	}
	return resp, nil
}

// Ping satisfies Pinger: a member is healthy while its /healthz answers 200.
func (t *httpTransport) Ping(ctx context.Context, worker string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, BaseURL(worker)+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: worker %s health probe returned %d", worker, resp.StatusCode)
	}
	return nil
}
