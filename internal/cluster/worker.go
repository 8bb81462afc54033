package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/acmp"
	"repro/internal/batch"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sessions"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// Worker executes shards on one process's harness: its own trained learner,
// artifact store, and memoizing batch runner. Because every layer below is
// deterministic, a worker configured like the coordinator (same training
// scale and seed) produces byte-identical results to in-process execution —
// and because routing is consistent, repeat campaigns hit its warm caches.
type Worker struct {
	setup *experiments.Setup
}

// NewWorker trains the worker's harness (predictor, corpus, runner) from
// the configuration. Workers of one cluster must share the coordinator's
// configuration for results to merge byte-identically.
func NewWorker(cfg experiments.Config) (*Worker, error) {
	setup, err := experiments.NewSetup(cfg)
	if err != nil {
		return nil, err
	}
	return &Worker{setup: setup}, nil
}

// NewWorkerFromSetup wraps an existing harness setup (tests share one setup
// between a worker and a direct runner).
func NewWorkerFromSetup(setup *experiments.Setup) *Worker {
	return &Worker{setup: setup}
}

// Setup exposes the worker's harness state.
func (w *Worker) Setup() *experiments.Setup { return w.setup }

// Stats snapshots the worker's runner/artifact counters.
func (w *Worker) Stats() batch.Stats { return w.setup.Runner.Stats() }

// buildSessions turns wire specs into self-contained batch sessions, the
// same construction the campaign layer performs in-process: the trace comes
// from the worker's artifact store, the learner is the worker's trained
// model, and the predictor configuration is taken verbatim from the spec.
func (w *Worker) buildSessions(specs []SessionSpec) ([]batch.Session, error) {
	out := make([]batch.Session, 0, len(specs))
	for i, spec := range specs {
		platform, err := acmp.ByName(spec.Platform)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		app, err := webapp.ByName(spec.App)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		ov, err := sched.ParseOracleVersion(spec.OracleVersion)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		tr := w.setup.Artifacts.Trace(app, spec.TraceSeed, trace.PurposeEval, trace.Options{})
		sess, err := sessions.New(sessions.Spec{
			Platform:      platform,
			Trace:         tr,
			Scheduler:     spec.Scheduler,
			Learner:       w.setup.Learner,
			Predictor:     spec.Predictor,
			Artifacts:     w.setup.Artifacts,
			OracleVersion: ov,
		})
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		out = append(out, sess)
	}
	return out, nil
}

// RunShard executes one shard on the worker's runner. Invalid specs are the
// caller's fault (the HTTP layer answers 400); a session simulation error
// is reported in the response like the in-process runner's first error,
// with the remaining sessions still completing.
func (w *Worker) RunShard(req ShardRequest) (ShardResponse, error) {
	return w.RunShardTraced("", req)
}

// RunShardTraced is RunShard joining a campaign trace: a non-empty traceID
// (from the X-Pes-Trace-Id header, or the coordinator's recorder on the
// local spill-over path) makes the response carry per-chunk simulate and
// solve-total spans for the coordinator to merge into the campaign timeline.
// An empty traceID records nothing and is byte-identical to RunShard.
func (w *Worker) RunShardTraced(traceID string, req ShardRequest) (ShardResponse, error) {
	if len(req.Sessions) == 0 {
		return ShardResponse{}, fmt.Errorf("shard contains no sessions")
	}
	if req.OracleVersion != "" {
		theirs, err := sched.ParseOracleVersion(req.OracleVersion)
		if err != nil {
			return ShardResponse{}, fmt.Errorf("shard oracle version: %w", err)
		}
		if mine := w.setup.Config.OracleVersion.OrDefault(); theirs != mine {
			return ShardResponse{}, fmt.Errorf(
				"oracle version mismatch: coordinator submits %s shards but this worker runs %s; restart with matching -oracle flags",
				theirs, mine)
		}
	}
	sess, err := w.buildSessions(req.Sessions)
	if err != nil {
		return ShardResponse{}, err
	}
	start := time.Now()
	results, runErr := w.setup.Runner.Run(sess)
	resp := ShardResponse{Results: results, Stats: w.Stats()}
	if traceID != "" {
		// Solve totals sum the solver wall time embedded in each session's
		// result — deterministic per shard, cache-served sessions included
		// (their solver work happened once, wherever they were first built).
		var solveNS int64
		for _, res := range results {
			if res != nil {
				solveNS += res.Solver.WallNS
			}
		}
		startUS := start.UnixMicro()
		resp.Spans = []obs.Span{
			{TraceID: traceID, Name: "simulate", Sessions: len(req.Sessions),
				StartUS: startUS, DurUS: time.Since(start).Microseconds()},
			{TraceID: traceID, Name: "solve", Sessions: len(req.Sessions),
				StartUS: startUS, DurUS: solveNS / 1e3},
		}
	}
	if runErr != nil {
		resp.Error = runErr.Error()
	}
	return resp, nil
}

// workerHealth is the body of a worker's GET /healthz.
type workerHealth struct {
	Status string      `json:"status"`
	Role   string      `json:"role"`
	Stats  batch.Stats `json:"stats"`
	// Workers is the worker's simulation worker-pool size.
	Workers int `json:"workers"`
}

// Handler returns the worker HTTP API:
//
//	POST /v1/shards  execute a shard of sessions, answer a shard-response frame
//	GET  /healthz    liveness + cache counters
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards", w.handleShard)
	mux.HandleFunc("GET /healthz", w.handleHealth)
	return mux
}

// shardError is the JSON error body of a failed shard request.
type shardError struct {
	Error string `json:"error"`
}

func (w *Worker) writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(v)
}

// maxShardRequestBytes bounds a shard request body: thousands of session
// specs, far beyond any chunk a coordinator sends.
const maxShardRequestBytes = 4 << 20

func (w *Worker) handleShard(rw http.ResponseWriter, r *http.Request) {
	if got := r.Header.Get(frameVersionHeader); got != strconv.Itoa(frameVersion) {
		theirs := "v" + got
		if got == "" {
			theirs = "JSON (no frame version)"
		}
		w.writeJSON(rw, http.StatusBadRequest, shardError{Error: fmt.Sprintf(
			"shard frame version mismatch: coordinator reads %s shard responses but this worker writes frame v%d; run matching pes-serve builds",
			theirs, frameVersion)})
		return
	}
	var req ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxShardRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		w.writeJSON(rw, code, shardError{Error: "invalid shard JSON: " + err.Error()})
		return
	}
	resp, err := w.RunShardTraced(r.Header.Get(obs.TraceHeader), req)
	if err != nil {
		w.writeJSON(rw, http.StatusBadRequest, shardError{Error: err.Error()})
		return
	}
	frame, err := appendShardResponse(nil, resp)
	if err != nil {
		w.writeJSON(rw, http.StatusInternalServerError, shardError{Error: err.Error()})
		return
	}
	rw.Header().Set("Content-Type", frameContentType)
	rw.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write(frame)
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	w.writeJSON(rw, http.StatusOK, workerHealth{
		Status:  "ok",
		Role:    "worker",
		Stats:   w.Stats(),
		Workers: w.setup.Runner.Workers(),
	})
}
