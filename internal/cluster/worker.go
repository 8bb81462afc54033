package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/acmp"
	"repro/internal/batch"
	"repro/internal/experiments"
	"repro/internal/obs"
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

// Setup exposes the worker's harness state.
func (w *Worker) Setup() *experiments.Setup { return w.setup }

// Stats snapshots the worker's runner/artifact counters.
func (w *Worker) Stats() batch.Stats { return w.setup.Runner.Stats() }

// MaxSessions caps the sessions one build turns specs into: a campaign's
// expansion is checked against it at admission, and BuildSessions refuses a
// longer spec list before generating any trace, so neither a small campaign
// body nor a hand-made shard can make a process build traces without bound.
// The largest campaigns in use have 324 sessions.
const MaxSessions = 10_000

// BuildSessions turns wire specs into self-contained batch sessions. It is
// the one builder: the server's in-process path and worker shards both run
// what it returns. The trace comes from the setup's artifact store, the
// learner is the setup's trained model, and the predictor configuration is
// taken verbatim from the spec.
func BuildSessions(setup *experiments.Setup, specs []SessionSpec) ([]batch.Session, error) {
	if len(specs) > MaxSessions {
		return nil, fmt.Errorf("%d sessions exceed the %d-session limit", len(specs), MaxSessions)
	}
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
		tr := setup.Artifacts.Trace(app, spec.TraceSeed, trace.PurposeEval, trace.Options{})
		sess, err := sessions.New(sessions.Spec{
			Platform:  platform,
			Trace:     tr,
			Scheduler: spec.Scheduler,
			Learner:   setup.Learner,
			Predictor: spec.Predictor,
			Artifacts: setup.Artifacts,
		})
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		out = append(out, sess)
	}
	return out, nil
}

// RunShard executes one shard on the worker's runner, always to the end, so
// even a shard whose coordinator gave up on it completes into the worker's
// caches. Invalid specs are the caller's fault (the HTTP layer answers
// 400); a session simulation error is reported in the response like the
// in-process runner's first error, with the remaining sessions still
// completing. A non-empty traceID (from the X-Pes-Trace-Id header) makes
// the response carry the runner's spans for this shard — "simulate", the
// shard's wall time, and "solve", the solver time of the sessions this call
// simulated (0 for a fully warm shard) — for the coordinator to merge into
// the campaign timeline. An empty traceID records nothing.
func (w *Worker) RunShard(traceID string, req ShardRequest) (ShardResponse, error) {
	if len(req.Sessions) == 0 {
		return ShardResponse{}, fmt.Errorf("shard contains no sessions")
	}
	sess, err := BuildSessions(w.setup, req.Sessions)
	if err != nil {
		return ShardResponse{}, err
	}
	var rec *obs.Recorder
	if traceID != "" {
		rec = obs.NewRecorder(traceID)
	}
	results, runErr := w.setup.Runner.RunContext(obs.WithTrace(context.Background(), rec), sess, nil)
	resp := ShardResponse{Results: results, Stats: w.Stats(), Spans: rec.Timeline()}
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
	resp, err := w.RunShard(r.Header.Get(obs.TraceHeader), req)
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
