package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	// records keeps the frame record of each result the worker sends, so a
	// warm session's record is written once (see recordCache).
	records *recordCache
}

// NewWorker trains the worker's harness (predictor, corpus, runner) from
// the configuration. Workers of one cluster must share the coordinator's
// configuration for results to merge byte-identically.
func NewWorker(cfg experiments.Config) (*Worker, error) {
	setup, err := experiments.NewSetup(cfg)
	if err != nil {
		return nil, err
	}
	return &Worker{setup: setup, records: newRecordCache()}, nil
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
// taken verbatim from the spec. Each distinct (platform, trace) among the
// specs is fingerprinted once, however many schedulers replay it.
func BuildSessions(setup *experiments.Setup, specs []SessionSpec) ([]batch.Session, error) {
	if len(specs) > MaxSessions {
		return nil, fmt.Errorf("%d sessions exceed the %d-session limit", len(specs), MaxSessions)
	}
	out := make([]batch.Session, 0, len(specs))
	// A campaign's sessions replay a few traces under several schedulers
	// each: fingerprint each distinct (platform, trace) once.
	type input struct {
		platform *acmp.Platform
		trace    *trace.Trace
	}
	fingerprints := make(map[input]string)
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
		fp, ok := fingerprints[input{platform, tr}]
		if !ok {
			fp = setup.Artifacts.Fingerprint(platform, tr)
			fingerprints[input{platform, tr}] = fp
		}
		sess, err := sessions.NewFingerprinted(sessions.Spec{
			Platform:  platform,
			Trace:     tr,
			Scheduler: spec.Scheduler,
			Learner:   setup.Learner,
			Predictor: spec.Predictor,
			Artifacts: setup.Artifacts,
		}, fp)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		out = append(out, sess)
	}
	return out, nil
}

// RunShard executes one shard on the worker's runner, always to the end, so
// even a shard whose coordinator gave up on it completes into the worker's
// caches. Invalid specs — an unknown name, or a predictor configuration
// predictor.Config.Validate refuses — are the caller's fault (the HTTP
// layer answers 400); a session simulation error is reported in the
// response like the in-process runner's first error, with the remaining
// sessions still completing. A non-empty traceID (from the X-Pes-Trace-Id
// header) makes the response carry the runner's spans for this shard —
// "simulate", the shard's wall time, and "solve", the solver time of the
// sessions this call simulated (0 for a fully warm shard) — for the
// coordinator to merge into the campaign timeline. An empty traceID
// records nothing.
func (w *Worker) RunShard(traceID string, req ShardRequest) (ShardResponse, error) {
	if err := checkShard(req); err != nil {
		return ShardResponse{}, err
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
	// The coordinator sums only the runner's own counters; the artifact and
	// persistent-store snapshots stay on the worker's /healthz.
	st := w.Stats()
	st.Artifacts, st.Store = nil, nil
	resp := ShardResponse{Results: results, Stats: st, Spans: rec.Timeline()}
	if runErr != nil {
		resp.Error = runErr.Error()
	}
	return resp, nil
}

// checkShard refuses, before anything is built, a shard with no sessions
// or with a predictor configuration predictor.Config.Validate refuses.
func checkShard(req ShardRequest) error {
	if len(req.Sessions) == 0 {
		return fmt.Errorf("shard contains no sessions")
	}
	for i, spec := range req.Sessions {
		if err := spec.Predictor.Validate(); err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
	}
	return nil
}

// decodeShardRequest decodes a shard request body: one JSON object with
// no field ShardRequest does not know.
func decodeShardRequest(body io.Reader) (ShardRequest, error) {
	var req ShardRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
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
	req, err := decodeShardRequest(http.MaxBytesReader(rw, r.Body, maxShardRequestBytes))
	if err != nil {
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
	frame, err := appendShardResponse(nil, resp, w.records)
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
