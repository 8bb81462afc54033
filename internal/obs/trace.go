package obs

import (
	"context"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// TraceHeader is the HTTP header carrying a campaign's trace ID across
// coordinator → worker shard calls (and any other cluster RPC that wants to
// join the timeline).
const TraceHeader = "X-Pes-Trace-Id"

// MintTraceID derives the trace ID for a campaign. It is deliberately
// deterministic (FNV-64a of the campaign ID): a journal-resumed campaign
// keeps its original ID, so it also keeps its trace ID with no extra
// persistence, and the post-resume tail lands in the same timeline as the
// pre-crash prefix.
func MintTraceID(campaignID string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(campaignID))
	return strconv.FormatUint(h.Sum64(), 16)
}

// Span is one timed stage of a campaign: queue wait, dispatch, steal,
// spill-over, per-chunk simulate, solve totals. Times are microseconds since
// the Unix epoch (StartUS) and microsecond durations (DurUS) — coarse enough
// to serialize compactly, fine enough for sub-millisecond sessions.
type Span struct {
	TraceID  string `json:"trace_id"`
	Name     string `json:"name"`
	Worker   string `json:"worker,omitempty"`
	Sessions int    `json:"sessions,omitempty"`
	StartUS  int64  `json:"start_us"`
	DurUS    int64  `json:"dur_us"`
	Detail   string `json:"detail,omitempty"`
}

// Recorder accumulates the spans of one campaign. All methods are nil-safe:
// code paths that run outside a traced campaign (direct runner use,
// pes-sim, tests) pass a nil recorder and pay one branch.
type Recorder struct {
	mu      sync.Mutex
	traceID string
	spans   []Span
}

// NewRecorder returns a recorder for the given trace ID.
func NewRecorder(traceID string) *Recorder {
	return &Recorder{traceID: traceID}
}

// TraceID returns the recorder's trace ID ("" on nil).
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	return r.traceID
}

// Record appends one span, stamping the recorder's trace ID.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	s.TraceID = r.traceID
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Merge appends spans produced elsewhere (a worker's shard response, an
// in-process batch run), restamping them with the recorder's trace ID so
// they join the same timeline, and labeling spans that name no worker with
// worker (the producer does not know its own address).
func (r *Recorder) Merge(worker string, spans []Span) {
	if r == nil || len(spans) == 0 {
		return
	}
	r.mu.Lock()
	for _, s := range spans {
		s.TraceID = r.traceID
		if s.Worker == "" {
			s.Worker = worker
		}
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// Timeline returns a copy of the spans in canonical order: sorted by
// (StartUS, Name, Worker, DurUS, Detail). The order is a total function of
// the span set, independent of arrival order, so two timelines holding the
// same spans — e.g. one recorded live and one rebuilt across a journal
// resume — serialize byte-identically.
func (r *Recorder) Timeline() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.StartUS != b.StartUS {
			return a.StartUS < b.StartUS
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		if a.DurUS != b.DurUS {
			return a.DurUS < b.DurUS
		}
		return a.Detail < b.Detail
	})
	return out
}

// Len returns the number of recorded spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// traceKey is the context key for the active campaign Recorder.
type traceKey struct{}

// WithTrace attaches a recorder to a context; the cluster coordinator and
// batch runner pick it up to time their stages.
func WithTrace(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, r)
}

// TraceFrom extracts the recorder from a context (nil when untraced —
// safe to call methods on directly).
func TraceFrom(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(traceKey{}).(*Recorder)
	return r
}

// TraceIDFrom returns the trace ID on the context ("" when untraced).
func TraceIDFrom(ctx context.Context) string {
	return TraceFrom(ctx).TraceID()
}
