package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/sessions"
)

// testSpecs expands a small campaign — 2 apps × 2 seeds × all 5 schedulers,
// 20 distinct memo keys — enough that both workers of a 2-worker ring own
// sessions with near certainty.
func testSpecs() []SessionSpec {
	var specs []SessionSpec
	for _, app := range []string{"cnn", "ebay"} {
		for _, seed := range []int64{1, 2} {
			for _, sched := range sessions.Names() {
				specs = append(specs, SessionSpec{
					Platform:  "Exynos5410",
					App:       app,
					TraceSeed: seed,
					Scheduler: sched,
					Predictor: predictor.DefaultConfig(),
				})
			}
		}
	}
	return specs
}

func smallConfig() experiments.Config {
	return experiments.Config{TrainTracesPerApp: 2, EvalTracesPerApp: 1, Parallel: 2}
}

func newTestWorker(t testing.TB) *Worker {
	t.Helper()
	if testing.Short() {
		t.Skip("cluster tests train a predictor")
	}
	w, err := NewWorker(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// directResults simulates the specs single-process on a fresh serial runner
// sharing the workers' harness configuration, built by the same BuildSessions
// the workers run.
func directResults(t *testing.T, specs []SessionSpec) []*engine.Result {
	t.Helper()
	setup, err := experiments.NewSetup(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	batchSessions, err := BuildSessions(setup, specs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := batch.NewRunner(1).Run(batchSessions)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertIdentical(t *testing.T, specs []SessionSpec, merged, direct []*engine.Result) {
	t.Helper()
	if len(merged) != len(direct) {
		t.Fatalf("merged %d results, want %d", len(merged), len(direct))
	}
	for i := range merged {
		if merged[i] == nil {
			t.Fatalf("result %d (%s/%d/%s) missing", i, specs[i].App, specs[i].TraceSeed, specs[i].Scheduler)
		}
		got, err1 := json.Marshal(merged[i])
		want, err2 := json.Marshal(direct[i])
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("result %d (%s/%d/%s) differs from single-process run",
				i, specs[i].App, specs[i].TraceSeed, specs[i].Scheduler)
		}
	}
}

func TestRingDeterministicCompleteAndExclusive(t *testing.T) {
	workers := []string{"worker-a:9001", "worker-b:9002", "worker-c:9003"}
	r := newRing(workers, 64)
	owned := make(map[string]int)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		w, ok := r.owner(key, nil)
		if !ok {
			t.Fatalf("no owner for %q", key)
		}
		// Ownership is deterministic.
		if w2, _ := r.owner(key, nil); w2 != w {
			t.Fatalf("owner(%q) flapped: %s then %s", key, w, w2)
		}
		owned[w]++
		// Excluding the owner moves the key to another worker...
		alt, ok := r.owner(key, map[string]bool{w: true})
		if !ok || alt == w {
			t.Fatalf("exclusion of %s not honored for %q: got %s, %t", w, key, alt, ok)
		}
		// ...and keys not owned by the excluded worker stay put.
		if kept, _ := r.owner(key, map[string]bool{alt: true}); kept != w {
			t.Errorf("excluding a non-owner moved %q from %s to %s", key, w, kept)
		}
	}
	for _, w := range workers {
		if owned[w] == 0 {
			t.Errorf("worker %s owns no keys out of 200 — ring is unbalanced", w)
		}
	}
	// With every worker excluded there is no owner.
	all := map[string]bool{}
	for _, w := range workers {
		all[w] = true
	}
	if _, ok := r.owner("key-0", all); ok {
		t.Error("owner returned ok with every worker excluded")
	}
	// An empty ring owns nothing.
	if _, ok := newRing(nil, 64).owner("key-0", nil); ok {
		t.Error("empty ring returned an owner")
	}
}

// TestMembershipTransitions unit-tests the membership state machine:
// register/deregister, probe-driven health transitions, dispatch faults, and
// watch-channel notifications.
func TestMembershipTransitions(t *testing.T) {
	m := newMembership([]string{"a:1", "b:2"})
	if got := m.healthy(); len(got) != 2 {
		t.Fatalf("static seed not healthy: %v", got)
	}

	// A watch channel closes on the next change.
	ch := m.watchCh()
	if !m.register("c:3", SourceRegistered) {
		t.Fatal("registering a new member reported no change")
	}
	select {
	case <-ch:
	default:
		t.Fatal("watch channel not closed by register")
	}
	if m.register("c:3", SourceRegistered) {
		t.Error("re-registering a healthy member reported a change")
	}

	// Probe failures below the threshold change nothing; at the threshold
	// the member turns unhealthy; one success heals it.
	if m.probe("b:2", false, 2) {
		t.Error("first probe failure marked the member unhealthy (threshold 2)")
	}
	if !m.probe("b:2", false, 2) {
		t.Error("second consecutive probe failure did not mark the member unhealthy")
	}
	if m.isHealthy("b:2") {
		t.Error("member still healthy after threshold failures")
	}
	if !m.probe("b:2", true, 2) {
		t.Error("passing probe did not heal the member")
	}
	if !m.isHealthy("b:2") {
		t.Error("member not healthy after passing probe")
	}

	// A dispatch fault marks unhealthy immediately; registration heals.
	if !m.fault("a:1") {
		t.Error("fault on a healthy member reported no transition")
	}
	if m.fault("a:1") {
		t.Error("fault on an unhealthy member reported a transition")
	}
	if owner, _ := m.owner("some-key", nil); owner == "a:1" {
		t.Error("unhealthy member still owns keys")
	}
	if !m.register("a:1", SourceStatic) {
		t.Error("re-registering a faulted member reported no change")
	}

	// Deregister forgets the member entirely.
	if !m.deregister("c:3") || m.deregister("c:3") {
		t.Error("deregister did not remove exactly once")
	}
	if got := m.addrs(); len(got) != 2 {
		t.Errorf("addrs after deregister = %v, want 2 members", got)
	}

	// snapshot returns value copies.
	snap := m.snapshot()
	snap[0].Healthy = false
	snap[0].Addr = "mutated"
	if !m.isHealthy("a:1") {
		t.Error("mutating a snapshot changed membership state")
	}
}

// TestCoordinatorMergesByteIdenticalOverHTTP runs a coordinator over two
// real HTTP workers and asserts the merged results are byte-identical to a
// single-process serial run of the same sessions.
func TestCoordinatorMergesByteIdenticalOverHTTP(t *testing.T) {
	w1, w2 := newTestWorker(t), newTestWorker(t)
	ts1 := httptest.NewServer(w1.Handler())
	defer ts1.Close()
	ts2 := httptest.NewServer(w2.Handler())
	defer ts2.Close()

	coord, err := New(Config{Workers: []string{ts1.URL, ts2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	specs := testSpecs()
	var progressed atomic.Int64
	merged, _, err := coord.RunContext(context.Background(), specs, func(completed, total int) {
		progressed.Add(1)
		if total != len(specs) {
			t.Errorf("progress total = %d, want %d", total, len(specs))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, specs, merged, directResults(t, specs))
	if got := progressed.Load(); got != int64(len(specs)) {
		t.Errorf("progress fired %d times, want %d", got, len(specs))
	}
	st := coord.Stats()
	if st.SessionsRouted != int64(len(specs)) || st.Shards < 1 || st.Retries != 0 || st.WorkerFailures != 0 {
		t.Errorf("coordinator stats = %+v", st)
	}
	if st.Remote.UniqueRuns != int64(len(specs)) {
		t.Errorf("workers simulated %d unique sessions, want %d", st.Remote.UniqueRuns, len(specs))
	}
}

// failingTransport wraps a set of in-process workers, failing every shard
// sent to the named worker — a deterministic stand-in for a worker killed
// mid-campaign.
type failingTransport struct {
	workers map[string]*Worker
	dead    string

	mu       sync.Mutex
	failures int
}

func (f *failingTransport) RunShard(ctx context.Context, worker string, req ShardRequest) (ShardResponse, error) {
	if worker == f.dead {
		f.mu.Lock()
		f.failures++
		f.mu.Unlock()
		return ShardResponse{}, fmt.Errorf("connection refused (worker killed)")
	}
	return f.workers[worker].RunShard("", req)
}

// TestShardRetryOnWorkerFailure kills one of two workers and asserts every
// shard it owned is re-routed to the survivor, with the merged results
// still byte-identical to a single-process run.
func TestShardRetryOnWorkerFailure(t *testing.T) {
	alive := newTestWorker(t)
	names := []string{"worker-alive:9001", "worker-dead:9002"}
	transport := &failingTransport{workers: map[string]*Worker{names[0]: alive}, dead: names[1]}
	coord, err := New(Config{Workers: names, Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	specs := testSpecs()
	// The dead worker must own some sessions for the retry path to be
	// exercised; with fixed worker names and keys this is deterministic.
	deadOwns := 0
	for _, s := range specs {
		if w, _ := coord.members.owner(s.RouteKey(), nil); w == names[1] {
			deadOwns++
		}
	}
	if deadOwns == 0 {
		t.Fatal("test fixture routes nothing to the dead worker; vary the specs")
	}

	merged, _, err := coord.RunContext(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, specs, merged, directResults(t, specs))
	st := coord.Stats()
	if st.WorkerFailures < 1 || st.Retries < 1 {
		t.Errorf("stats do not show the retry: %+v", st)
	}
	if transport.failures < 1 {
		t.Errorf("dead worker was never dispatched to")
	}
	// The survivor executed everything.
	if got := alive.Stats().UniqueRuns; got != int64(len(specs)) {
		t.Errorf("surviving worker simulated %d sessions, want %d", got, len(specs))
	}
	// The fault propagated to the membership: the dead worker is marked
	// unhealthy (a passing health probe or re-registration would heal it).
	if coord.members.isHealthy(names[1]) {
		t.Error("dead worker still healthy in the membership after a dispatch fault")
	}
	if st.Workers != 1 {
		t.Errorf("Stats.Workers = %d after the fault, want 1", st.Workers)
	}
}

type everythingFails struct{}

func (everythingFails) RunShard(ctx context.Context, worker string, req ShardRequest) (ShardResponse, error) {
	return ShardResponse{}, fmt.Errorf("worker %s unreachable", worker)
}

// TestAllWorkersFailed asserts RunContext hands every session back as
// unplaced (not a hang, a nil deref or a made-up result) when no worker can
// take a shard. No worker harness is trained, so this runs even in -short
// mode.
func TestAllWorkersFailed(t *testing.T) {
	coord, err := New(Config{Workers: []string{"worker-a:9001", "worker-b:9002"}, Transport: everythingFails{}})
	if err != nil {
		t.Fatal(err)
	}
	specs := testSpecs()[:4]
	out, unplaced, err := coord.RunContext(context.Background(), specs, nil)
	if err != nil {
		t.Fatalf("RunContext = %v, want the sessions back unplaced", err)
	}
	if !slices.Equal(unplaced, []int{0, 1, 2, 3}) {
		t.Errorf("unplaced = %v, want every index", unplaced)
	}
	for i, res := range out {
		if res != nil {
			t.Errorf("result %d is set although no worker ran it", i)
		}
	}
	if st := coord.Stats(); st.WorkerFailures < 2 {
		t.Errorf("stats show %d worker failures, want both workers marked failed", st.WorkerFailures)
	}
}

// dispatchBarrier wraps a transport and holds every shard until need
// shards have been dispatched, then releases them together; the next need
// dispatches form the next group.
type dispatchBarrier struct {
	inner Transport
	need  int
	mu    sync.Mutex
	n     int
	open  chan struct{}
}

func (b *dispatchBarrier) RunShard(ctx context.Context, worker string, req ShardRequest) (ShardResponse, error) {
	b.mu.Lock()
	open := b.open
	b.n++
	if b.n == b.need {
		close(open)
		b.n, b.open = 0, make(chan struct{})
	}
	b.mu.Unlock()
	select {
	case <-open:
	case <-ctx.Done():
		return ShardResponse{}, ctx.Err()
	}
	return b.inner.RunShard(ctx, worker, req)
}

// TestWarmShardCacheHitsOnRepeatCampaign runs the same campaign twice
// through one coordinator and asserts the second pass is served entirely
// from the workers' warm memo caches. Each member's first chunk is its whole
// queue, and the barrier releases no shard until every member that owns
// sessions has dispatched, so no queue is left to steal whatever the
// goroutine schedule: every session runs on its owner both times.
func TestWarmShardCacheHitsOnRepeatCampaign(t *testing.T) {
	w1, w2 := newTestWorker(t), newTestWorker(t)
	ts1 := httptest.NewServer(w1.Handler())
	defer ts1.Close()
	ts2 := httptest.NewServer(w2.Handler())
	defer ts2.Close()
	specs := testSpecs()
	barrier := &dispatchBarrier{inner: NewHTTPTransport(), open: make(chan struct{})}
	coord, err := New(Config{Workers: []string{ts1.URL, ts2.URL}, Transport: barrier, MaxShardSessions: len(specs)})
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]bool{}
	for _, spec := range specs {
		addr, _ := coord.members.owner(spec.RouteKey(), nil)
		owners[addr] = true
	}
	if len(owners) != 2 {
		t.Skipf("the ring gave every session to one of the two workers (%v)", owners)
	}
	barrier.need = len(owners)
	first, _, err := coord.RunContext(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := coord.RunContext(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		a, err1 := json.Marshal(first[i])
		b, err2 := json.Marshal(second[i])
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("repeat campaign result %d differs", i)
		}
	}
	st := coord.Stats()
	n := int64(len(specs))
	if st.Steals != 0 || st.Shards != 4 {
		t.Errorf("want one shard per worker per campaign and no steals: %+v", st)
	}
	if st.Remote.Sessions != 2*n || st.Remote.UniqueRuns != n || st.Remote.CacheHits != n {
		t.Errorf("repeat campaign was not served from warm worker caches: %+v", st.Remote)
	}
}

// TestWorkerSolveSpanCountsOnlyThisCall: a traced shard's "solve" span is
// the solver time the call itself spent. A cold 20-session shard solves
// (PES and Oracle sessions), so its span is positive; the same shard re-run
// is served entirely from the worker's memo cache, so its span is 0 — not
// the solver time of the runs that first built the cached results.
func TestWorkerSolveSpanCountsOnlyThisCall(t *testing.T) {
	w := newTestWorker(t)
	req := ShardRequest{Sessions: testSpecs()}
	solveUS := func() int64 {
		t.Helper()
		resp, err := w.RunShard("trace", req)
		if err != nil || resp.Error != "" {
			t.Fatalf("shard: %v %s", err, resp.Error)
		}
		var spans []string
		var solve int64 = -1
		for _, s := range resp.Spans {
			spans = append(spans, s.Name)
			if s.TraceID != "trace" || s.Sessions != len(req.Sessions) {
				t.Errorf("span %+v: want trace ID %q and %d sessions", s, "trace", len(req.Sessions))
			}
			if s.Name == "solve" {
				solve = s.DurUS
			}
		}
		if len(spans) != 2 || solve < 0 {
			t.Fatalf("spans %v, want one simulate and one solve", spans)
		}
		return solve
	}
	if cold := solveUS(); cold <= 0 {
		t.Errorf("cold shard solve span = %d µs, want > 0", cold)
	}
	if warm := solveUS(); warm != 0 {
		t.Errorf("warm shard solve span = %d µs, want 0: every session was a memo hit", warm)
	}
}

// TestRouteKeyBytesPinned pins the exact route-key bytes: the ring places
// sessions by these bytes, so any change to them (or to the predictor
// encoding they share with the memo key) silently moves every session to a
// cold worker. The Oracle key lost its "|oracle=v2" suffix when the Oracle
// became one solver; route keys are never persisted, so the only cost was
// one cold pass over a running cluster's Oracle sessions.
func TestRouteKeyBytesPinned(t *testing.T) {
	pes := SessionSpec{Platform: "Exynos5410", App: "cnn", TraceSeed: 11, Scheduler: sessions.PES,
		Predictor: predictor.Config{ConfidenceThreshold: 0.55, MaxDegree: 3}}
	oracle := SessionSpec{Platform: "Exynos5410", App: "espn", TraceSeed: -9, Scheduler: sessions.Oracle,
		Predictor: predictor.DefaultConfig()}
	for _, c := range []struct {
		spec SessionSpec
		want string
	}{
		{pes, "Exynos5410|cnn|11|PES|ct=0.55,deg=3,dom=false"},
		{oracle, "Exynos5410|espn|-9|Oracle|ct=0.7,deg=8,dom=true"},
	} {
		if got := c.spec.RouteKey(); got != c.want {
			t.Errorf("RouteKey() = %q, want %q", got, c.want)
		}
	}
}

// TestUnknownOracleVersionIsClientFault: the Oracle has one solver, so a
// shard whose Oracle spec still names an "oracle_version" (a coordinator
// built before the field was removed) is answered 400 naming the field,
// never silently run on the one solver. The coordinator counts it as a
// client fault that fails the campaign and excludes nobody.
func TestUnknownOracleVersionIsClientFault(t *testing.T) {
	w := newTestWorker(t)
	// An older coordinator: every shard it sends names its Oracle version.
	stamping := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards" {
			b, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			b = bytes.Replace(b, []byte(`"scheduler":"Oracle"`), []byte(`"scheduler":"Oracle","oracle_version":"v1"`), 1)
			r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(b)), int64(len(b))
		}
		w.Handler().ServeHTTP(rw, r)
	}))
	defer stamping.Close()
	coord, err := New(Config{Workers: []string{stamping.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	spec := SessionSpec{Platform: "Exynos5410", App: "cnn", TraceSeed: 1,
		Scheduler: sessions.Oracle, Predictor: predictor.DefaultConfig()}
	_, _, err = coord.RunContext(context.Background(), []SessionSpec{spec}, nil)
	if !IsClientFault(err) || !strings.Contains(err.Error(), "HTTP 400") || !strings.Contains(err.Error(), "oracle_version") {
		t.Fatalf("Run = %v, want a client fault from a 400 naming oracle_version", err)
	}
	if st := coord.Stats(); st.ClientFaults != 1 || st.WorkerFailures != 0 || st.Workers != 1 {
		t.Errorf("stats after the rejection: %+v, want one client fault and the worker still healthy", st)
	}
}

// TestWorkerRejectsOverCapShard: a shard of MaxSessions+1 valid specs, small
// enough to pass the body limit, is answered 400 — a client fault to the
// coordinator — before the worker generates a single trace.
func TestWorkerRejectsOverCapShard(t *testing.T) {
	w := newTestWorker(t)
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	specs := make([]SessionSpec, MaxSessions+1)
	for i := range specs {
		specs[i] = SessionSpec{Platform: "Exynos5410", App: "cnn", TraceSeed: int64(i + 1),
			Scheduler: sessions.EBS, Predictor: predictor.DefaultConfig()}
	}
	body, err := json.Marshal(ShardRequest{Sessions: specs})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) >= maxShardRequestBytes {
		t.Fatalf("over-cap shard is %d bytes, not under the %d-byte body limit", len(body), maxShardRequestBytes)
	}
	before := w.Setup().Artifacts.Stats().TraceBuilds
	code, msg := postShard(t, ts.URL, strconv.Itoa(frameVersion), string(body))
	if code != http.StatusBadRequest || !strings.Contains(msg, "limit") {
		t.Errorf("over-cap shard: status %d (%s), want 400 naming the limit", code, msg)
	}
	if after := w.Setup().Artifacts.Stats().TraceBuilds; after != before {
		t.Errorf("over-cap shard generated %d traces, want 0", after-before)
	}
}

// TestClientFaultDoesNotPoisonRing is the regression test for the failure
// taxonomy: a campaign containing one invalid session spec is rejected by
// whichever worker receives it with a deterministic HTTP 400. The campaign
// must fail fast with the spec error, exclude zero workers (re-routing
// would cascade the identical 400 around the ring until "all N workers
// failed"), and leave the coordinator fully serving subsequent valid
// campaigns.
func TestClientFaultDoesNotPoisonRing(t *testing.T) {
	w1, w2 := newTestWorker(t), newTestWorker(t)
	ts1 := httptest.NewServer(w1.Handler())
	defer ts1.Close()
	ts2 := httptest.NewServer(w2.Handler())
	defer ts2.Close()

	coord, err := New(Config{Workers: []string{ts1.URL, ts2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	specs := testSpecs()
	mixed := append([]SessionSpec(nil), specs...)
	mixed[7].App = "no-such-app"
	_, _, err = coord.RunContext(context.Background(), mixed, nil)
	if err == nil {
		t.Fatal("mixed-validity campaign succeeded")
	}
	if !IsClientFault(err) {
		t.Errorf("invalid-spec rejection not classified as a client fault: %v", err)
	}
	if !strings.Contains(err.Error(), "no-such-app") {
		t.Errorf("campaign error does not surface the spec error: %v", err)
	}
	st := coord.Stats()
	if st.WorkerFailures != 0 || st.Retries != 0 {
		t.Errorf("deterministic 400 excluded workers: failures=%d retries=%d", st.WorkerFailures, st.Retries)
	}
	if st.ClientFaults < 1 {
		t.Errorf("client fault not counted: %+v", st)
	}
	if st.Workers != 2 {
		t.Errorf("healthy worker count after client fault = %d, want 2 (ring poisoned)", st.Workers)
	}

	// The coordinator keeps serving valid campaigns on the full ring.
	merged, _, err := coord.RunContext(context.Background(), specs, nil)
	if err != nil {
		t.Fatalf("valid campaign after a client fault failed: %v", err)
	}
	assertIdentical(t, specs, merged, directResults(t, specs))
	if st := coord.Stats(); st.WorkerFailures != 0 {
		t.Errorf("worker exclusions leaked across campaigns: %+v", st)
	}
}

// rejectingTransport fakes the taxonomy without a trained harness: shards
// containing the poisoned app are rejected with a client fault, everything
// else "succeeds" with placeholder results.
type rejectingTransport struct{ badApp string }

func (f rejectingTransport) RunShard(ctx context.Context, worker string, req ShardRequest) (ShardResponse, error) {
	for _, s := range req.Sessions {
		if s.App == f.badApp {
			return ShardResponse{}, &ClientFaultError{Worker: worker, Status: http.StatusBadRequest,
				Msg: fmt.Sprintf("unknown app %q", s.App)}
		}
	}
	resp := ShardResponse{Results: make([]*engine.Result, len(req.Sessions))}
	for i := range resp.Results {
		resp.Results[i] = &engine.Result{}
	}
	return resp, nil
}

// TestClientFaultFailsFastFakeTransport covers the same taxonomy split
// without training a harness, so it runs in -short mode too.
func TestClientFaultFailsFastFakeTransport(t *testing.T) {
	coord, err := New(Config{Workers: []string{"worker-a:9001", "worker-b:9002"},
		Transport: rejectingTransport{badApp: "poison"}})
	if err != nil {
		t.Fatal(err)
	}
	specs := testSpecs()
	specs[5].App = "poison"
	_, _, err = coord.RunContext(context.Background(), specs, nil)
	if err == nil || !IsClientFault(err) {
		t.Fatalf("expected a client-fault campaign error, got %v", err)
	}
	st := coord.Stats()
	if st.WorkerFailures != 0 || st.Workers != 2 {
		t.Errorf("client fault excluded a worker: %+v", st)
	}
	if _, _, err := coord.RunContext(context.Background(), testSpecs(), nil); err != nil {
		t.Errorf("valid campaign after a client fault failed: %v", err)
	}
}

// TestWorkersReturnsCopy guards the getter-aliasing bug: mutating the
// slices and snapshots returned by the coordinator must not corrupt
// routing state.
func TestWorkersReturnsCopy(t *testing.T) {
	coord, err := New(Config{Workers: []string{"worker-a:9001", "worker-b:9002"}, Transport: everythingFails{}})
	if err != nil {
		t.Fatal(err)
	}
	ws := coord.Workers()
	ws[0] = "mutated"
	if got := coord.Workers(); got[0] != "worker-a:9001" {
		t.Errorf("mutating Workers() corrupted membership: %v", got)
	}
	ms := coord.Members()
	if len(ms) != 2 {
		t.Fatalf("Members() = %v, want 2", ms)
	}
	ms[0].Healthy = false
	ms[0].Addr = "mutated"
	if !coord.members.isHealthy("worker-a:9001") {
		t.Error("mutating Members() corrupted membership health")
	}
}

// TestStatsDropExcludedWorker guards the stats-inflation bug: an excluded
// or departed member's last snapshot must not be summed into Stats.Remote.
func TestStatsDropExcludedWorker(t *testing.T) {
	coord, err := New(Config{Workers: []string{"worker-a:9001", "worker-b:9002"}, Transport: everythingFails{}})
	if err != nil {
		t.Fatal(err)
	}
	coord.setWorkerStats("worker-a:9001", batch.Stats{Sessions: 5, UniqueRuns: 3, CacheHits: 2})
	coord.setWorkerStats("worker-b:9002", batch.Stats{Sessions: 7, UniqueRuns: 7})
	if st := coord.Stats(); st.Remote.Sessions != 12 {
		t.Fatalf("Remote.Sessions = %d before any fault, want 12", st.Remote.Sessions)
	}
	coord.noteWorkerFault("worker-b:9002")
	st := coord.Stats()
	if st.Remote.Sessions != 5 || st.Remote.UniqueRuns != 3 || st.Remote.CacheHits != 2 {
		t.Errorf("excluded worker's snapshot still summed: %+v", st.Remote)
	}
	if st.Workers != 1 {
		t.Errorf("Workers = %d after fault, want 1", st.Workers)
	}
	if !coord.Deregister("worker-a:9001") {
		t.Fatal("Deregister returned false for a member")
	}
	if st := coord.Stats(); st.Remote.Sessions != 0 {
		t.Errorf("departed worker's snapshot still summed: %+v", st.Remote)
	}
}

// killAfterFirst wraps the real HTTP transport: after the victim worker's
// first successful shard, its server is shut down — every later dispatch to
// it fails at the transport level exactly like a process killed
// mid-campaign. Every other worker's shards are held until the victim has
// failed a dispatch after the kill, so the survivor cannot steal the
// victim's queue before the failure is observed.
type killAfterFirst struct {
	inner   Transport
	victim  string
	kill    func()
	once    sync.Once
	failed  chan struct{} // closed at the victim's first failed dispatch
	failure sync.Once
}

func (k *killAfterFirst) RunShard(ctx context.Context, worker string, req ShardRequest) (ShardResponse, error) {
	if worker != k.victim {
		select {
		case <-k.failed:
		case <-ctx.Done():
			return ShardResponse{}, ctx.Err()
		}
		return k.inner.RunShard(ctx, worker, req)
	}
	resp, err := k.inner.RunShard(ctx, worker, req)
	if err == nil {
		k.once.Do(k.kill)
	} else {
		k.failure.Do(func() { close(k.failed) })
	}
	return resp, err
}

// TestMidCampaignWorkerDeathMergesByteIdentical kills one of two real HTTP
// workers after its first shard and asserts the campaign still completes
// with results byte-identical to a single-process run.
func TestMidCampaignWorkerDeathMergesByteIdentical(t *testing.T) {
	w1, w2 := newTestWorker(t), newTestWorker(t)
	ts1 := httptest.NewServer(w1.Handler())
	defer ts1.Close()
	ts2 := httptest.NewServer(w2.Handler())
	defer ts2.Close() // idempotent after the mid-campaign kill

	tr := &killAfterFirst{inner: NewHTTPTransport(), victim: ts2.URL, kill: ts2.Close, failed: make(chan struct{})}
	// Small chunks so the victim owns several dispatches: the kill lands
	// between them.
	coord, err := New(Config{Workers: []string{ts1.URL, ts2.URL}, Transport: tr, MaxShardSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	specs := testSpecs()
	merged, _, err := coord.RunContext(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, specs, merged, directResults(t, specs))
	st := coord.Stats()
	if st.WorkerFailures < 1 || st.Retries < 1 {
		t.Errorf("mid-campaign kill never observed: %+v", st)
	}
	if w2.Stats().Sessions == 0 {
		t.Error("victim worker never ran a shard before dying")
	}
	if coord.members.isHealthy(ts2.URL) {
		t.Error("dead worker still healthy in the membership")
	}
}

// registerOnFirst wraps the transport: the first successful shard triggers a
// late registration, simulating a worker joining mid-campaign.
type registerOnFirst struct {
	inner Transport
	join  func()
	once  sync.Once
}

func (j *registerOnFirst) RunShard(ctx context.Context, worker string, req ShardRequest) (ShardResponse, error) {
	resp, err := j.inner.RunShard(ctx, worker, req)
	if err == nil {
		j.once.Do(j.join)
	}
	return resp, err
}

// TestMidCampaignWorkerJoinStealsAndMergesByteIdentical starts a campaign on
// a single-worker cluster, registers a second real HTTP worker after the
// first shard completes, and asserts the joiner steals queued work with the
// merged results byte-identical to a single-process run.
func TestMidCampaignWorkerJoinStealsAndMergesByteIdentical(t *testing.T) {
	w1, w2 := newTestWorker(t), newTestWorker(t)
	ts1 := httptest.NewServer(w1.Handler())
	defer ts1.Close()
	ts2 := httptest.NewServer(w2.Handler())
	defer ts2.Close()

	tr := &registerOnFirst{inner: NewHTTPTransport()}
	coord, err := New(Config{Workers: []string{ts1.URL}, Transport: tr, MaxShardSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr.join = func() {
		if err := coord.Register(ts2.URL); err != nil {
			t.Errorf("mid-campaign Register: %v", err)
		}
	}
	specs := testSpecs()
	merged, _, err := coord.RunContext(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, specs, merged, directResults(t, specs))
	st := coord.Stats()
	if st.Workers != 2 {
		t.Errorf("Workers = %d after the join, want 2", st.Workers)
	}
	if st.Steals < 1 || st.SessionsStolen < 1 {
		t.Errorf("joined worker never stole queued work: %+v", st)
	}
	if w2.Stats().Sessions == 0 {
		t.Error("joined worker executed nothing")
	}
	if st.WorkerFailures != 0 {
		t.Errorf("join campaign recorded worker failures: %+v", st)
	}
}

// slowTransport delegates shards to a shared in-process worker, delaying
// the slow member's dispatches — a stand-in for the skewed Oracle tail.
type slowTransport struct {
	worker *Worker
	slow   string
	delay  time.Duration
}

func (s *slowTransport) RunShard(ctx context.Context, worker string, req ShardRequest) (ShardResponse, error) {
	if worker == s.slow {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return ShardResponse{}, ctx.Err()
		}
	}
	return s.worker.RunShard("", req)
}

// TestStealingBoundsSlowWorker pairs a fast worker with an artificially
// slow one and asserts the fast worker steals from the slow one's queue,
// with results still merged byte-identically in campaign order.
func TestStealingBoundsSlowWorker(t *testing.T) {
	shared := newTestWorker(t)
	names := []string{"worker-fast:9001", "worker-slow:9002"}
	tr := &slowTransport{worker: shared, slow: names[1], delay: 200 * time.Millisecond}
	coord, err := New(Config{Workers: names, Transport: tr, MaxShardSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	specs := testSpecs()
	merged, _, err := coord.RunContext(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, specs, merged, directResults(t, specs))
	st := coord.Stats()
	if st.Steals < 1 || st.SessionsStolen < 1 {
		t.Errorf("idle worker never stole from the slow queue: %+v", st)
	}
	if st.WorkerFailures != 0 {
		t.Errorf("stealing campaign recorded worker failures: %+v", st)
	}
	if st.SessionsRouted != int64(len(specs)) {
		t.Errorf("SessionsRouted = %d, want %d (steals must not double-route)", st.SessionsRouted, len(specs))
	}
}

// TestChunkLockedStealsOnlyFromBusyOwners pins the steal rule on a run
// built by hand: an idle member never takes a queue whose owner has nothing
// in flight (its runner may simply not have been scheduled yet), and takes
// the tail half once the owner has a shard out.
func TestChunkLockedStealsOnlyFromBusyOwners(t *testing.T) {
	r := &run{
		c:        &Coordinator{cfg: Config{MaxShardSessions: 16}},
		queues:   map[string][]int{"owner": {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, "idle": nil},
		inflight: make(map[string]bool),
	}
	if chunk, stolen := r.chunkLocked("idle"); chunk != nil || stolen {
		t.Fatalf("stole %v from an owner with nothing in flight", chunk)
	}
	if got := len(r.queues["owner"]); got != 10 {
		t.Fatalf("owner queue = %d sessions after a refused steal, want 10", got)
	}

	r.inflight["owner"] = true
	chunk, stolen := r.chunkLocked("idle")
	if !stolen || !slices.Equal(chunk, []int{5, 6, 7, 8, 9}) {
		t.Fatalf("steal from a busy owner = %v (stolen %v), want the tail half [5 6 7 8 9]", chunk, stolen)
	}
	if !slices.Equal(r.queues["owner"], []int{0, 1, 2, 3, 4}) {
		t.Fatalf("owner queue after the steal = %v, want [0 1 2 3 4]", r.queues["owner"])
	}
	// The owner's own take is never a steal, in flight or not.
	if chunk, stolen := r.chunkLocked("owner"); stolen || !slices.Equal(chunk, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("owner's own chunk = %v (stolen %v), want [0 1 2 3 4]", chunk, stolen)
	}
}

// TestSpillOverEmptyMembership runs a campaign on a coordinator with no
// workers at all: every session comes back unplaced, for the caller to run
// in-process, and is counted as spilled — not routed.
func TestSpillOverEmptyMembership(t *testing.T) {
	coord, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	specs := testSpecs()[:6]
	var progressed atomic.Int64
	out, unplaced, err := coord.RunContext(context.Background(), specs, func(int, int) { progressed.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(unplaced, []int{0, 1, 2, 3, 4, 5}) {
		t.Errorf("unplaced = %v, want every index in order", unplaced)
	}
	if slices.ContainsFunc(out, func(r *engine.Result) bool { return r != nil }) || progressed.Load() != 0 {
		t.Errorf("unplaced sessions reported results or progress: %d progress calls", progressed.Load())
	}
	st := coord.Stats()
	if st.SpillOvers != 1 || st.SessionsSpilled != int64(len(specs)) {
		t.Errorf("spill-over not recorded: %+v", st)
	}
	if st.Shards != 0 || st.SessionsRouted != 0 {
		t.Errorf("empty membership still routed remotely: %+v", st)
	}
}

// TestSpillOverAfterAllWorkersFail is the graceful-degradation path: every
// remote worker dies mid-campaign, and the coordinator hands every session
// back unplaced — in ascending order, each counted once as spilled — so the
// caller can finish the campaign in-process instead of failing it. Running
// the unplaced sessions on a local worker completes the campaign
// byte-identically to a single-process run.
func TestSpillOverAfterAllWorkersFail(t *testing.T) {
	coord, err := New(Config{Workers: []string{"worker-a:9001", "worker-b:9002"}, Transport: everythingFails{}})
	if err != nil {
		t.Fatal(err)
	}
	local := newTestWorker(t)
	specs := testSpecs()
	merged, unplaced, err := coord.RunContext(context.Background(), specs, nil)
	if err != nil {
		t.Fatalf("RunContext failed instead of handing the sessions back: %v", err)
	}
	if len(unplaced) != len(specs) || !slices.IsSorted(unplaced) || unplaced[0] != 0 || unplaced[len(specs)-1] != len(specs)-1 {
		t.Fatalf("unplaced = %v, want every index 0..%d in order", unplaced, len(specs)-1)
	}
	req := ShardRequest{Sessions: make([]SessionSpec, len(unplaced))}
	for k, i := range unplaced {
		req.Sessions[k] = specs[i]
	}
	resp, err := local.RunShard("", req)
	if err != nil || resp.Error != "" {
		t.Fatalf("local run of the unplaced sessions: %v %s", err, resp.Error)
	}
	for k, i := range unplaced {
		merged[i] = resp.Results[k]
	}
	assertIdentical(t, specs, merged, directResults(t, specs))
	st := coord.Stats()
	if st.WorkerFailures != 2 {
		t.Errorf("WorkerFailures = %d, want 2", st.WorkerFailures)
	}
	if st.SpillOvers < 1 || st.SessionsSpilled != int64(len(specs)) {
		t.Errorf("SpillOvers = %d, SessionsSpilled = %d, want >= 1 and %d", st.SpillOvers, st.SessionsSpilled, len(specs))
	}
	if st.Workers != 0 {
		t.Errorf("Workers = %d after both faults, want 0", st.Workers)
	}
}

// TestHeartbeatMarksDeadAndHealsRecovered drives the real HTTP health-probe
// loop against a flippable /healthz: threshold consecutive failures mark
// the member unhealthy, one passing probe heals it. No harness is trained,
// so this runs in -short mode.
func TestHeartbeatMarksDeadAndHealsRecovered(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" || !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	coord, err := New(Config{
		Workers:           []string{ts.URL},
		heartbeatInterval: 10 * time.Millisecond,
		heartbeatTimeout:  time.Second,
		heartbeatFailures: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if coord.members.isHealthy(ts.URL) == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	waitFor(true, "initial healthy state")
	healthy.Store(false)
	waitFor(false, "consecutive probe failures to mark the worker unhealthy")
	if st := coord.Stats(); st.Workers != 0 {
		t.Errorf("Workers = %d while the only member is unhealthy, want 0", st.Workers)
	}
	healthy.Store(true)
	waitFor(true, "a passing probe to heal the worker")
	if st := coord.Stats(); st.Workers != 1 {
		t.Errorf("Workers = %d after the heal, want 1", st.Workers)
	}
}

// TestRetryBudgetExhaustion asserts a campaign whose worker faults exceed
// Config.retryBudget fails with a budget error instead of bouncing the
// sessions around the ring (or spilling) forever.
func TestRetryBudgetExhaustion(t *testing.T) {
	coord, err := New(Config{
		Workers:   []string{"worker-a:9001", "worker-b:9002", "worker-c:9003"},
		Transport: everythingFails{},
		// Budget 1: the first fault re-routes, the second fails the run.
		retryBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = coord.RunContext(context.Background(), testSpecs()[:6], nil)
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("Run error = %v, want retry budget exhaustion", err)
	}
	if st := coord.Stats(); st.WorkerFailures != 2 {
		t.Errorf("WorkerFailures = %d, want exactly 2 (budget must stop the cascade)", st.WorkerFailures)
	}
}

// TestProbeBackoffSuppressesProbes exercises the flap-damping state machine:
// failures push a member's next probe out on a growing jittered schedule,
// success or re-registration clears it.
func TestProbeBackoffSuppressesProbes(t *testing.T) {
	m := newMembership([]string{"a:1", "b:2"})
	m.backoffBase = 10 * time.Millisecond
	m.backoffMax = 100 * time.Millisecond

	now := time.Now()
	if due, skipped := m.probeTargets(now); len(due) != 2 || skipped != 0 {
		t.Fatalf("fresh membership: due=%v skipped=%d", due, skipped)
	}

	// A dispatch fault backs off re-probing immediately.
	m.fault("a:1")
	due, skipped := m.probeTargets(time.Now())
	if skipped != 1 || len(due) != 1 || due[0] != "b:2" {
		t.Fatalf("after fault: due=%v skipped=%d", due, skipped)
	}
	// The backoff window is bounded: base/2 .. max.
	gap := time.Until(m.snapshot()[0].BackoffUntil)
	if gap < 0 || gap > m.backoffMax {
		t.Fatalf("backoff gap %v outside (0, %v]", gap, m.backoffMax)
	}
	// Once the window elapses the member is probed again.
	if due, _ := m.probeTargets(now.Add(time.Second)); len(due) != 2 {
		t.Fatalf("backoff never expires: due=%v", due)
	}

	// Consecutive failures grow the window (jitter keeps it >= prior base).
	first := m.snapshot()[0].BackoffUntil
	for i := 0; i < 5; i++ {
		m.probe("a:1", false, 3)
	}
	grown := m.snapshot()[0].BackoffUntil
	if !grown.After(first) {
		t.Errorf("5 more failures did not grow the backoff: %v -> %v", first, grown)
	}
	if gap := time.Until(grown); gap < m.backoffMax/2 {
		t.Errorf("streaked backoff gap %v, want >= %v (cap/2 with jitter)", gap, m.backoffMax/2)
	}

	// A passing probe clears the backoff entirely.
	m.probe("a:1", true, 3)
	if due, skipped := m.probeTargets(time.Now()); len(due) != 2 || skipped != 0 {
		t.Fatalf("heal did not clear backoff: due=%v skipped=%d", due, skipped)
	}
	if mem := m.snapshot()[0]; !mem.BackoffUntil.IsZero() || mem.faultStreak != 0 {
		t.Errorf("healed member keeps backoff state: %+v", mem)
	}

	// Re-registration clears it too (a restarted worker announces itself).
	m.fault("b:2")
	m.register("b:2", SourceRegistered)
	if mem := m.snapshot()[1]; !mem.BackoffUntil.IsZero() {
		t.Errorf("re-registered member keeps backoff: %+v", mem)
	}
}
