package batch

import (
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/acmp"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/webapp"
)

var errTest = errors.New("session build failed")

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	ps, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	return ps
}

// countedSession wraps ebsSession with a run counter so tests can assert
// exactly how many simulations executed.
func countedSession(t testing.TB, app string, seed int64, runs *atomic.Int64) Session {
	s := ebsSession(t, app, seed)
	run := s.Run
	s.Run = func() (*engine.Result, time.Duration, error) {
		runs.Add(1)
		return run()
	}
	return s
}

// sameJSON reports whether two results serialize identically — the byte-level
// equality the server's warm-start guarantee is built on.
func sameJSON(t *testing.T, a, b *engine.Result) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ja) == string(jb)
}

// TestRunnerStoreWarmStart is the restart story at the batch layer: a second
// runner opened on the same store dir serves every session from disk —
// zero simulations — with results JSON-identical to the cold run's.
func TestRunnerStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	var coldRuns atomic.Int64
	var sessions []Session
	for seed := int64(0); seed < 4; seed++ {
		sessions = append(sessions, countedSession(t, "cnn", seed, &coldRuns))
	}

	coldStore := openStore(t, dir)
	cold := NewRunner(2).WithStore(coldStore)
	coldOut, err := cold.Run(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if got := coldRuns.Load(); got != 4 {
		t.Fatalf("cold run simulated %d times, want 4", got)
	}
	if st := cold.Stats(); st.UniqueRuns != 4 || st.StoreHits != 0 {
		t.Fatalf("cold stats: %+v", st)
	}
	if err := coldStore.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh runner, fresh store handle, same directory.
	var warmRuns atomic.Int64
	var warmSessions []Session
	for seed := int64(0); seed < 4; seed++ {
		warmSessions = append(warmSessions, countedSession(t, "cnn", seed, &warmRuns))
	}
	warm := NewRunner(2).WithStore(openStore(t, dir))
	warmOut, err := warm.Run(warmSessions)
	if err != nil {
		t.Fatal(err)
	}
	if got := warmRuns.Load(); got != 0 {
		t.Fatalf("warm run re-simulated %d sessions", got)
	}
	st := warm.Stats()
	if st.UniqueRuns != 0 || st.StoreHits != 4 {
		t.Fatalf("warm stats: %+v", st)
	}
	if st.Store == nil || st.Store.Hits != 4 {
		t.Fatalf("store stats not surfaced: %+v", st.Store)
	}
	for i := range warmOut {
		if !sameJSON(t, coldOut[i], warmOut[i]) {
			t.Errorf("session %d: warm result differs from cold", i)
		}
		if !reflect.DeepEqual(coldOut[i], warmOut[i]) {
			t.Errorf("session %d: decoded result not deeply equal", i)
		}
	}
}

// TestTwoRunnersSharedStoreBuildOnce pins the cross-runner exactly-once
// guarantee: two Runners sharing one store, hammered concurrently with the
// same keys, execute each simulation exactly once between them (store-level
// singleflight). Run under -race.
func TestTwoRunnersSharedStoreBuildOnce(t *testing.T) {
	ps := openStore(t, t.TempDir())
	a := NewRunner(4).WithStore(ps)
	b := NewRunner(4).WithStore(ps)

	var runs atomic.Int64
	const uniqueKeys = 3
	batchFor := func() []Session {
		var out []Session
		for i := 0; i < 12; i++ {
			out = append(out, countedSession(t, "cnn", int64(i%uniqueKeys), &runs))
		}
		return out
	}
	var wg sync.WaitGroup
	outs := make([][]*engine.Result, 2)
	for i, r := range []*Runner{a, b} {
		wg.Add(1)
		go func(i int, r *Runner) {
			defer wg.Done()
			out, err := r.Run(batchFor())
			if err != nil {
				t.Errorf("runner %d: %v", i, err)
				return
			}
			outs[i] = out
		}(i, r)
	}
	wg.Wait()
	if got := runs.Load(); got != uniqueKeys {
		t.Fatalf("simulated %d times across two runners, want %d", got, uniqueKeys)
	}
	sta, stb := a.Stats(), b.Stats()
	if sta.UniqueRuns+stb.UniqueRuns != uniqueKeys {
		t.Errorf("unique runs split %d + %d, want total %d", sta.UniqueRuns, stb.UniqueRuns, uniqueKeys)
	}
	// Sessions not simulated locally were served from the shared store.
	if sta.StoreHits+stb.StoreHits+sta.UniqueRuns+stb.UniqueRuns != 2*uniqueKeys {
		t.Errorf("store-hit accounting off: a=%+v b=%+v", sta, stb)
	}
	for i := range outs[0] {
		if !sameJSON(t, outs[0][i], outs[1][i]) {
			t.Errorf("session %d: runners disagree on result", i)
		}
	}
}

// TestEvictionFallsBackToStore is the regression test for the LRU-eviction
// fix: before the persistent store, an evicted memo entry re-simulated on
// its next request; with a store attached it must be served from disk
// instead.
func TestEvictionFallsBackToStore(t *testing.T) {
	var runs atomic.Int64
	r := NewRunner(1).WithMaxEntries(1).WithStore(openStore(t, t.TempDir()))

	first, err := r.Run([]Session{countedSession(t, "cnn", 1, &runs)})
	if err != nil {
		t.Fatal(err)
	}
	// A second key evicts the first from the bounded memo cache.
	if _, err := r.Run([]Session{countedSession(t, "cnn", 2, &runs)}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.CacheEvictions != 1 {
		t.Fatalf("expected 1 eviction, got stats %+v", st)
	}
	// Re-requesting the evicted key must hit the store, not the simulator.
	again, err := r.Run([]Session{countedSession(t, "cnn", 1, &runs)})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("evicted session re-simulated: %d total runs, want 2", got)
	}
	st := r.Stats()
	if st.StoreHits != 1 {
		t.Fatalf("StoreHits = %d, want 1 (stats %+v)", st.StoreHits, st)
	}
	if st.UniqueRuns != 2 {
		t.Fatalf("UniqueRuns = %d, want 2", st.UniqueRuns)
	}
	if !sameJSON(t, first[0], again[0]) {
		t.Error("store-served result differs from the original simulation")
	}
}

// TestStoreErrorNotPersisted: a failing session build leaves nothing in the
// store, and the error reaches the caller.
func TestStoreErrorNotPersisted(t *testing.T) {
	ps := openStore(t, t.TempDir())
	r := NewRunner(1).WithStore(ps)
	s := ebsSession(t, "cnn", 7)
	boom := Session{Key: s.Key, Run: func() (*engine.Result, time.Duration, error) {
		return nil, 0, errTest
	}}
	if _, err := r.Run([]Session{boom}); err == nil {
		t.Fatal("error not propagated")
	}
	if n := ps.Len(); n != 0 {
		t.Fatalf("failed build persisted %d records", n)
	}
}

// TestStoredValueIsJSONMarshal: the store holds exactly json.Marshal's
// bytes for every golden engine session (cnn/11, ebay/5, espn/9 under all
// five schedulers), so store logs written by the encoding/json path keep
// their hits and decode the same.
func TestStoredValueIsJSONMarshal(t *testing.T) {
	p := acmp.Exynos5410()
	learner, _, err := predictor.TrainOnSeenApps(3, 400)
	if err != nil {
		t.Fatal(err)
	}
	var sessions []Session
	for _, g := range []struct {
		app  string
		seed int64
	}{{"cnn", 11}, {"ebay", 5}, {"espn", 9}} {
		spec, err := webapp.ByName(g.app)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.Generate(spec, g.seed, trace.Options{})
		evs := tr.Events
		for name, run := range map[string]func() *engine.Result{
			"Interactive": func() *engine.Result { return engine.RunReactive(p, g.app, evs, sched.NewInteractive(p)) },
			"Ondemand":    func() *engine.Result { return engine.RunReactive(p, g.app, evs, sched.NewOndemand(p)) },
			"EBS":         func() *engine.Result { return engine.RunReactive(p, g.app, evs, sched.NewEBS(p)) },
			"Oracle":      func() *engine.Result { return engine.RunProactive(p, g.app, evs, sched.NewOracle(p, evs)) },
			"PES": func() *engine.Result {
				return engine.RunProactive(p, g.app, evs, core.NewPES(p, learner, spec, tr.DOMSeed, predictor.DefaultConfig()))
			},
		} {
			sessions = append(sessions, Session{
				Key: Key{Platform: p.Name, App: g.app, TraceSeed: g.seed, Scheduler: name},
				Run: func() (*engine.Result, time.Duration, error) { return run(), 0, nil },
			})
		}
	}
	ps := openStore(t, t.TempDir())
	out, err := NewRunner(2).WithStore(ps).Run(sessions)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sessions {
		stored, ok := ps.Get(storeKey(s.Key))
		want, err := json.Marshal(out[i])
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(stored) != string(want) {
			t.Errorf("%s/%d %s: stored value (found %v, %d bytes) is not json.Marshal's %d bytes",
				s.Key.App, s.Key.TraceSeed, s.Key.Scheduler, ok, len(stored), len(want))
		}
	}
}
