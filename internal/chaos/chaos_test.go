package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/sessions"
	"repro/internal/store"
)

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=42,fault=0.05,torn=0.02,latency=0.2,latency_max=20ms,ping=0.1,short_write=0.01,crash_after=40")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	want := Config{Seed: 42, FaultP: 0.05, TornP: 0.02, LatencyP: 0.2,
		MaxLatency: 20 * time.Millisecond, PingP: 0.1, ShortWriteP: 0.01, CrashAfter: 40}
	if cfg != want {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if !cfg.Enabled() {
		t.Error("parsed config not Enabled")
	}
	if c, err := ParseSpec(""); err != nil || c.Enabled() {
		t.Errorf("empty spec: cfg=%+v err=%v", c, err)
	}
	for _, bad := range []string{"nope=1", "fault=1.5", "fault", "latency_max=fast", "seed=x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// nopTransport returns empty successful responses sized to the request.
type nopTransport struct{}

func (nopTransport) RunShard(ctx context.Context, worker string, req cluster.ShardRequest) (cluster.ShardResponse, error) {
	return cluster.ShardResponse{Results: make([]*engine.Result, len(req.Sessions))}, nil
}

// TestInjectionDeterministic drives two same-seeded injectors through an
// identical op sequence and asserts the fault pattern replays exactly.
func TestInjectionDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, FaultP: 0.3, TornP: 0.2}
	pattern := func() string {
		tr := New(cfg).WrapTransport(nopTransport{})
		var b bytes.Buffer
		req := cluster.ShardRequest{Sessions: make([]cluster.SessionSpec, 4)}
		for i := 0; i < 200; i++ {
			resp, err := tr.RunShard(context.Background(), "w", req)
			switch {
			case err != nil:
				b.WriteByte('F')
			case len(resp.Results) != len(req.Sessions):
				b.WriteByte('T')
			default:
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	a, b := pattern(), pattern()
	if a != b {
		t.Fatalf("same seed, different fault pattern:\n%s\n%s", a, b)
	}
	if !bytes.ContainsAny([]byte(a), "F") || !bytes.ContainsAny([]byte(a), "T") {
		t.Fatalf("pattern injected no faults/tears: %s", a)
	}
}

// TestInjectionKeyedOnDispatch asserts a dispatch's fate depends on the
// dispatch, not on arrival order: two same-seeded injectors that see the
// same dispatches in opposite orders inject the same faults into each.
func TestInjectionKeyedOnDispatch(t *testing.T) {
	cfg := Config{Seed: 2, FaultP: 0.15, TornP: 0.15}
	specs := chaosSpecs()
	fates := func(order []int) map[string]byte {
		tr := New(cfg).WrapTransport(nopTransport{})
		out := map[string]byte{}
		for _, i := range order {
			for _, worker := range []string{"a", "b"} {
				req := cluster.ShardRequest{Sessions: specs[i : i+1]}
				resp, err := tr.RunShard(context.Background(), worker, req)
				fate := byte('.')
				if err != nil {
					fate = 'F'
				} else if len(resp.Results) != 1 {
					fate = 'T'
				}
				out[worker+specs[i].RouteKey()] = fate
			}
		}
		return out
	}
	var fwd, rev []int
	for i := range specs {
		fwd = append(fwd, i)
		rev = append(rev, len(specs)-1-i)
	}
	a, b := fates(fwd), fates(rev)
	injected := 0
	for k, fate := range a {
		if b[k] != fate {
			t.Errorf("dispatch %s: fate %c in one order, %c in the other", k, fate, b[k])
		}
		if fate != '.' {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("no dispatch drew a fault; the comparison proves nothing")
	}
}

// TestPingerSurfaceUnchanged asserts wrapping preserves whether the
// transport exposes health probes.
func TestPingerSurfaceUnchanged(t *testing.T) {
	in := New(Config{Seed: 1, PingP: 1})
	if _, ok := in.WrapTransport(nopTransport{}).(cluster.Pinger); ok {
		t.Error("wrapper grew a Pinger the inner transport lacks")
	}
	wrapped := in.WrapTransport(cluster.NewHTTPTransport())
	p, ok := wrapped.(cluster.Pinger)
	if !ok {
		t.Fatal("wrapper lost the inner transport's Pinger")
	}
	if err := p.Ping(context.Background(), "w"); err == nil {
		t.Error("PingP=1 probe did not fail")
	}
	if in.Stats().PingFaults != 1 {
		t.Errorf("PingFaults = %d, want 1", in.Stats().PingFaults)
	}
}

// TestCrashAtRecordNRecovery is the store half of the resilience property
// suite: put records through a chaos-wrapped log, crash at a random record,
// reopen clean, and assert everything before the crash point survived and
// the torn crashing record was truncated away.
func TestCrashAtRecordNRecovery(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)))
			total := 10 + rng.Intn(40)
			crashAt := 1 + rng.Intn(total)
			in := New(Config{Seed: int64(trial)})
			dir := t.TempDir()
			s, err := store.Open(dir, store.WithFileWrapper(in.WrapFile))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			in.ArmCrashAfter(int64(crashAt))
			wrote := 0
			for i := 0; i < total; i++ {
				if err := s.Put(fmt.Sprintf("k%04d", i), []byte(fmt.Sprintf("v%04d", i))); err != nil {
					break
				}
				wrote++
			}
			if wrote != crashAt-1 {
				t.Fatalf("wrote %d records before the crash, want %d", wrote, crashAt-1)
			}
			if !in.Stats().Crashed {
				t.Fatal("crash never fired")
			}
			// Everything after the crash must fail too.
			if err := s.Put("after", []byte("x")); err == nil {
				t.Fatal("Put succeeded after the crash")
			}
			s.Close()

			// Reopen without chaos: the torn crashing record is truncated,
			// every record before it is intact.
			s2, err := store.Open(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close()
			st := s2.Stats()
			if st.Recovered != int64(wrote) {
				t.Fatalf("recovered %d records, want %d (stats %+v)", st.Recovered, wrote, st)
			}
			if st.TornBytes == 0 {
				t.Fatal("no torn tail truncated: the crashing write left nothing?")
			}
			if st.CorruptRecords != 0 {
				t.Fatalf("recovery saw %d corrupt records, want 0 (tears must stay at the tail)", st.CorruptRecords)
			}
			for i := 0; i < wrote; i++ {
				v, ok := s2.Get(fmt.Sprintf("k%04d", i))
				if !ok || !bytes.Equal(v, []byte(fmt.Sprintf("v%04d", i))) {
					t.Fatalf("record %d lost or wrong after recovery", i)
				}
			}
		})
	}
}

// TestShortWritesSurfaceAsPutErrors asserts short writes fail the Put and
// never corrupt what a reopened store recovers.
func TestShortWritesSurfaceAsPutErrors(t *testing.T) {
	in := New(Config{Seed: 3, ShortWriteP: 0.3})
	dir := t.TempDir()
	s, err := store.Open(dir, store.WithFileWrapper(in.WrapFile))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	good := map[string]bool{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%04d", i)
		if err := s.Put(k, []byte("v")); err == nil {
			good[k] = true
		}
	}
	s.Close()
	if in.Stats().ShortWrites == 0 {
		t.Fatal("no short writes injected")
	}
	if len(good) == 100 {
		t.Fatal("every Put succeeded despite short writes")
	}
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	for k := range good {
		if _, ok := s2.Get(k); !ok {
			// A short write at offset X is overwritten by the next record at
			// the same offset, so a *successful* Put survives unless it was
			// the last before close with a torn record after it — impossible
			// here because failed Puts do not advance the log offset.
			t.Fatalf("successfully-Put key %s lost after reopen", k)
		}
	}
}

// chaosSpecs is the small 20-session campaign the cluster tests use.
func chaosSpecs() []cluster.SessionSpec {
	var specs []cluster.SessionSpec
	for _, app := range []string{"cnn", "ebay"} {
		for _, seed := range []int64{1, 2} {
			for _, sched := range sessions.Names() {
				specs = append(specs, cluster.SessionSpec{
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

// workerTransport routes shards to in-process workers.
type workerTransport struct{ workers map[string]*cluster.Worker }

func (w workerTransport) RunShard(ctx context.Context, worker string, req cluster.ShardRequest) (cluster.ShardResponse, error) {
	return w.workers[worker].RunShard(req)
}

// TestCampaignSurvivesChaosByteIdentical runs the resilience property
// end-to-end: a campaign dispatched through a fault-injecting transport
// (errors, torn responses, latency) must complete with zero client-visible
// failures and results byte-identical to a chaos-free run.
func TestCampaignSurvivesChaosByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a predictor")
	}
	smallCfg := experiments.Config{TrainTracesPerApp: 2, EvalTracesPerApp: 1, Parallel: 2}
	newWorkers := func() map[string]*cluster.Worker {
		ws := map[string]*cluster.Worker{}
		for _, name := range []string{"worker-a:9001", "worker-b:9002"} {
			w, err := cluster.NewWorker(smallCfg)
			if err != nil {
				t.Fatal(err)
			}
			ws[name] = w
		}
		return ws
	}
	specs := chaosSpecs()
	// Small chunks force many dispatches, so every seed injects something.
	// The local spill-over worker matches production wiring (server.New
	// always installs one): when chaos excludes every remote, the campaign
	// degrades to local execution instead of failing.
	runOnce := func(tr cluster.Transport, names []string) []*engine.Result {
		local, err := cluster.NewWorker(smallCfg)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := cluster.New(cluster.Config{Workers: names, Transport: tr, MaxShardSessions: 2})
		if err != nil {
			t.Fatal(err)
		}
		coord.SetLocal(local)
		out, err := coord.Run(specs, nil)
		if err != nil {
			t.Fatalf("campaign failed (must have zero client-visible failures): %v", err)
		}
		return out
	}
	names := []string{"worker-a:9001", "worker-b:9002"}
	clean := runOnce(workerTransport{newWorkers()}, names)

	for _, seed := range []int64{1, 2, 3} {
		in := New(Config{Seed: seed, FaultP: 0.15, TornP: 0.15, LatencyP: 0.3, MaxLatency: 2 * time.Millisecond})
		chaotic := runOnce(in.WrapTransport(workerTransport{newWorkers()}), names)
		st := in.Stats()
		if st.ShardFaults+st.TornResponses == 0 {
			t.Errorf("seed %d injected nothing; the run proves nothing", seed)
		}
		for i := range clean {
			if chaotic[i] == nil {
				t.Fatalf("seed %d: result %d missing", seed, i)
			}
			want, err1 := json.Marshal(clean[i])
			got, err2 := json.Marshal(chaotic[i])
			if err := errors.Join(err1, err2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: result %d differs from chaos-free run", seed, i)
			}
		}
	}
}
