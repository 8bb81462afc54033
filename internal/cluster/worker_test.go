package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/acmp"
	"repro/internal/artifacts"
	"repro/internal/experiments"
	"repro/internal/sessions"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// poolCampaignSpecs returns the 18 specs of e2ebench's pool campaign 0, as
// the server expands it: the registry's first three apps on trace seed
// 100000, each under all five schedulers plus one PES point at confidence
// 0.3.
func poolCampaignSpecs(setup *experiments.Setup) []SessionSpec {
	var specs []SessionSpec
	for _, app := range webapp.Registry()[:3] {
		spec := SessionSpec{Platform: "Exynos5410", App: app.Name, TraceSeed: 100_000, Predictor: setup.Config.Predictor}
		for _, name := range sessions.Names() {
			spec.Scheduler = name
			specs = append(specs, spec)
		}
		spec.Scheduler = sessions.PES
		spec.Predictor.ConfidenceThreshold = 0.3
		specs = append(specs, spec)
	}
	return specs
}

// TestBuildSessionsKeysMatchNew: BuildSessions fingerprints each distinct
// (platform, trace) once and shares the key among its sessions; every memo
// key must still be the one sessions.New computes for that session alone.
// The specs interleave two pool campaigns on two trace seeds and both
// platforms, so a key shared across the wrong pair shows.
func TestBuildSessionsKeysMatchNew(t *testing.T) {
	w := newTestWorker(t)
	setup := w.Setup()
	var specs []SessionSpec
	for _, spec := range poolCampaignSpecs(setup) {
		for _, platform := range []string{"Exynos5410", "TX2"} {
			for _, seed := range []int64{100_000, 100_001} {
				spec.Platform, spec.TraceSeed = platform, seed
				specs = append(specs, spec)
			}
		}
	}
	sess, err := BuildSessions(setup, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		platform, err := acmp.ByName(spec.Platform)
		if err != nil {
			t.Fatal(err)
		}
		app, err := webapp.ByName(spec.App)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := sessions.New(sessions.Spec{
			Platform:  platform,
			Trace:     setup.Artifacts.Trace(app, spec.TraceSeed, trace.PurposeEval, trace.Options{}),
			Scheduler: spec.Scheduler,
			Learner:   setup.Learner,
			Predictor: spec.Predictor,
			Artifacts: setup.Artifacts,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sess[i].Key != alone.Key {
			t.Errorf("session %d (%+v): key %+v, sessions.New gives %+v", i, spec, sess[i].Key, alone.Key)
		}
	}
}

// BenchmarkBuildSessions times the serial head of every campaign: building
// one pool campaign's 18 sessions on one goroutine before any of them runs.
// "cold" gives every iteration a fresh artifact store, so the campaign's
// three traces are generated and hashed; "warm" reuses one store, so only
// the platform half of each trace's fingerprint (hashed fresh on every
// build, once per distinct platform and trace) and the session closures
// are built. Workers take the warm path for every shard they receive.
func BenchmarkBuildSessions(b *testing.B) {
	setup, err := experiments.NewSetup(smallConfig())
	if err != nil {
		b.Fatal(err)
	}
	specs := poolCampaignSpecs(setup)
	run := func(b *testing.B, store func() *artifacts.Store) {
		s := *setup
		s.Artifacts = store()
		if _, err := BuildSessions(&s, specs); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Artifacts = store()
			if _, err := BuildSessions(&s, specs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*len(specs)), "us/session")
	}
	b.Run("cold", func(b *testing.B) { run(b, artifacts.NewStore) })
	warm := artifacts.NewStore()
	b.Run("warm", func(b *testing.B) { run(b, func() *artifacts.Store { return warm }) })
}

// FuzzDecodeShardRequest feeds arbitrary bodies to the worker's shard
// request decoder, the worker's side of the wire: it must never panic, and
// a body it accepts re-encodes to one that decodes to the same request. A
// request that also passes checkShard, the checks made before anything is
// built, has at least one session, each with a predictor configuration
// within predictor.Config.Validate's bounds and a route key. The seed
// corpus lives in testdata/fuzz/FuzzDecodeShardRequest: "pool-shard" is
// the body a coordinator sends for the first nine sessions of a pool
// campaign, "truncated" its first half and "trailing-bytes" it followed by
// "}{"; the rest are small hostile bodies (empty and null session lists,
// unknown fields at both levels, an out-of-range predictor, a trace seed
// past int64, a frame instead of JSON).
func FuzzDecodeShardRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeShardRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		back, err := decodeShardRequest(bytes.NewReader(again))
		if err != nil || !reflect.DeepEqual(back, req) {
			t.Fatalf("accepted request does not round-trip (err %v):\n in %+v\nout %+v", err, req, back)
		}
		if checkShard(req) != nil {
			return
		}
		if len(req.Sessions) == 0 {
			t.Fatal("checkShard passed a shard with no sessions")
		}
		for i, spec := range req.Sessions {
			if err := spec.Predictor.Validate(); err != nil {
				t.Fatalf("session %d: checkShard passed an invalid predictor: %v", i, err)
			}
			_ = spec.RouteKey()
		}
	})
}
