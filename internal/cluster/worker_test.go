package cluster

import (
	"testing"

	"repro/internal/artifacts"
	"repro/internal/experiments"
	"repro/internal/sessions"
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

// BenchmarkBuildSessions times the serial head of every campaign: building
// one pool campaign's 18 sessions on one goroutine before any of them runs.
// "cold" gives every iteration a fresh artifact store, so the campaign's
// three traces are generated and hashed; "warm" reuses one store, so only
// the platform half of each session's fingerprint (hashed fresh on every
// call) and the session closures are built. Workers take the warm path for
// every shard they receive.
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
