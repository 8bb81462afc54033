package batch

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/acmp"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// benchSessions builds one batch of unique full-length sessions: every seen
// application under the three reactive schedulers.
func benchSessions(b *testing.B) []Session {
	b.Helper()
	p := acmp.Exynos5410()
	var sessions []Session
	for _, spec := range webapp.SeenApps() {
		for _, schedName := range []string{"Interactive", "Ondemand", "EBS"} {
			spec, schedName := spec, schedName
			seed := int64(100 + len(sessions))
			sessions = append(sessions, Session{
				Key: Key{Platform: p.Name, App: spec.Name, TraceSeed: seed, Scheduler: schedName},
				Run: func() (*engine.Result, time.Duration, error) {
					tr := trace.Generate(spec, seed, trace.Options{})
					evs := tr.Events
					var pol sched.ReactivePolicy
					switch schedName {
					case "Interactive":
						pol = sched.NewInteractive(p)
					case "Ondemand":
						pol = sched.NewOndemand(p)
					default:
						pol = sched.NewEBS(p)
					}
					return engine.RunReactive(p, spec.Name, evs, pol), 0, nil
				},
			})
		}
	}
	return sessions
}

// runBatch measures one cold batch (fresh runner each iteration so the memo
// cache does not hide the simulation cost).
func runBatch(b *testing.B, workers int) {
	b.Helper()
	sessions := benchSessions(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := NewRunner(workers).Run(sessions)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(sessions) {
			b.Fatalf("got %d results", len(out))
		}
	}
	b.ReportMetric(float64(len(sessions)), "sessions/op")
}

// BenchmarkBatchSerial is the pre-refactor baseline: one session at a time.
func BenchmarkBatchSerial(b *testing.B) { runBatch(b, 1) }

// BenchmarkBatchParallel runs the same batch on a NumCPU worker pool. On a
// 4+ core machine the speedup over BenchmarkBatchSerial should be ≥ 3×
// (BENCH snapshots track the ratio).
func BenchmarkBatchParallel(b *testing.B) { runBatch(b, runtime.NumCPU()) }

// BenchmarkBatchMemoized measures the steady-state cost of re-requesting an
// already-simulated batch: pure cache hits.
func BenchmarkBatchMemoized(b *testing.B) {
	sessions := benchSessions(b)
	r := NewRunner(runtime.NumCPU())
	if _, err := r.Run(sessions); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(sessions); err != nil {
			b.Fatal(err)
		}
	}
}
