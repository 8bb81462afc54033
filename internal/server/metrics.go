package server

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// httpRoutes are the route patterns instrumented with a latency histogram.
// One histogram per route label, registered up front — the hot handler path
// only does map-free pointer lookups and an atomic Observe.
var httpRoutes = []string{
	"/v1/campaigns",
	"/v1/campaigns/{id}",
	"/v1/campaigns/{id}/results",
	"/v1/campaigns/{id}/trace",
	"/v1/figures/{name}",
	"/v1/cluster/workers",
	"/healthz",
	"/metrics",
}

// initMetrics wires the server's registry: the shared runner's counter
// families (sessions, memo/store hits, solver, artifacts, store log), the
// cluster coordinator's when one is configured, the server's own queue and
// journal-recovery gauges, and the per-route HTTP latency histograms.
// Called once from New, before the server serves traffic.
func (s *Server) initMetrics() {
	reg := s.metrics
	s.setup.Runner.RegisterMetrics(reg)
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.RegisterMetrics(reg)
	}
	reg.GaugeFunc("pes_campaign_queue_depth",
		"Campaigns waiting in the admission queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("pes_jobs",
		"Jobs retained for status/result queries.",
		func() float64 {
			s.mu.Lock()
			n := len(s.jobs)
			s.mu.Unlock()
			return float64(n)
		})
	reg.GaugeFunc("pes_journaled",
		"1 when a persistent store journals campaign lifecycles.",
		func() float64 {
			if s.journal != nil {
				return 1
			}
			return 0
		})
	// The journal recovery outcome, one gauge per disposition. Set once at
	// boot (recovery runs before initMetrics); constant for the process's
	// life, which is exactly what a restart-counting alert wants.
	reg.GaugeFunc("pes_campaigns_resumed",
		"Journaled campaigns re-enqueued at boot.",
		func() float64 { return float64(s.recovery.Resumed) })
	reg.GaugeFunc("pes_campaigns_recovery_failed",
		"Journaled campaigns that failed to re-expand at boot.",
		func() float64 { return float64(s.recovery.Failed) })
	reg.GaugeFunc("pes_campaigns_stayed_journaled",
		"Journaled campaigns left for a later boot (queue full at recovery).",
		func() float64 { return float64(s.recovery.StayedJournaled) })

	s.httpLat = make(map[string]*obs.Histogram, len(httpRoutes))
	for _, route := range httpRoutes {
		s.httpLat[route] = reg.Histogram("pes_http_request_duration_seconds",
			"HTTP handler latency by route pattern.", obs.L("route", route))
	}
}

// timed wraps a handler with its route's latency histogram.
func (s *Server) timed(route string, h http.Handler) http.Handler {
	hist := s.httpLat[route]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		hist.ObserveSeconds(int64(time.Since(start)))
	})
}

// Metrics exposes the server's registry (for cmd wiring that adds
// process-level series, e.g. chaos injection counters).
func (s *Server) Metrics() *obs.Registry { return s.metrics }
