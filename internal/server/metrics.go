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
// cluster coordinator's when one is configured, the server's own queue, job
// and journal-recovery gauges (the metric-tagged fields of the /healthz
// body), and the per-route HTTP latency histograms. Called once from New,
// before the server serves traffic.
func (s *Server) initMetrics() {
	reg := s.metrics
	s.setup.Runner.RegisterMetrics(reg)
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.RegisterMetrics(reg)
	}
	obs.Snapshot(reg, s.health)

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
