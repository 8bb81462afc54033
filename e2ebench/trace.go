package main

import (
	"context"
	"net/http"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/batch"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// tracer collects the per-layer measurements of a traced run, all taken
// from outside the program: timing middleware on the HTTP handlers the
// benchmark serves, a timing wrapper on the coordinator's shard transport,
// and the spans and counters the service publishes. Recording is switched
// per campaign, so one run measures traced and untraced campaigns side by
// side; with recording off every wrapper is a pass-through.
type tracer struct {
	on atomic.Bool

	mu   sync.Mutex
	sums map[string]float64
	ns   map[string]int
}

func newTracer() *tracer {
	return &tracer{sums: make(map[string]float64), ns: make(map[string]int)}
}

// add records one observation of a layer metric.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.sums[name] += v
	t.ns[name]++
	t.mu.Unlock()
}

// mean returns the mean of a metric's observations, or 0 when it has none
// (a layer the workload does not exercise).
func (t *tracer) mean(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ns[name] == 0 {
		return 0
	}
	return t.sums[name] / float64(t.ns[name])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func kib(n int) float64          { return float64(n) / 1024 }

// ratio is num/den, or 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// countingWriter counts the body bytes a handler writes. It forwards Flush,
// which the NDJSON results stream uses.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timed wraps h so that, while recording, observe gets every request with
// its handler time and response body size.
func (t *tracer) timed(h http.Handler, observe func(r *http.Request, d time.Duration, bytes int)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		observe(r, time.Since(start), cw.n)
	})
}

// serverHandler times the campaign API's submit and results handlers.
func (t *tracer) serverHandler(h http.Handler) http.Handler {
	return t.timed(h, func(r *http.Request, d time.Duration, n int) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/campaigns":
			t.add("server.submit_ms", ms(d))
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/results"):
			t.add("server.results_ms", ms(d))
			t.add("server.results_kb", kib(n))
		}
	})
}

// workerHandler times a cluster worker's shard handler: decode, simulate or
// serve from cache, encode.
func (t *tracer) workerHandler(h http.Handler) http.Handler {
	return t.timed(h, func(r *http.Request, d time.Duration, n int) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/shards" {
			t.add("cluster.shard_worker_ms", ms(d))
			t.add("cluster.shard_resp_kb", kib(n))
		}
	})
}

// shardTransport is the coordinator's shard transport. It names the
// workers "worker-0", "worker-1", … and resolves the names to their loopback
// URLs, so the hash ring — and with it which worker owns which session — is
// the same on every run whatever ports the listeners got. While recording it
// times each shard's round trip.
type shardTransport struct {
	t      *tracer
	inner  cluster.Transport
	pinger cluster.Pinger
	urls   map[string]string
}

func (s *shardTransport) RunShard(ctx context.Context, worker string, req cluster.ShardRequest) (cluster.ShardResponse, error) {
	url := s.urls[worker]
	if !s.t.on.Load() {
		return s.inner.RunShard(ctx, url, req)
	}
	start := time.Now()
	resp, err := s.inner.RunShard(ctx, url, req)
	if err == nil {
		s.t.add("cluster.shard_rtt_ms", ms(time.Since(start)))
		s.t.add("cluster.sessions_per_shard", float64(len(req.Sessions)))
	}
	return resp, err
}

func (s *shardTransport) Ping(ctx context.Context, worker string) error {
	return s.pinger.Ping(ctx, s.urls[worker])
}

// addSpans records a campaign's server-side timeline: the queue wait, and
// the execution from the end of the queue wait to the end of the last span
// (in-process simulation, or shard dispatch and the workers' spans).
func (t *tracer) addSpans(spans []obs.Span) {
	var queueEnd, end int64
	for _, s := range spans {
		if s.Name == "queue_wait" {
			t.add("server.queue_wait_ms", float64(s.DurUS)/1e3)
			queueEnd = s.StartUS + s.DurUS
			continue
		}
		end = max(end, s.StartUS+s.DurUS)
	}
	if queueEnd > 0 && end >= queueEnd {
		t.add("server.execute_ms", float64(end-queueEnd)/1e3)
	}
}

// healthz is the part of the server's GET /healthz body the benchmark reads.
type healthz struct {
	Stats   batch.Stats    `json:"stats"`
	Cluster *cluster.Stats `json:"cluster"`
}

// sessions returns the counters of whichever runners simulate the
// campaigns: the workers' (summed by the coordinator) in a cluster, the
// server's own otherwise.
func (h healthz) sessions() batch.Stats {
	if h.Cluster != nil {
		return h.Cluster.Remote
	}
	return h.Stats
}

// addHealth records the memo counters and cluster fault counters
// accumulated between two /healthz snapshots over the given campaigns.
func (t *tracer) addHealth(before, after healthz, campaigns int) {
	b, a := before.sessions(), after.sessions()
	if n := a.Sessions - b.Sessions; n > 0 {
		t.add("batch.memo_hit_ratio", float64(a.CacheHits-b.CacheHits)/float64(n))
	}
	if campaigns > 0 {
		t.add("batch.unique_runs_per_campaign", float64(a.UniqueRuns-b.UniqueRuns)/float64(campaigns))
	}
	if before.Cluster != nil && after.Cluster != nil {
		t.add("cluster.retries", float64(after.Cluster.Retries-before.Cluster.Retries))
		t.add("cluster.steals", float64(after.Cluster.Steals-before.Cluster.Steals))
	}
}

// Runtime metrics read by the benchmark.
const (
	heapObjects = "/memory/classes/heap/objects:bytes"
	gcCPU       = "/cpu/classes/gc/total:cpu-seconds"
)

// heapSampler tracks the peak live-and-unswept heap object bytes, sampled
// every 100 ms until stop.
type heapSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	peak   uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// cpuSeconds returns the runtime's estimate of the process's cumulative GC
// CPU seconds and the process's cumulative user plus system CPU seconds.
func cpuSeconds() (gc, process float64) {
	s := []metrics.Sample{{Name: gcCPU}}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return s[0].Value.Float64(), float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
