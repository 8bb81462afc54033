package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/artifacts"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/server"
)

// Service sizing shared by every role of every workload.
const (
	// cacheEntries bounds each runner's memo cache and artifact store's
	// trace cache, as a long-lived server sweeping many seeds must. It is
	// below the campaign pool's session and trace counts (see poolSize).
	cacheEntries = 256
	// queueDepth and maxJobs keep the server's retained results small: the
	// client never has more than one campaign outstanding.
	queueDepth = 8
	maxJobs    = 16
)

// harness is one running service: the campaign server and, for cluster
// workloads, a coordinator plus two workers, each role on its own loopback
// listener and with its own harness setup (trained learner, artifact store,
// runner) as separate processes would have.
type harness struct {
	url   string
	svc   *server.Server
	coord *cluster.Coordinator

	// front serves the campaign API; workers serve the shard API behind it.
	front   *http.Server
	workers []*http.Server
	serving sync.WaitGroup
}

// roleConfig is the harness configuration of one role: paper-default
// training and a private artifact store, so no role reuses another's
// trained model or traces.
func roleConfig(procs int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Parallel = procs
	cfg.CacheMaxEntries = cacheEntries
	cfg.Artifacts = artifacts.NewStore()
	return cfg
}

// startHarness builds and starts the workload's service and returns once
// the campaign server answers /healthz.
func startHarness(w workload, t *tracer, procs int) (_ *harness, err error) {
	h := &harness{}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	quiet := slog.New(slog.DiscardHandler)

	cfg := server.Config{JobWorkers: 2, QueueDepth: queueDepth, MaxJobs: maxJobs, Logger: quiet}
	if w.cluster {
		inner := cluster.NewHTTPTransport()
		pinger, ok := inner.(cluster.Pinger)
		if !ok {
			return nil, errors.New("the HTTP shard transport does not answer health probes")
		}
		tr := &shardTransport{t: t, inner: inner, pinger: pinger, urls: make(map[string]string)}
		var names []string
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("worker-%d", i)
			wk, err := cluster.NewWorker(roleConfig(procs))
			if err != nil {
				return nil, err
			}
			srv, url, err := h.listen(t.workerHandler(wk.Handler()))
			if err != nil {
				return nil, err
			}
			h.workers = append(h.workers, srv)
			tr.urls[name] = url
			names = append(names, name)
		}
		h.coord, err = cluster.New(cluster.Config{Workers: names, Transport: tr, Logger: quiet})
		if err != nil {
			return nil, err
		}
		cfg.Cluster = h.coord
	}
	cfg.Experiments = roleConfig(procs)
	h.svc, err = server.New(cfg)
	if err != nil {
		return nil, err
	}
	h.front, h.url, err = h.listen(t.serverHandler(h.svc.Handler()))
	if err != nil {
		return nil, err
	}
	resp, err := http.Get(h.url + "/healthz")
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("campaign server /healthz answered %s", resp.Status)
	}
	return h, nil
}

// listen serves handler on a fresh loopback port.
func (h *harness) listen(handler http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	h.serving.Add(1)
	go func() {
		defer h.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

// close stops every listener and role and waits for them. Safe on a partly
// started harness.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if h.front != nil {
		_ = h.front.Shutdown(ctx)
	}
	if h.svc != nil {
		h.svc.Close()
	}
	if h.coord != nil {
		h.coord.Close()
	}
	for _, srv := range h.workers {
		_ = srv.Shutdown(ctx)
	}
	h.serving.Wait()
}
