// Command pes-serve runs the simulation service: a long-lived HTTP server
// that accepts simulation campaigns, executes them on a bounded worker pool,
// and memoizes every unique session in one process-wide cache shared across
// all requests — repeated or overlapping campaigns simulate each session
// exactly once.
//
//	pes-serve -addr :8080 -parallel 8
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/campaigns -d '{"apps":["cnn"],"schedulers":["EBS","PES"]}'
//	curl -s localhost:8080/v1/campaigns/c0001
//	curl -s localhost:8080/v1/campaigns/c0001/results
//	curl -s 'localhost:8080/v1/campaigns/c0001/results?scheduler=PES&format=ndjson'
//	curl -s localhost:8080/v1/figures/fig11
//
// The same binary scales out to an elastic cluster: workers serve the shard
// API, a coordinator shards campaigns across them by consistent hashing on
// the session memo key and merges the results byte-identically to in-process
// execution. Membership is dynamic — workers join by registering with the
// coordinator (-coordinator) or through the static -workers seed, are
// health-checked over their /healthz, can be listed and removed at
// /v1/cluster/workers, and idle workers steal queued work from slow ones.
// If every worker dies, the coordinator runs remaining sessions in-process
// instead of failing the campaign. Every process must share the training
// flags (-train, -traces, -seed) so the workers' trained predictors match
// the coordinator's.
//
//	pes-serve -cluster -addr :8080 &
//	pes-serve -worker -addr :9001 -coordinator localhost:8080 &
//	pes-serve -worker -addr :9002 -coordinator localhost:8080 &
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("pes-serve: %v", err)
	}
}

// serveConfig is the validated flag state of one invocation.
type serveConfig struct {
	addr        string
	jobs        int
	worker      bool
	workers     []string
	clusterMode bool
	coordinator string
	advertise   string
	storeDir    string
	storeSync   int
	drain       time.Duration
	logFormat   string
	debugAddr   string
	chaos       chaos.Config
	exp         experiments.Config
}

// defaultAdvertise derives the address other processes reach this worker
// at: a bare ":port" listen address advertises localhost.
func defaultAdvertise(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "localhost" + addr
	}
	return addr
}

// parseArgs parses and validates the command line; flag usage and parse
// errors go to stderr.
func parseArgs(args []string, stderr io.Writer) (serveConfig, error) {
	fs := flag.NewFlagSet("pes-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	traces := fs.Int("traces", 3, "evaluation traces per application (figure endpoints)")
	train := fs.Int("train", 8, "training traces per seen application")
	seed := fs.Int64("seed", 1, "harness seed")
	parallel := fs.Int("parallel", 0, "simulation worker-pool size (0 = number of CPUs)")
	jobs := fs.Int("jobs", 2, "campaigns executed concurrently")
	cacheMax := fs.Int("cache-max-entries", 0, "LRU bound on the session memo cache and artifact store (0 = unbounded)")
	worker := fs.Bool("worker", false, "run as a cluster worker (serve the shard API instead of the campaign API)")
	workers := fs.String("workers", "", "comma-separated cluster worker addresses (host:port) statically seeding the membership (empty = in-process execution unless -cluster)")
	clusterMode := fs.Bool("cluster", false, "run as a cluster coordinator even with no static -workers (workers join via -coordinator registration)")
	coordinator := fs.String("coordinator", "", "coordinator URL this worker registers with on startup (worker mode only)")
	advertise := fs.String("advertise", "", "address the coordinator reaches this worker at (default: derived from -addr)")
	storeDir := fs.String("store", "", "persistent store directory: session results and trained models survive restarts (empty = in-memory only; one process per directory)")
	storeSync := fs.Int("store-sync", 0, "fsync the -store log every n record writes; campaign terminal states always fsync when set (0 = rely on the OS page cache)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown deadline for running campaigns when -store journals them; unfinished campaigns resume on the next boot")
	logFormat := fs.String("log-format", "text", "structured log format, text or json (logs go to stderr; stdout stays the human banner channel)")
	debugAddr := fs.String("debug-addr", "", "listen address for the pprof/expvar debug server (empty = disabled; bind loopback only, profiles stop the world)")
	chaosSpec := fs.String("chaos", "", "deterministic fault-injection spec for resilience testing, e.g. seed=1,fault=0.05,torn=0.02,latency=0.1,latency_max=20ms,ping=0.05,short_write=0.01 (empty = off; never set in production)")
	if err := fs.Parse(args); err != nil {
		return serveConfig{}, err
	}
	chaosCfg, err := chaos.ParseSpec(*chaosSpec)
	if err != nil {
		return serveConfig{}, fmt.Errorf("-chaos: %w", err)
	}
	if *addr == "" {
		return serveConfig{}, fmt.Errorf("-addr must not be empty")
	}
	if *traces < 1 || *train < 1 {
		return serveConfig{}, fmt.Errorf("-traces and -train must be at least 1")
	}
	if *parallel < 0 {
		return serveConfig{}, fmt.Errorf("-parallel must not be negative")
	}
	if *jobs < 1 {
		return serveConfig{}, fmt.Errorf("-jobs must be at least 1")
	}
	if *cacheMax < 0 {
		return serveConfig{}, fmt.Errorf("-cache-max-entries must not be negative")
	}
	if *storeSync < 0 {
		return serveConfig{}, fmt.Errorf("-store-sync must not be negative")
	}
	if *storeSync > 0 && *storeDir == "" {
		return serveConfig{}, fmt.Errorf("-store-sync requires -store")
	}
	if *drain <= 0 {
		return serveConfig{}, fmt.Errorf("-drain must be positive")
	}
	if *logFormat != "text" && *logFormat != "json" {
		return serveConfig{}, fmt.Errorf("-log-format must be text or json, got %q", *logFormat)
	}
	if *worker && *workers != "" {
		return serveConfig{}, fmt.Errorf("-worker and -workers are mutually exclusive (a process is either a worker or a coordinator)")
	}
	if *worker && *clusterMode {
		return serveConfig{}, fmt.Errorf("-worker and -cluster are mutually exclusive (a process is either a worker or a coordinator)")
	}
	if *coordinator != "" && !*worker {
		return serveConfig{}, fmt.Errorf("-coordinator requires -worker (only workers register with a coordinator)")
	}
	if *advertise != "" && *coordinator == "" {
		return serveConfig{}, fmt.Errorf("-advertise requires -coordinator (it is the address sent at registration)")
	}
	var workerList []string
	if *workers != "" {
		for _, w := range strings.Split(*workers, ",") {
			w = strings.TrimSpace(w)
			if w == "" {
				return serveConfig{}, fmt.Errorf("-workers contains an empty address")
			}
			workerList = append(workerList, w)
		}
	}
	adv := *advertise
	if adv == "" {
		adv = defaultAdvertise(*addr)
	}
	cfg := experiments.DefaultConfig()
	cfg.EvalTracesPerApp = *traces
	cfg.TrainTracesPerApp = *train
	cfg.Seed = *seed
	cfg.Parallel = *parallel
	cfg.CacheMaxEntries = *cacheMax
	return serveConfig{
		addr:        *addr,
		jobs:        *jobs,
		worker:      *worker,
		workers:     workerList,
		clusterMode: *clusterMode,
		coordinator: *coordinator,
		advertise:   adv,
		storeDir:    *storeDir,
		storeSync:   *storeSync,
		drain:       *drain,
		logFormat:   *logFormat,
		debugAddr:   *debugAddr,
		chaos:       chaosCfg,
		exp:         cfg,
	}, nil
}

// newLogger builds the process logger for -log-format. Structured logs go to
// stderr so stdout stays the human banner/result channel; json makes every
// record one machine-parsable line for log shippers.
func newLogger(format string, stderr io.Writer) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(stderr, nil))
	}
	return slog.New(slog.NewTextHandler(stderr, nil))
}

// startDebug serves pprof and expvar on their own opt-in listener, never on
// the service port: profiles can stop the world and must not be reachable by
// campaign clients.
func startDebug(addr string, logger *slog.Logger) {
	if addr == "" {
		return
	}
	go func() {
		logger.Info("debug listener serving pprof and expvar", "addr", addr)
		if err := obs.ServeDebug(addr); err != nil {
			logger.Warn("debug listener failed", "addr", addr, "error", err)
		}
	}()
}

// run is the testable body of the command, factored like pes-sim and
// pes-experiments: flag handling and validation are separable from the
// blocking serve loop, and all human-readable output flows through the
// writers.
func run(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		return err
	}
	logger := newLogger(cfg.logFormat, stderr)
	if cfg.worker {
		return serveWorker(cfg, stdout, logger)
	}
	return serve(cfg, stdout, logger)
}

// listenUntilSignal serves handler on addr and blocks until SIGINT or
// SIGTERM triggers a graceful shutdown (the shared tail of both roles).
func listenUntilSignal(addr string, handler http.Handler, stdout io.Writer, shutdownMsg string) error {
	httpSrv := obs.NewHTTPServer(addr, handler)
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(stdout, shutdownMsg)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}()
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// registerLoop announces the worker to the coordinator: immediately, then
// periodically — registration is idempotent, so re-announcing heals both a
// restarted coordinator and a membership entry marked unhealthy while this
// worker was briefly unreachable. Re-announcement paces itself: a steady
// 15s heartbeat while registered, jittered exponential backoff (1s doubling
// to 60s) while the coordinator is unreachable — a coordinator rebooting
// under a large worker fleet sees staggered re-registrations instead of a
// synchronized stampede every 15s. The returned stop function ends the loop
// and deregisters (best effort).
func registerLoop(coordinator, advertise string, stdout io.Writer) (stop func()) {
	base := cluster.BaseURL(coordinator)
	client := &http.Client{Timeout: 5 * time.Second}
	body, _ := json.Marshal(map[string]string{"addr": advertise})
	announce := func() bool {
		resp, err := client.Post(base+"/v1/cluster/workers", "application/json", bytes.NewReader(body))
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return resp.StatusCode == http.StatusOK
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		const (
			steady      = 15 * time.Second
			backoffBase = time.Second
			backoffMax  = time.Minute
		)
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		backoff := backoffBase
		registered := false
		for {
			var wait time.Duration
			if announce() {
				if !registered {
					registered = true
					fmt.Fprintf(stdout, "pes-serve: registered %s with coordinator %s\n", advertise, coordinator)
				}
				backoff = backoffBase
				wait = steady
			} else {
				registered = false
				wait = backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
				backoff *= 2
				if backoff > backoffMax {
					backoff = backoffMax
				}
			}
			select {
			case <-done:
				return
			case <-time.After(wait):
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		req, err := http.NewRequest(http.MethodDelete, base+"/v1/cluster/workers?addr="+url.QueryEscape(advertise), nil)
		if err != nil {
			return
		}
		if resp, err := client.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
	}
}

// newInjector builds the process-wide fault injector when -chaos selects
// any faults, announcing it loudly: a production process with chaos enabled
// should be impossible to miss in the logs.
func newInjector(cfg serveConfig, stdout io.Writer) *chaos.Injector {
	if !cfg.chaos.Enabled() {
		return nil
	}
	fmt.Fprintf(stdout, "pes-serve: CHAOS ENABLED (%+v) — injected faults ahead, do not trust this process with real work\n", cfg.chaos)
	return chaos.New(cfg.chaos)
}

// openPersistentStore opens the -store directory when one is configured,
// applying the -store-sync fsync cadence and (resilience testing only) the
// chaos file wrapper, and reports the recovery outcome; an empty dir means
// in-memory only (nil store).
func openPersistentStore(cfg serveConfig, in *chaos.Injector, stdout io.Writer) (*store.Store, error) {
	if cfg.storeDir == "" {
		return nil, nil
	}
	var opts []store.Option
	if cfg.storeSync > 0 {
		opts = append(opts, store.WithSyncEvery(cfg.storeSync))
	}
	if in != nil {
		opts = append(opts, store.WithFileWrapper(in.WrapFile))
	}
	ps, err := store.Open(cfg.storeDir, opts...)
	if err != nil {
		return nil, fmt.Errorf("opening -store: %w", err)
	}
	st := ps.Stats()
	sync := "no fsync"
	if cfg.storeSync > 0 {
		sync = fmt.Sprintf("fsync every %d records", cfg.storeSync)
	}
	fmt.Fprintf(stdout, "pes-serve: persistent store %s: %d records recovered (%d corrupt skipped, %d torn bytes dropped; %s)\n",
		cfg.storeDir, st.Recovered, st.CorruptRecords, st.TornBytes, sync)
	return ps, nil
}

// serveWorker trains the worker harness and serves the cluster shard API on
// cfg.addr until a signal stops it, registering with the coordinator when
// one is configured. Workers expose the same /metrics surface as the
// coordinator so a scrape job can cover the whole cluster uniformly.
func serveWorker(cfg serveConfig, stdout io.Writer, logger *slog.Logger) error {
	in := newInjector(cfg, stdout)
	ps, err := openPersistentStore(cfg, in, stdout)
	if err != nil {
		return err
	}
	if ps != nil {
		cfg.exp.Store = ps
		defer ps.Close()
	}
	fmt.Fprintf(stdout, "pes-serve: training the predictor (%d traces/app)...\n", cfg.exp.TrainTracesPerApp)
	w, err := cluster.NewWorker(cfg.exp)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	w.Setup().Runner.RegisterMetrics(reg)
	if in != nil {
		obs.Snapshot(reg, in.Stats)
	}
	mux := http.NewServeMux()
	mux.Handle("/", w.Handler())
	mux.Handle("GET /metrics", reg.Handler())
	startDebug(cfg.debugAddr, logger)
	fmt.Fprintf(stdout, "pes-serve: worker listening on %s (%d simulation workers)\n",
		cfg.addr, w.Setup().Runner.Workers())
	var stopReg func()
	if cfg.coordinator != "" {
		stopReg = registerLoop(cfg.coordinator, cfg.advertise, stdout)
	}
	err = listenUntilSignal(cfg.addr, mux, stdout, "pes-serve: worker shutting down")
	if stopReg != nil {
		stopReg()
	}
	if err != nil {
		return err
	}
	st := w.Stats()
	fmt.Fprintf(stdout, "pes-serve: worker served %d sessions (%d simulated, %d from cache, %d from store, %d evicted)\n",
		st.Sessions, st.UniqueRuns, st.CacheHits, st.StoreHits, st.CacheEvictions)
	if in != nil {
		fmt.Fprintf(stdout, "pes-serve: chaos injected: %s\n", in.Stats().Summary())
	}
	return nil
}

// serve trains the harness, listens on cfg.addr, and blocks until SIGINT or
// SIGTERM triggers a graceful shutdown. With cfg.workers or -cluster set,
// campaigns are sharded across the (elastic) cluster; otherwise they
// execute in-process.
func serve(cfg serveConfig, stdout io.Writer, logger *slog.Logger) error {
	in := newInjector(cfg, stdout)
	ps, err := openPersistentStore(cfg, in, stdout)
	if err != nil {
		return err
	}
	if ps != nil {
		cfg.exp.Store = ps
		defer ps.Close()
	}
	fmt.Fprintf(stdout, "pes-serve: training the predictor (%d traces/app)...\n", cfg.exp.TrainTracesPerApp)
	srvCfg := server.Config{Experiments: cfg.exp, JobWorkers: cfg.jobs, DrainTimeout: cfg.drain, Logger: logger}
	var coord *cluster.Coordinator
	if len(cfg.workers) > 0 || cfg.clusterMode {
		var err error
		clCfg := cluster.Config{Workers: cfg.workers, Logger: logger}
		if in != nil {
			clCfg.Transport = in.WrapTransport(cluster.NewHTTPTransport())
		}
		coord, err = cluster.New(clCfg)
		if err != nil {
			return err
		}
		srvCfg.Cluster = coord
	}
	svc, err := server.New(srvCfg)
	if err != nil {
		if coord != nil {
			coord.Close()
		}
		return err
	}
	if in != nil {
		obs.Snapshot(svc.Metrics(), in.Stats)
	}
	startDebug(cfg.debugAddr, logger)
	if n := svc.Resumed(); n > 0 {
		fmt.Fprintf(stdout, "pes-serve: resumed %d journaled campaign(s); completed sessions replay from the store\n", n)
	}

	if coord != nil {
		seed := "none"
		if len(cfg.workers) > 0 {
			seed = strings.Join(cfg.workers, ", ")
		}
		fmt.Fprintf(stdout, "pes-serve: coordinator listening on %s (static workers: %s; registration at /v1/cluster/workers; %d campaign workers)\n",
			cfg.addr, seed, cfg.jobs)
	} else {
		fmt.Fprintf(stdout, "pes-serve: listening on %s (%d simulation workers, %d campaign workers)\n",
			cfg.addr, svc.Setup().Runner.Workers(), cfg.jobs)
	}
	shutdownMsg := "pes-serve: shutting down (queued campaigns are canceled, running ones finish)"
	if ps != nil {
		shutdownMsg = fmt.Sprintf("pes-serve: draining (running campaigns get %s; unfinished ones stay journaled and resume on the next boot)", cfg.drain)
	}
	err = listenUntilSignal(cfg.addr, svc.Handler(), stdout, shutdownMsg)
	svc.Close()
	if coord != nil {
		coord.Close()
	}
	if err != nil {
		return err
	}
	st := svc.Stats()
	fmt.Fprintf(stdout, "pes-serve: served %d sessions (%d simulated, %d from cache, %d from store; %d solves)\n",
		st.Sessions, st.UniqueRuns, st.CacheHits, st.StoreHits, st.Solver.Solves)
	if in != nil {
		fmt.Fprintf(stdout, "pes-serve: chaos injected: %s\n", in.Stats().Summary())
	}
	return nil
}
