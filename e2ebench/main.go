// Command e2ebench is the repository's end-to-end benchmark. One invocation
// runs one workload through the real service path inside one process — a
// campaign server on a loopback listener and, for cluster workloads, a
// coordinator plus two workers on listeners of their own — driven by one
// closed-loop client goroutine that submits a campaign, polls its status
// every millisecond, and reads its results before submitting the next.
//
//	e2ebench -workload fresh-inproc -seed 1 -seconds 30 -trace 0
//
// A run builds the service ten times, five at either end of the run (the
// median build time is setup_s), warms it with one untimed pass over its
// campaign pool, times campaigns for -seconds, then submits one more pass
// over the pool as a correctness sample and compares every result row with
// the benchmark's own re-simulation of that session. A fixed calibration
// kernel, run before every build and after every timed campaign, measures
// how fast the shared host is running at that moment, and the timing
// metrics are scaled to a host of reference speed (see calib.go). The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer ones, from a run whose odd-numbered campaigns are traced
// (see README.md). The run exits non-zero when a sampled row differs from
// its re-simulation.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/server"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"campaign_p50_ms", "ms"},
	{"campaign_p90_ms", "ms"},
	{"sessions_per_s", "sessions/s"},
	{"heap_peak_mb", "MiB"},
	{"pes_energy_vs_interactive_pct", "%"},
	{"pes_qos_violation_pct", "%"},
}

// perLayer are the metrics of a traced run. Times are means: per request
// for the server, per shard for the cluster, per session for the replayed
// engine and scheduler layers.
var perLayer = []metricSpec{
	{"client.campaign_ms", "ms"},
	{"server.polls_per_campaign", "count"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.execute_ms", "ms"},
	{"server.results_ms", "ms"},
	{"server.results_kb", "KiB"},
	{"cluster.shard_rtt_ms", "ms"},
	{"cluster.shard_worker_ms", "ms"},
	{"cluster.shard_wire_ms", "ms"},
	{"cluster.shard_resp_kb", "KiB"},
	{"cluster.sessions_per_shard", "count"},
	{"cluster.retries", "count"},
	{"cluster.steals", "count"},
	{"batch.memo_hit_ratio", "ratio"},
	{"batch.unique_runs_per_campaign", "count"},
	{"artifacts.trace_ms", "ms"},
	{"artifacts.runtime_us", "us"},
	{"engine.interactive.session_us", "us"},
	{"engine.interactive.self_us", "us"},
	{"engine.ondemand.session_us", "us"},
	{"engine.ondemand.self_us", "us"},
	{"engine.ebs.session_us", "us"},
	{"engine.ebs.self_us", "us"},
	{"engine.pes.session_us", "us"},
	{"engine.pes.self_us", "us"},
	{"engine.oracle.session_us", "us"},
	{"engine.oracle.self_us", "us"},
	{"core.pes.observe_us", "us"},
	{"core.pes.plan_self_us", "us"},
	{"optimizer.pes.solve_us", "us"},
	{"optimizer.pes.solves", "count"},
	{"optimizer.pes.plan_cache_hit_ratio", "ratio"},
	{"ilp.pes.nodes_per_solve", "count"},
	{"sched.oracle.plan_self_us", "us"},
	{"optimizer.oracle.solve_us", "us"},
	{"ilp.oracle.nodes_per_solve", "count"},
	{"sched.reactive.config_us", "us"},
	{"predictor.accuracy", "ratio"},
	{"engine.result_encode_us", "us"},
	{"engine.result_kb", "KiB"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
	{"runtime.gc_cpu_pct", "%"},
	{"tracing_overhead_pct", "%"},
	{"host.calibration_us", "us"},
}

// setups is how many times a run builds the service to measure setup_s:
// half before the warm-up, the last of which serves the run, and half after
// the correctness sample. A build lasts well under a second, and the host's
// speed drifts over tens of seconds, so builds at one end of the run alone
// would sample the host at one moment where the timed metrics average 30 s.
const setups = 10

// calPerSetup is how many calibration samples precede each set-up build.
// Their median is the host's speed for that build: the host switches speed
// within seconds, so a sample taken elsewhere in the run may not apply.
const calPerSetup = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fresh-inproc or repeat-cluster")
	seed := fs.Int64("seed", 1, "input seed: orders the workload's campaign pool")
	seconds := fs.Int("seconds", 30, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "0 = report end-to-end metrics, 1 = trace odd campaigns and report per-layer metrics")
	campaigns := fs.Int("campaigns", 0, "time exactly this many campaigns instead of -seconds (0 = use -seconds)")
	warmup := fs.Int("warmup", -1, "untimed warm-up campaigns (-1 = one pass over the workload's pool)")
	sample := fs.Int("sample", -1, "campaigns in the correctness sample (-1 = one pass over the workload's pool)")
	scratch := fs.String("dir", ".bench_build", "directory under which the run makes, and removes, its scratch directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds < 1 || *campaigns < 0 || *sample == 0 {
		return fmt.Errorf("-seconds must be positive, -sample not 0 and -campaigns not negative")
	}
	if *warmup < 0 {
		*warmup = w.pool
	}
	if *sample < 0 {
		*sample = w.pool
	}
	traced := *traceFlag == 1
	order := w.schedule(*seed)

	procs := min(2, runtime.NumCPU())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*scratch, "e2ebench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	t := newTracer()
	cal := newCalibrator()
	var builds buildTimes
	h, err := timeSetups(w, t, cal, procs, setups/2, &builds)
	if err != nil {
		return fmt.Errorf("setting up %s: %w", w.name, err)
	}
	defer h.close()
	cl := newClient(h.url, w.ndjson, t)
	defer cl.close()

	// next indexes the run's campaign order across the three phases, so
	// each phase continues the cycle where the previous one stopped.
	next := 0
	for ; next < *warmup; next++ {
		if _, err := cl.run(order.campaign(next), false); err != nil {
			return fmt.Errorf("warm-up campaign %d: %w", next, err)
		}
	}

	var before healthz
	if traced {
		if before, err = cl.health(); err != nil {
			return err
		}
	}
	tm := timePhase(cl, t, cal, order, next, *seconds, *campaigns, traced, stderr)
	next += tm.attempted
	if traced {
		after, err := cl.health()
		if err != nil {
			return err
		}
		t.addHealth(before, after, tm.attempted)
		t.add("runtime.gc_cpu_pct", 100*ratio(tm.gcCPU, tm.cpu))
		plain := ratio(float64(tm.modeSessions[0]), tm.modeTime[0].Seconds())
		if withTrace := ratio(float64(tm.modeSessions[1]), tm.modeTime[1].Seconds()); plain > 0 {
			t.add("tracing_overhead_pct", 100*(plain-withTrace)/plain)
		}
		t.add("cluster.shard_wire_ms", t.mean("cluster.shard_rtt_ms")-t.mean("cluster.shard_worker_ms"))
	}

	// Correctness sample: the campaigns that follow the timed phase — by
	// default one full pass over the pool — checked against re-simulation.
	attempted, failed := tm.attempted, tm.failed
	var sampled []server.Campaign
	var bodies [][]byte
	for k := 0; k < *sample; k, next = k+1, next+1 {
		c := order.campaign(next)
		attempted++
		if _, err := cl.run(c, false); err != nil {
			failed++
			fmt.Fprintf(stderr, "e2ebench: sample campaign %d failed: %v\n", k, err)
			continue
		}
		sampled = append(sampled, c)
		bodies = append(bodies, bytes.Clone(cl.body.Bytes()))
	}

	// The other half of the set-up builds, next to the idle measured
	// service, samples the host at this end of the run too.
	extra, err := timeSetups(w, t, cal, procs, setups-setups/2, &builds)
	if err != nil {
		return fmt.Errorf("setting up %s: %w", w.name, err)
	}
	extra.close()

	ck, err := newChecker(procs)
	if err != nil {
		return err
	}
	verdict, err := ck.check(sampled, bodies, w.ndjson)
	if err != nil {
		return err
	}
	failed += verdict.mismatched
	correct := verdict.mismatched == 0 && len(bodies) == *sample
	if verdict.firstErr != nil {
		fmt.Fprintf(stderr, "e2ebench: %d sampled campaign(s) differ from re-simulation; first: %v\n", verdict.mismatched, verdict.firstErr)
	}

	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric)}
	specs := endToEnd
	if traced {
		specs = perLayer
		if err := replay(sampled, ck.setup.Learner, filepath.Join(dir, "replay-store"), t); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		t.add("host.calibration_us", percentile(cal.samples, 50))
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{t.mean(m.name), m.unit}
		}
	} else {
		latencies, rate := tm.scaled()
		values := map[string]float64{
			"setup_s":         percentile(builds.scaled, 50),
			"campaign_p50_ms": percentile(latencies, 50),
			"campaign_p90_ms": percentile(latencies, 90),
			"sessions_per_s":  rate,
			"heap_peak_mb":    tm.heapPeak,

			"pes_energy_vs_interactive_pct": verdict.headline.energyPct(),
			"pes_qos_violation_pct":         verdict.headline.qosViolationPct(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{values[m.name], m.unit}
		}
	}

	fmt.Fprintf(stderr, "e2ebench: %s seed %d: %d timed campaigns (%d failed) in %.1fs; correctness sample %d/%d campaigns match\n",
		w.name, *seed, tm.attempted, tm.failed, tm.elapsed.Seconds(), len(bodies)-verdict.mismatched, *sample)
	fmt.Fprintf(stderr, "  host: calibration kernel median %.1f us (reference %d us); as measured: setup %.4f s, p50 %.4f ms, p90 %.4f ms, %.1f sessions/s\n",
		percentile(cal.samples, 50), calibrationRefUS, percentile(builds.raw, 50),
		percentile(tm.latencies, 50), percentile(tm.latencies, 90), ratio(float64(len(tm.latencies)*sessionsPerCampaign), tm.elapsed.Seconds()))
	for _, m := range specs {
		fmt.Fprintf(stderr, "  %-36s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

// timing is what the timed phase measured.
type timing struct {
	attempted, failed int
	elapsed           time.Duration
	// latencies are the successful campaigns' submit-to-results times (ms);
	// completed are their completion times since the phase began, not
	// counting calibration; slowdowns are the host's slowdowns measured by
	// the calibration sample that followed each.
	latencies []float64
	completed []time.Duration
	slowdowns []float64
	// modeSessions and modeTime split sessions served and client time
	// between untraced (0) and traced (1) campaigns.
	modeSessions [2]int
	modeTime     [2]time.Duration
	heapPeak     float64
	// gcCPU and cpu are the GC and whole-process CPU seconds spent.
	gcCPU, cpu float64
}

// timePhase submits campaigns order[first], order[first+1], … for the given
// number of seconds, or exactly n campaigns when n > 0. In a traced run odd
// campaigns are traced and even ones are not, so both modes meet the same
// host conditions and their throughputs give the tracing overhead. After
// every successful campaign it takes one calibration sample, while the
// service is idle.
func timePhase(cl *client, t *tracer, cal *calibrator, order schedule, first, seconds, n int, traced bool, stderr io.Writer) timing {
	var tm timing
	runtime.GC()
	heap := startHeapSampler()
	gc0, cpu0 := cpuSeconds()
	dur := time.Duration(seconds) * time.Second
	start := time.Now()
	var calibrating time.Duration
	for i := 0; n > 0 && i < n || n == 0 && time.Since(start) < dur; i++ {
		mode := 0
		if traced && i%2 == 1 {
			mode = 1
		}
		t.on.Store(mode == 1)
		begun := time.Now()
		d, err := cl.run(order.campaign(first+i), mode == 1)
		t.on.Store(false)
		tm.attempted++
		if err != nil {
			tm.failed++
			fmt.Fprintf(stderr, "e2ebench: campaign %d failed: %v\n", i, err)
			continue
		}
		tm.latencies = append(tm.latencies, ms(d))
		tm.completed = append(tm.completed, time.Since(start)-calibrating)
		tm.modeSessions[mode] += sessionsPerCampaign
		tm.modeTime[mode] += time.Since(begun)
		calStart := time.Now()
		tm.slowdowns = append(tm.slowdowns, cal.measure(1))
		calibrating += time.Since(calStart)
	}
	tm.elapsed = time.Since(start) - calibrating
	gc1, cpu1 := cpuSeconds()
	tm.gcCPU, tm.cpu = gc1-gc0, cpu1-cpu0
	tm.heapPeak = heap.stop()
	return tm
}

// rateBlock is how many consecutive completed campaigns make one block of
// the timed phase. The default warm-up ends on a pass boundary and both
// pools divide poolSize, so every whole block is whole passes over its
// workload's pool: each does the same work, whatever the seed's order.
const rateBlock = poolSize

// calWindow is how many campaigns on either side of a campaign supply the
// calibration samples whose median is the host's slowdown for it: 33
// samples over a few hundred milliseconds, short next to the seconds for
// which the host keeps one speed. One slowdown per block of rateBlock
// campaigns left p90 and the rate 1.5–2 times as spread across runs.
const calWindow = 16

// scaled returns the campaign latencies and the session rate scaled to the
// reference host. Each campaign's latency is divided by its slowdown, and
// so is its share of the phase's clock, the time since the campaign before
// it completed. The rate is the median, over blocks of rateBlock completed
// campaigns (the last block taking any remainder), of the sessions served
// per second of scaled clock, so that a burst of interference from outside
// the benchmark moves a few blocks, not the median.
func (tm timing) scaled() (latencies []float64, rate float64) {
	n := len(tm.completed)
	var rates []float64
	var prev time.Duration
	var clock float64 // scaled seconds since the block began
	blockStart := 0
	for i := 0; i < n; i++ {
		slow := percentile(tm.slowdowns[max(0, i-calWindow):min(n, i+calWindow+1)], 50)
		latencies = append(latencies, tm.latencies[i]/slow)
		clock += (tm.completed[i] - prev).Seconds() / slow
		prev = tm.completed[i]
		done := i + 1 - blockStart
		if done == rateBlock && n-(i+1) >= rateBlock || i == n-1 {
			rates = append(rates, float64(done*sessionsPerCampaign)/clock)
			blockStart, clock = i+1, 0
		}
	}
	return latencies, percentile(rates, 50)
}

// buildTimes are set-up build times in seconds, as measured and scaled to
// the reference host.
type buildTimes struct{ raw, scaled []float64 }

// timeSetups builds the service from scratch n (≥ 1) times, tearing down
// every build but the last, which it returns running. It appends to times
// each build's time, from the first constructor call until the campaign
// server answers, as measured and divided by the slowdown that calPerSetup
// calibration samples just before the build measured.
func timeSetups(w workload, t *tracer, cal *calibrator, procs, n int, times *buildTimes) (*harness, error) {
	for k := 0; ; k++ {
		runtime.GC()
		slow := cal.measure(calPerSetup)
		start := time.Now()
		h, err := startHarness(w, t, procs)
		if err != nil {
			return nil, err
		}
		d := time.Since(start).Seconds()
		times.raw = append(times.raw, d)
		times.scaled = append(times.scaled, d/slow)
		if k == n-1 {
			return h, nil
		}
		h.close()
	}
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}
