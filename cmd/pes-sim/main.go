// Command pes-sim simulates synthetic user sessions of one application
// under a chosen scheduler and prints per-event and aggregate results.
//
// By default it simulates one session. With -sessions N it replays N
// sessions (user seeds seed..seed+N-1) through the concurrent batch runner
// and prints per-session and averaged aggregates:
//
//	pes-sim -app cnn -scheduler ebs
//	pes-sim -app ebay -scheduler pes -sessions 16 -parallel 8
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/acmp"
	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/sessions"
	"repro/internal/trace"
	"repro/internal/webapp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatalf("pes-sim: %v", err)
	}
}

// run is the testable body of the command: the report goes to stdout, flag
// usage and parse errors to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pes-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "cnn", "application name (an unknown name lists the suite)")
	seed := fs.Int64("seed", 42, "user/session seed (first seed with -sessions > 1)")
	scheduler := fs.String("scheduler", "pes", "scheduler: interactive, ondemand, ebs, pes, oracle")
	nSessions := fs.Int("sessions", 1, "number of sessions to simulate (seeds seed..seed+N-1)")
	parallel := fs.Int("parallel", 0, "simulation worker-pool size (0 = number of CPUs, 1 = serial)")
	verbose := fs.Bool("v", false, "print per-event outcomes")
	debugAddr := fs.String("debug-addr", "", "listen address for a live pprof/expvar debug server during the run (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *debugAddr != "" {
		go func() {
			if err := obs.ServeDebug(*debugAddr); err != nil {
				fmt.Fprintf(stderr, "pes-sim: debug listener: %v\n", err)
			}
		}()
	}

	spec, err := webapp.ByName(*app)
	if err != nil {
		return err
	}
	if *nSessions < 1 {
		return fmt.Errorf("-sessions must be at least 1")
	}
	schedName, err := sessions.Canonical(*scheduler)
	if err != nil {
		return err
	}
	platform := acmp.Exynos5410()

	// The PES predictor is trained once and shared read-only by every
	// session.
	var learner *predictor.SequenceLearner
	if schedName == sessions.PES {
		learner, err = predictor.TrainOnSeenApps(6, 1, 1)
		if err != nil {
			return fmt.Errorf("training: %w", err)
		}
	}

	specs := make([]batch.Session, 0, *nSessions)
	for i := 0; i < *nSessions; i++ {
		tr := trace.Generate(spec, *seed+int64(i), trace.Options{})
		sess, err := sessions.New(sessions.Spec{
			Platform:  platform,
			Trace:     tr,
			Scheduler: schedName,
			Learner:   learner,
			Predictor: predictor.DefaultConfig(),
		})
		if err != nil {
			return err
		}
		specs = append(specs, sess)
	}
	runner := batch.NewRunner(*parallel)
	results, err := runner.Run(specs)
	if err != nil {
		return err
	}

	for i, result := range results {
		if *nSessions > 1 {
			fmt.Fprintf(stdout, "--- session seed=%d ---\n", *seed+int64(i))
		}
		printResult(stdout, result, *verbose)
	}
	if *nSessions > 1 {
		printAverages(stdout, results)
		fmt.Fprintf(stdout, "batch: %d sessions on %d worker(s)\n", *nSessions, runner.Workers())
	}
	return nil
}

func printResult(w io.Writer, result *engine.Result, verbose bool) {
	if verbose {
		for _, o := range result.Outcomes {
			status := "ok"
			if o.Violated {
				status = "VIOLATED"
			}
			fmt.Fprintf(w, "#%-3d %-10s trigger=%-10s latency=%-10s qos=%-6s cfg=%-14s spec=%-5v %s\n",
				o.Event.Seq, o.Event.Type, o.Event.Trigger, o.Latency, o.Event.QoSTarget(), o.Config, o.Speculative, status)
		}
	}
	fmt.Fprintf(w, "scheduler=%s app=%s events=%d duration=%s\n", result.Scheduler, result.App, len(result.Outcomes), result.Duration)
	fmt.Fprintf(w, "energy: total=%.1f mJ (busy=%.1f idle=%.1f wasted=%.1f)\n",
		result.TotalEnergyMJ, result.BusyEnergyMJ, result.IdleEnergyMJ, result.WastedEnergyMJ)
	fmt.Fprintf(w, "qos: violations=%d (%.1f%%), mean latency=%s\n",
		result.Violations, 100*result.ViolationRate, result.MeanLatency())
	if result.CommittedFrames+result.Mispredictions > 0 {
		fmt.Fprintf(w, "speculation: committed=%d mispredictions=%d squashed=%d waste=%s\n",
			result.CommittedFrames, result.Mispredictions, result.SquashedFrames, result.MispredictWaste)
	}
}

func printAverages(w io.Writer, results []*engine.Result) {
	var energy, viol float64
	for _, r := range results {
		energy += r.TotalEnergyMJ
		viol += r.ViolationRate
	}
	n := float64(len(results))
	fmt.Fprintf(w, "--- batch average over %d sessions ---\n", len(results))
	fmt.Fprintf(w, "energy: %.1f mJ/session, qos violations: %.1f%%\n", energy/n, 100*viol/n)
}
