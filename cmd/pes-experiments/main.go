// Command pes-experiments regenerates the tables and figures of the paper's
// evaluation section and prints them as plain-text tables.
//
// Usage:
//
//	pes-experiments                 # run everything (Fig. 2–14, overheads, ablations)
//	pes-experiments -fig fig11      # run a single experiment
//	pes-experiments -traces 5       # more evaluation traces per application
//	pes-experiments -parallel 8     # simulate sessions on 8 workers (0 = NumCPU)
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatalf("pes-experiments: %v", err)
	}
}

// run is the testable body of the command: tables go to stdout, the runner
// statistics line to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pes-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, f := range experiments.Figures() {
		names = append(names, f.Name)
	}
	fig := fs.String("fig", "all", "experiment to run ("+strings.Join(names, ", ")+", all)")
	traces := fs.Int("traces", 3, "evaluation traces per application")
	train := fs.Int("train", 8, "training traces per seen application")
	seed := fs.Int64("seed", 1, "experiment seed")
	parallel := fs.Int("parallel", 0, "simulation worker-pool size (0 = number of CPUs, 1 = serial)")
	debugAddr := fs.String("debug-addr", "", "listen address for a live pprof/expvar debug server during the run (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	figs := experiments.Figures()
	if !strings.EqualFold(*fig, "all") {
		f, err := experiments.LookupFigure(*fig)
		if err != nil {
			return err
		}
		figs = []experiments.Figure{f}
	}
	if *debugAddr != "" {
		go func() {
			if err := obs.ServeDebug(*debugAddr); err != nil {
				fmt.Fprintf(stderr, "pes-experiments: debug listener: %v\n", err)
			}
		}()
	}

	cfg := experiments.DefaultConfig()
	cfg.EvalTracesPerApp = *traces
	cfg.TrainTracesPerApp = *train
	cfg.Seed = *seed
	cfg.Parallel = *parallel

	setup, err := experiments.NewSetup(cfg)
	if err != nil {
		return err
	}

	tables := make([]*experiments.Table, 0, len(figs))
	for _, f := range figs {
		t, err := f.Run(setup)
		if err != nil {
			return err
		}
		tables = append(tables, t)
	}
	for _, t := range tables {
		if err := t.Render(stdout); err != nil {
			return err
		}
	}
	st := setup.Runner.Stats()
	fmt.Fprintf(stderr, "completed %d experiment(s): %d sessions requested, %d simulated on %d worker(s), %d served from cache\n",
		len(tables), st.Sessions, st.UniqueRuns, setup.Runner.Workers(), st.CacheHits)
	return nil
}
