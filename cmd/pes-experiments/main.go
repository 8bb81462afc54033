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
	"repro/internal/sched"
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
	fig := fs.String("fig", "all", "experiment to run (fig2, fig3, table1, fig8, fig9, fig10, fig11, fig12, fig13, fig14, overhead, ablation, tx2, all)")
	traces := fs.Int("traces", 3, "evaluation traces per application")
	train := fs.Int("train", 8, "training traces per seen application")
	seed := fs.Int64("seed", 1, "experiment seed")
	parallel := fs.Int("parallel", 0, "simulation worker-pool size (0 = number of CPUs, 1 = serial)")
	oracle := fs.String("oracle", "", "oracle solver version: v2 (default, fast path) or v1 (paper-exact reference figures)")
	debugAddr := fs.String("debug-addr", "", "listen address for a live pprof/expvar debug server during the run (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	oracleVer, err := sched.ParseOracleVersion(*oracle)
	if err != nil {
		return err
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
	cfg.OracleVersion = oracleVer

	setup, err := experiments.NewSetup(cfg)
	if err != nil {
		return err
	}

	var tables []*experiments.Table
	switch strings.ToLower(*fig) {
	case "all":
		tables, err = setup.All()
	case "fig2":
		tables, err = one(setup.Fig2())
	case "fig3":
		tables, err = one(setup.Fig3())
	case "table1":
		tables, err = one(setup.Table1())
	case "fig8":
		tables, err = one(setup.Fig8())
	case "fig9":
		tables, err = one(setup.Fig9())
	case "fig10":
		tables, err = one(setup.Fig10())
	case "fig11":
		tables, err = one(setup.Fig11())
	case "fig12":
		tables, err = one(setup.Fig12())
	case "fig13":
		tables, err = one(setup.Fig13())
	case "fig14":
		tables, err = one(setup.Fig14(nil))
	case "overhead", "sec6.3":
		tables, err = one(setup.OverheadTable())
	case "ablation", "nodom":
		tables, err = one(setup.AblationNoDOM())
	case "tx2", "otherdevice":
		tables, err = one(setup.OtherDeviceTX2())
	default:
		return fmt.Errorf("unknown experiment %q", *fig)
	}
	if err != nil {
		return err
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

func one(t *experiments.Table, err error) ([]*experiments.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*experiments.Table{t}, nil
}
