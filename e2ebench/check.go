package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/acmp"
	"repro/internal/artifacts"
	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/server"
	"repro/internal/sessions"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// rowKey identifies one session of a campaign: the fields a results row
// must echo back.
type rowKey struct {
	App       string
	TraceSeed int64
	Scheduler string
	// Threshold is the PES confidence threshold (0 for other schedulers).
	Threshold float64
}

func (k rowKey) String() string {
	return fmt.Sprintf("%s/%d/%s@%g", k.App, k.TraceSeed, k.Scheduler, k.Threshold)
}

// expectedRows lists a campaign's sessions in the order the service returns
// them: per app and trace seed, every scheduler at the default predictor
// configuration, then the swept PES point.
func expectedRows(c server.Campaign) []rowKey {
	base := predictor.DefaultConfig().ConfidenceThreshold
	var keys []rowKey
	for _, app := range c.Apps {
		for _, seed := range c.TraceSeeds {
			for _, s := range c.Schedulers {
				k := rowKey{App: app, TraceSeed: seed, Scheduler: s}
				if s == sessions.PES {
					k.Threshold = base
				}
				keys = append(keys, k)
			}
			for _, th := range c.Sweep.ConfidenceThresholds {
				keys = append(keys, rowKey{App: app, TraceSeed: seed, Scheduler: sessions.PES, Threshold: th})
			}
		}
	}
	return keys
}

// checker re-simulates sessions apart from the service under test: its own
// harness setup (private artifact store, its own trained learner) and
// sessions built straight from a row key.
type checker struct {
	setup *experiments.Setup
	sims  map[rowKey]*engine.Result
}

func newChecker(procs int) (*checker, error) {
	cfg := experiments.DefaultConfig()
	cfg.Parallel = procs
	cfg.Artifacts = artifacts.NewStore()
	setup, err := experiments.NewSetup(cfg)
	if err != nil {
		return nil, err
	}
	return &checker{setup: setup, sims: make(map[rowKey]*engine.Result)}, nil
}

// simulate re-simulates every key not simulated yet.
func (c *checker) simulate(keys []rowKey) error {
	var todo []rowKey
	var batchSessions []batch.Session
	for _, k := range keys {
		if _, ok := c.sims[k]; ok {
			continue
		}
		c.sims[k] = nil // queued; also dedupes keys within this call
		spec, err := webapp.ByName(k.App)
		if err != nil {
			return err
		}
		cfg := predictor.DefaultConfig()
		if k.Threshold != 0 {
			cfg.ConfidenceThreshold = k.Threshold
		}
		sess, err := sessions.New(sessions.Spec{
			Platform:  acmp.Exynos5410(),
			Trace:     c.setup.Artifacts.Trace(spec, k.TraceSeed, trace.PurposeEval, trace.Options{}),
			Scheduler: k.Scheduler,
			Learner:   c.setup.Learner,
			Predictor: cfg,
			Artifacts: c.setup.Artifacts,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		todo = append(todo, k)
		batchSessions = append(batchSessions, sess)
	}
	results, err := c.setup.Runner.Run(batchSessions)
	if err != nil {
		return err
	}
	for i, k := range todo {
		c.sims[k] = results[i]
	}
	return nil
}

// decodeRows decodes a results body: NDJSON rows or the JSON document.
func decodeRows(body []byte, ndjson bool) ([]server.ResultRow, error) {
	if !ndjson {
		var doc struct {
			Rows []server.ResultRow `json:"rows"`
		}
		err := json.Unmarshal(body, &doc)
		return doc.Rows, err
	}
	var rows []server.ResultRow
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var row server.ResultRow
		if err := dec.Decode(&row); errors.Is(err, io.EOF) {
			return rows, nil
		} else if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
}

// compareRows checks served rows against the expected keys and their
// re-simulated results on every deterministic output: total energy,
// violations, event count, mispredictions and solver nodes. Solver wall
// time is host time and is not compared.
func compareRows(rows []server.ResultRow, want []rowKey, sims map[rowKey]*engine.Result) error {
	if len(rows) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(rows), len(want))
	}
	for i, row := range rows {
		k := want[i]
		got := rowKey{App: row.App, TraceSeed: row.TraceSeed, Scheduler: row.Scheduler, Threshold: row.ConfidenceThreshold}
		if got != k {
			return fmt.Errorf("row %d is %s, want %s", i, got, k)
		}
		g, w := row.Result, sims[k]
		if g == nil || w == nil {
			return fmt.Errorf("row %d (%s) has no result", i, k)
		}
		switch {
		case g.TotalEnergyMJ != w.TotalEnergyMJ:
			return fmt.Errorf("%s: energy %v mJ, re-simulation %v mJ", k, g.TotalEnergyMJ, w.TotalEnergyMJ)
		case g.Violations != w.Violations:
			return fmt.Errorf("%s: %d violations, re-simulation %d", k, g.Violations, w.Violations)
		case len(g.Outcomes) != len(w.Outcomes):
			return fmt.Errorf("%s: %d events, re-simulation %d", k, len(g.Outcomes), len(w.Outcomes))
		case g.Mispredictions != w.Mispredictions:
			return fmt.Errorf("%s: %d mispredictions, re-simulation %d", k, g.Mispredictions, w.Mispredictions)
		case g.Solver.Nodes != w.Solver.Nodes:
			return fmt.Errorf("%s: %d solver nodes, re-simulation %d", k, g.Solver.Nodes, w.Solver.Nodes)
		}
	}
	return nil
}

// headline accumulates the paper's headline quantities (Fig. 11/12) over
// checked rows: PES energy against the Interactive governor's, and the
// share of PES events that miss their QoS target.
type headline struct {
	pesEnergy, interactiveEnergy []float64
	pesViolations, pesEvents     int
}

func (h *headline) add(rows []server.ResultRow) {
	for _, row := range rows {
		switch row.Label {
		case sessions.PES:
			h.pesEnergy = append(h.pesEnergy, row.Result.TotalEnergyMJ)
			h.pesViolations += row.Result.Violations
			h.pesEvents += len(row.Result.Outcomes)
		case sessions.Interactive:
			h.interactiveEnergy = append(h.interactiveEnergy, row.Result.TotalEnergyMJ)
		}
	}
}

// energyPct is PES energy as a percentage of Interactive energy. Each total
// is summed in ascending order, so the same rows give the same bits in
// whatever order the seed submitted their campaigns.
func (h headline) energyPct() float64 {
	interactive := sortedSum(h.interactiveEnergy)
	if interactive == 0 {
		return 0
	}
	return 100 * sortedSum(h.pesEnergy) / interactive
}

func sortedSum(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum
}

// qosViolationPct is the percentage of PES events that missed their target.
func (h headline) qosViolationPct() float64 {
	if h.pesEvents == 0 {
		return 0
	}
	return 100 * float64(h.pesViolations) / float64(h.pesEvents)
}

// checkOutcome is the verdict on a correctness sample.
type checkOutcome struct {
	mismatched int
	firstErr   error
	headline   headline
}

// check decodes each sample body, re-simulates its sessions, and compares.
// campaigns[i] is the campaign that produced bodies[i].
func (c *checker) check(campaigns []server.Campaign, bodies [][]byte, ndjson bool) (checkOutcome, error) {
	var out checkOutcome
	wants := make([][]rowKey, len(campaigns))
	var all []rowKey
	for i, camp := range campaigns {
		wants[i] = expectedRows(camp)
		all = append(all, wants[i]...)
	}
	if err := c.simulate(all); err != nil {
		return out, err
	}
	for i, body := range bodies {
		rows, err := decodeRows(body, ndjson)
		if err == nil {
			err = compareRows(rows, wants[i], c.sims)
		}
		if err != nil {
			out.mismatched++
			if out.firstErr == nil {
				out.firstErr = err
			}
			continue
		}
		out.headline.add(rows)
	}
	return out, nil
}
