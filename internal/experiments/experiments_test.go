package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// The setup is expensive (training + trace generation + simulations), so
// tests share one small instance.
var (
	setupOnce sync.Once
	shared    *Setup
	setupErr  error
)

func testSetup(t *testing.T) *Setup {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment harness tests are slow")
	}
	setupOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.TrainTracesPerApp = 3
		cfg.EvalTracesPerApp = 1
		shared, setupErr = NewSetup(cfg)
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return shared
}

func TestTableRenderAndAccessors(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow("row1", 1, 2)
	tab.AddRow("row2", 3, 4)
	tab.Notes = append(tab.Notes, "a note")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "row1", "row2", "a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
	if got := tab.Column("b"); len(got) != 2 || got[1] != 4 {
		t.Errorf("Column = %v", got)
	}
	if got := tab.Column("missing"); got != nil {
		t.Error("missing column should be nil")
	}
	if _, ok := tab.Row("row2"); !ok {
		t.Error("Row lookup failed")
	}
	if _, ok := tab.Row("nope"); ok {
		t.Error("Row lookup should fail")
	}
}

func TestFig2Shape(t *testing.T) {
	s := testSetup(t)
	tab, err := s.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Fig2 has %d rows, want 3 schemes", len(tab.Rows))
	}
	inter, _ := tab.Row(SchedInteractive)
	oracle, _ := tab.Row(SchedOracle)
	// The oracle must not violate more deadlines nor use more energy than
	// the OS governor on the representative sequence.
	if oracle.Values[4] > inter.Values[4] {
		t.Errorf("oracle violations %v exceed Interactive %v", oracle.Values[4], inter.Values[4])
	}
	if oracle.Values[5] >= inter.Values[5] {
		t.Errorf("oracle energy %v should be below Interactive %v", oracle.Values[5], inter.Values[5])
	}
}

func TestFig3Fractions(t *testing.T) {
	s := testSetup(t)
	tab, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		sum := 0.0
		for _, v := range row.Values {
			if v < 0 || v > 1 {
				t.Fatalf("%s: fraction %v out of range", row.Label, v)
			}
			sum += v
		}
		if sum < 0.98 || sum > 1.02 {
			t.Errorf("%s: fractions sum to %v", row.Label, sum)
		}
	}
}

func TestFig8AccuracyInPlausibleRange(t *testing.T) {
	s := testSetup(t)
	tab, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	row, ok := tab.Row("avg. seen apps")
	if !ok {
		t.Fatal("missing seen average")
	}
	if row.Values[0] < 0.75 || row.Values[0] > 1 {
		t.Errorf("seen accuracy %v implausible", row.Values[0])
	}
}

func TestFig11And12Shape(t *testing.T) {
	s := testSetup(t)
	e, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	eRow, _ := e.Row("avg. seen apps")
	vRow, _ := v.Row("avg. seen apps")
	// Column order: Interactive, EBS, PES, Oracle.
	if eRow.Values[0] != 100 {
		t.Errorf("Interactive energy should be the 100%% baseline, got %v", eRow.Values[0])
	}
	if !(eRow.Values[3] < eRow.Values[2] && eRow.Values[2] < eRow.Values[0]) {
		t.Errorf("energy ordering should be Oracle < PES < Interactive, got %v", eRow.Values)
	}
	if eRow.Values[2] >= eRow.Values[1]+2 {
		t.Errorf("PES energy %v should not exceed EBS energy %v", eRow.Values[2], eRow.Values[1])
	}
	if !(vRow.Values[3] <= vRow.Values[2] && vRow.Values[2] <= vRow.Values[1]+2) {
		t.Errorf("violation ordering should be Oracle ≤ PES ≤ EBS, got %v", vRow.Values)
	}
}

func TestFig13ParetoIncludesAllSchemes(t *testing.T) {
	s := testSetup(t)
	tab, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("Pareto table has %d rows, want 5", len(tab.Rows))
	}
}

func TestOverheadTable(t *testing.T) {
	s := testSetup(t)
	tab, err := s.OverheadTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("overhead table has %d rows", len(tab.Rows))
	}
	// DVFS and migration overheads are platform constants.
	if r, _ := tab.Row("DVFS transition (µs)"); r.Values[0] != 100 {
		t.Errorf("DVFS overhead %v", r.Values[0])
	}
	if r, _ := tab.Row("core migration (µs)"); r.Values[0] != 20 {
		t.Errorf("migration overhead %v", r.Values[0])
	}
	// The predictor evaluation must be microseconds-scale, not milliseconds.
	if r, _ := tab.Row("predictor evaluation (µs)"); r.Values[0] <= 0 || r.Values[0] > 1000 {
		t.Errorf("predictor evaluation cost %v µs implausible", r.Values[0])
	}
}

func TestUnknownSchedulerRejected(t *testing.T) {
	s := testSetup(t)
	if _, err := s.runScheduler("bogus"); err == nil {
		t.Error("expected error for unknown scheduler")
	}
}

// TestRunnerMemoizesAcrossFigures checks the batch layer underneath the
// harness: figures drawing on the same sessions (Fig. 11, 12, 13 all sweep
// every scheduler) must not re-simulate them.
func TestRunnerMemoizesAcrossFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness tests are slow")
	}
	cfg := DefaultConfig()
	cfg.TrainTracesPerApp = 2
	cfg.EvalTracesPerApp = 1
	s, err := NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig11(); err != nil {
		t.Fatal(err)
	}
	after11 := s.Runner.Stats().UniqueRuns
	if after11 == 0 {
		t.Fatal("Fig11 simulated nothing")
	}
	if _, err := s.Fig12(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig13(); err != nil {
		t.Fatal(err)
	}
	st := s.Runner.Stats()
	// Fig12 adds no schedulers beyond Fig11's four; Fig13 adds only Ondemand.
	extra := st.UniqueRuns - after11
	if want := int64(len(s.evalCorpus())); extra != want {
		t.Errorf("Fig12+Fig13 simulated %d new sessions, want %d (Ondemand only)", extra, want)
	}
	if st.CacheHits == 0 {
		t.Error("expected cache hits across figures")
	}
}

// TestParallelHarnessMatchesSerial runs a small campaign twice — serial and
// on a 4-worker pool — and requires identical figure values: concurrency
// must not change the science.
func TestParallelHarnessMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness tests are slow")
	}
	newSetup := func(workers int) *Setup {
		// Each setup gets its own Config (and so its own fresh Platform):
		// sharing one platform would let the serial run pre-warm lazy state
		// and hide shared-state races from the parallel run.
		cfg := DefaultConfig()
		cfg.TrainTracesPerApp = 2
		cfg.EvalTracesPerApp = 1
		cfg.Parallel = workers
		s, err := NewSetup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	parallel := newSetup(4)
	serial := newSetup(1)
	for name, gen := range map[string]func(*Setup) (*Table, error){
		"fig11": (*Setup).Fig11,
		"fig12": (*Setup).Fig12,
	} {
		// Parallel first, so its workers hit any lazily-initialized shared
		// state cold.
		pt, err := gen(parallel)
		if err != nil {
			t.Fatal(err)
		}
		st, err := gen(serial)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Rows) != len(pt.Rows) {
			t.Fatalf("%s: row count differs", name)
		}
		for i, sr := range st.Rows {
			pr := pt.Rows[i]
			if sr.Label != pr.Label {
				t.Fatalf("%s: row %d label %q vs %q", name, i, sr.Label, pr.Label)
			}
			for j, sv := range sr.Values {
				if sv != pr.Values[j] {
					t.Errorf("%s: %s[%d] = %v serial vs %v parallel", name, sr.Label, j, sv, pr.Values[j])
				}
			}
		}
	}
}
