package pes

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// smallServer builds a service instance with a cheap training configuration.
func smallServer(t *testing.T) *Server {
	t.Helper()
	if testing.Short() {
		t.Skip("service e2e tests train a predictor")
	}
	cfg := ExperimentConfig{TrainTracesPerApp: 2, EvalTracesPerApp: 1, Parallel: 2}
	s, err := NewServer(ServerConfig{Experiments: cfg, JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postCampaign(t *testing.T, base string, c Campaign) CampaignStatus {
	t.Helper()
	body, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d, want 202", resp.StatusCode)
	}
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func awaitCampaign(t *testing.T, base, id string) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(base + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st CampaignStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.Status {
		case "queued", "running":
			if time.Now().After(deadline) {
				t.Fatalf("campaign %s still %s (%d/%d) at deadline", id, st.Status, st.Completed, st.Sessions)
			}
			time.Sleep(10 * time.Millisecond)
		default:
			return st
		}
	}
}

// rawResults fetches a campaign's results keeping each per-session result as
// raw JSON, for byte-level comparison.
type rawResults struct {
	ID   string `json:"id"`
	Rows []struct {
		App       string          `json:"app"`
		TraceSeed int64           `json:"trace_seed"`
		Scheduler string          `json:"scheduler"`
		Result    json.RawMessage `json:"result"`
	} `json:"rows"`
	Solver SolverCounts `json:"solver"`
}

func fetchRawResults(t *testing.T, base, id string) rawResults {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results returned %d, want 200", resp.StatusCode)
	}
	var res rawResults
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// compactEqualResult compares a served result against the encoding of a
// directly computed one, byte for byte: a Result holds no host measurement.
func compactEqualResult(t *testing.T, served json.RawMessage, direct *Result) bool {
	t.Helper()
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(served, want)
}

// campaignSessions builds a plan's runnable sessions through
// CampaignSessions, the builder the server and the cluster workers use.
func campaignSessions(t *testing.T, p *CampaignPlan, x *Experiments) []BatchSession {
	t.Helper()
	sess, err := CampaignSessions(p, x)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestServedCampaignMatchesDirectRunBatch submits a campaign over HTTP,
// polls it to completion, and asserts every served session result is
// byte-identical to a direct RunBatch of the same sessions on a fresh
// serial runner.
func TestServedCampaignMatchesDirectRunBatch(t *testing.T) {
	svc := smallServer(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	campaign := Campaign{
		Apps:       []string{"cnn"},
		TraceSeeds: []int64{7, 8},
		Schedulers: []string{"EBS", "PES"},
	}
	st := postCampaign(t, ts.URL, campaign)
	if st.Sessions != 4 {
		t.Fatalf("campaign expanded to %d sessions, want 4", st.Sessions)
	}
	final := awaitCampaign(t, ts.URL, st.ID)
	if final.Status != "done" {
		t.Fatalf("campaign ended %s: %s", final.Status, final.Error)
	}
	if final.Completed != final.Sessions {
		t.Errorf("progress reports %d/%d sessions", final.Completed, final.Sessions)
	}

	res := fetchRawResults(t, ts.URL, st.ID)
	if len(res.Rows) != 4 {
		t.Fatalf("served %d rows, want 4", len(res.Rows))
	}
	// The campaign includes PES sessions, so the aggregated solver
	// statistics must report real optimization work.
	if res.Solver.Solves == 0 || res.Solver.Nodes == 0 {
		t.Errorf("campaign solver aggregate is empty: %+v", res.Solver)
	}

	// The same campaign expanded and simulated directly, serially, on a
	// fresh runner — sharing only the trained learner.
	plan, err := NewCampaign(campaign, svc.Setup())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunBatch(1, campaignSessions(t, plan, svc.Setup()))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		if m := plan.Meta[i]; row.App != m.App || row.TraceSeed != m.TraceSeed || row.Scheduler != m.Scheduler {
			t.Fatalf("row %d is %s/%d/%s, want %s/%d/%s",
				i, row.App, row.TraceSeed, row.Scheduler, m.App, m.TraceSeed, m.Scheduler)
		}
		if !compactEqualResult(t, row.Result, direct[i]) {
			t.Errorf("row %d (%s/%d/%s): served result differs from direct RunBatch",
				i, row.App, row.TraceSeed, row.Scheduler)
		}
	}
}

// TestConcurrentCampaignsShareMemoCache submits two overlapping campaigns
// from concurrent clients and asserts (a) each unique session was simulated
// exactly once — the overlap is served from the shared cache — and (b) both
// served result sets are byte-identical to serial direct runs.
func TestConcurrentCampaignsShareMemoCache(t *testing.T) {
	svc := smallServer(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// The campaigns overlap on seed 2: one app, seeds {1,2} and {2,3}, two
	// schedulers each — 8 sessions total, 6 unique.
	campaigns := []Campaign{
		{Apps: []string{"cnn"}, TraceSeeds: []int64{1, 2}, Schedulers: []string{"Interactive", "Ondemand"}},
		{Apps: []string{"cnn"}, TraceSeeds: []int64{2, 3}, Schedulers: []string{"Interactive", "Ondemand"}},
	}
	before := svc.Stats()
	if before.Sessions != 0 {
		t.Fatalf("dedicated server already served %d sessions", before.Sessions)
	}

	ids := make([]string, len(campaigns))
	var wg sync.WaitGroup
	for i, c := range campaigns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := postCampaign(t, ts.URL, c)
			final := awaitCampaign(t, ts.URL, st.ID)
			if final.Status != "done" {
				t.Errorf("campaign %s ended %s: %s", st.ID, final.Status, final.Error)
				return
			}
			ids[i] = st.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	stats := svc.Stats()
	if stats.Sessions != 8 {
		t.Errorf("server resolved %d sessions, want 8", stats.Sessions)
	}
	if stats.UniqueRuns != 6 {
		t.Errorf("server simulated %d unique sessions, want 6 (the seed-2 overlap must hit the cache)", stats.UniqueRuns)
	}
	if stats.CacheHits != 2 {
		t.Errorf("cache hits = %d, want 2", stats.CacheHits)
	}

	// Both campaigns' served results must equal a serial direct run.
	for i, c := range campaigns {
		res := fetchRawResults(t, ts.URL, ids[i])
		plan, err := NewCampaign(c, svc.Setup())
		if err != nil {
			t.Fatal(err)
		}
		direct, err := RunBatch(1, campaignSessions(t, plan, svc.Setup()))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(direct) {
			t.Fatalf("campaign %d: %d rows, want %d", i, len(res.Rows), len(direct))
		}
		for j, row := range res.Rows {
			if !compactEqualResult(t, row.Result, direct[j]) {
				t.Errorf("campaign %d row %d (%s/%d/%s): served result differs from serial direct run",
					i, j, row.App, row.TraceSeed, row.Scheduler)
			}
		}
	}
}
