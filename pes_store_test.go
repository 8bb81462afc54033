package pes

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// storedExpConfig is the cheap harness configuration of the store e2e tests:
// a private artifact store per instance (so nothing leaks through the
// process-wide artifacts.Default between the "processes") layered over the
// shared persistent store.
func storedExpConfig(ps *PersistentStore) ExperimentConfig {
	return ExperimentConfig{
		TrainTracesPerApp: 2,
		EvalTracesPerApp:  1,
		Parallel:          2,
		Artifacts:         NewArtifactStore(),
		Store:             ps,
	}
}

// TestServerRestartWarmStart is the restart e2e: a campaign runs against a
// server on a store directory, the server goes away, a fresh server opens
// the same directory, and the repeated campaign must be served entirely
// from the store — zero re-simulations, no re-training, and result rows
// byte-identical to the cold run (solver wall times included: the stored
// bytes are the cold run's own).
func TestServerRestartWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e tests train a predictor")
	}
	dir := t.TempDir()
	campaign := Campaign{Apps: []string{"cnn", "ebay"}, TraceSeeds: []int64{1, 2}}

	// Cold "process": empty store directory, full training + simulation.
	psCold, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldCfg := storedExpConfig(psCold)
	coldSrv, err := NewServer(ServerConfig{Experiments: coldCfg, JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	coldTS := httptest.NewServer(coldSrv.Handler())
	st := postCampaign(t, coldTS.URL, campaign)
	if final := awaitCampaign(t, coldTS.URL, st.ID); final.Status != "done" {
		t.Fatalf("cold campaign ended %s: %s", final.Status, final.Error)
	}
	coldRes := fetchRawResults(t, coldTS.URL, st.ID)
	coldStats := coldSrv.Stats()
	if coldStats.UniqueRuns == 0 || coldStats.StoreHits != 0 {
		t.Fatalf("cold stats: %+v", coldStats)
	}
	if coldCfg.Artifacts.Stats().LearnerBuilds != 1 {
		t.Fatalf("cold artifact stats: %+v", coldCfg.Artifacts.Stats())
	}
	// The "process" dies: server and store handle both go away.
	coldTS.Close()
	coldSrv.Close()
	if err := psCold.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm "process": same directory, fresh everything else.
	psWarm, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { psWarm.Close() })
	if rec := psWarm.Stats().Recovered; rec == 0 {
		t.Fatal("warm store recovered no records")
	}
	warmCfg := storedExpConfig(psWarm)
	warmSrv, err := NewServer(ServerConfig{Experiments: warmCfg, JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(warmSrv.Close)
	warmTS := httptest.NewServer(warmSrv.Handler())
	t.Cleanup(warmTS.Close)

	st2 := postCampaign(t, warmTS.URL, campaign)
	if final := awaitCampaign(t, warmTS.URL, st2.ID); final.Status != "done" {
		t.Fatalf("warm campaign ended %s: %s", final.Status, final.Error)
	}
	warmRes := fetchRawResults(t, warmTS.URL, st2.ID)

	// Zero re-simulation, every unique session from the store.
	warmStats := warmSrv.Stats()
	if warmStats.UniqueRuns != 0 {
		t.Errorf("warm server re-simulated %d sessions", warmStats.UniqueRuns)
	}
	if warmStats.StoreHits != coldStats.UniqueRuns {
		t.Errorf("StoreHits = %d, want %d (one per unique cold run)", warmStats.StoreHits, coldStats.UniqueRuns)
	}
	// No re-training: the model came from the store.
	warmArts := warmCfg.Artifacts.Stats()
	if warmArts.LearnerBuilds != 0 || warmArts.LearnerStoreHits != 1 {
		t.Errorf("warm artifact stats: %+v", warmArts)
	}
	// Byte-identical rows, wall times included.
	if len(warmRes.Rows) != len(coldRes.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(warmRes.Rows), len(coldRes.Rows))
	}
	for i := range warmRes.Rows {
		if !bytes.Equal(warmRes.Rows[i].Result, coldRes.Rows[i].Result) {
			t.Errorf("row %d (%s/%d/%s): warm result bytes differ from cold",
				i, warmRes.Rows[i].App, warmRes.Rows[i].TraceSeed, warmRes.Rows[i].Scheduler)
		}
	}
	// The served health payload surfaces the store snapshot.
	resp, err := http.Get(warmTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Stats BatchStats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Stats.Store == nil || h.Stats.Store.Hits == 0 {
		t.Errorf("healthz stats missing store section: %+v", h.Stats.Store)
	}
}

// TestSpillOverWorkerSharesStore covers the cluster half of persistence: a
// coordinator server and an in-process worker share one persistent store.
// The campaign first spills over to the server's own harness (empty
// membership), then — after the worker registers — repeats routed to the
// worker, which must serve every session from the shared store without
// re-simulating and without re-training the learner.
func TestSpillOverWorkerSharesStore(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e tests train a predictor")
	}
	ps, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })

	coord, err := NewClusterCoordinator(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	srvCfg := storedExpConfig(ps)
	svc, err := NewServer(ServerConfig{Experiments: srvCfg, JobWorkers: 2, Cluster: coord})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	campaign := Campaign{Apps: []string{"cnn"}, Schedulers: []string{"EBS", "PES"}}
	st := postCampaign(t, ts.URL, campaign)
	if final := awaitCampaign(t, ts.URL, st.ID); final.Status != "done" {
		t.Fatalf("spill-over campaign ended %s: %s", final.Status, final.Error)
	}
	firstRes := fetchRawResults(t, ts.URL, st.ID)
	if got := svc.Stats().UniqueRuns; got != 2 {
		t.Fatalf("spill-over simulated %d sessions, want 2", got)
	}

	// The worker joins, sharing the persistent store but nothing in memory.
	workerCfg := storedExpConfig(ps)
	w, err := NewClusterWorker(workerCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Construction loaded the trained model from the store — SGD ran once in
	// this test, in the server's harness.
	wArts := workerCfg.Artifacts.Stats()
	if wArts.LearnerBuilds != 0 || wArts.LearnerStoreHits != 1 {
		t.Fatalf("worker artifact stats after construction: %+v", wArts)
	}
	wts := httptest.NewServer(w.Handler())
	t.Cleanup(wts.Close)
	resp, err := http.Post(ts.URL+"/v1/cluster/workers", "application/json",
		strings.NewReader(`{"addr": "`+wts.URL+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	st2 := postCampaign(t, ts.URL, campaign)
	if final := awaitCampaign(t, ts.URL, st2.ID); final.Status != "done" {
		t.Fatalf("routed campaign ended %s: %s", final.Status, final.Error)
	}
	repeatRes := fetchRawResults(t, ts.URL, st2.ID)

	// The worker did the routing's share — entirely from the store.
	ws := w.Stats()
	if ws.Sessions != 2 || ws.UniqueRuns != 0 || ws.StoreHits != 2 {
		t.Errorf("worker stats: %+v, want 2 sessions / 0 unique / 2 store hits", ws)
	}
	cs := coord.Stats()
	if cs.SessionsRouted != 2 || cs.Remote.StoreHits != 2 {
		t.Errorf("coordinator stats: routed=%d remote=%+v", cs.SessionsRouted, cs.Remote)
	}
	// And byte-identically to the spill-over run.
	for i := range repeatRes.Rows {
		if !bytes.Equal(repeatRes.Rows[i].Result, firstRes.Rows[i].Result) {
			t.Errorf("row %d: worker-served result differs from spill-over run", i)
		}
	}
}
