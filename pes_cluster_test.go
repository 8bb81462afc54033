package pes

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
)

// clusterHarness is a full sharded deployment under test: two HTTP workers
// and a campaign server whose coordinator routes shards to them. Every
// process shares one harness configuration, as a real deployment must for
// results to merge byte-identically.
type clusterHarness struct {
	svc     *Server
	coord   *ClusterCoordinator
	workers []*ClusterWorker
}

func smallCluster(t *testing.T, ccfg ClusterConfig) (*clusterHarness, string) {
	t.Helper()
	if testing.Short() {
		t.Skip("cluster e2e tests train a predictor")
	}
	cfg := ExperimentConfig{TrainTracesPerApp: 2, EvalTracesPerApp: 1, Parallel: 2}
	var urls []string
	h := &clusterHarness{}
	for i := 0; i < 2; i++ {
		w, err := NewClusterWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(ts.Close)
		h.workers = append(h.workers, w)
		urls = append(urls, ts.URL)
	}
	ccfg.Workers = urls
	coord, err := NewClusterCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	h.coord = coord
	svc, err := NewServer(ServerConfig{Experiments: cfg, JobWorkers: 2, Cluster: coord})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	h.svc = svc
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return h, ts.URL
}

// campaignBarrier wraps a shard transport and holds every shard until
// shards carrying need sessions — one whole campaign — have been
// dispatched, then releases them together; the next need sessions form the
// next group. With MaxShardSessions at the campaign size, each worker's
// first shard is its whole queue, so once the barrier opens no queue is
// left for a worker to steal, whatever the goroutine schedule.
type campaignBarrier struct {
	inner cluster.Transport
	need  int
	mu    sync.Mutex
	held  int
	open  chan struct{}
}

func (b *campaignBarrier) RunShard(ctx context.Context, worker string, req cluster.ShardRequest) (cluster.ShardResponse, error) {
	b.mu.Lock()
	open := b.open
	b.held += len(req.Sessions)
	if b.held >= b.need {
		close(open)
		b.held, b.open = 0, make(chan struct{})
	}
	b.mu.Unlock()
	select {
	case <-open:
	case <-ctx.Done():
		return cluster.ShardResponse{}, ctx.Err()
	}
	return b.inner.RunShard(ctx, worker, req)
}

// TestClusteredCampaignMatchesSingleProcess submits a campaign to a server
// sharding across two workers and asserts the merged, served results are
// byte-identical (modulo host-timing fields) to a direct single-process
// RunBatch of the same plan — and that a repeat campaign is answered from
// the workers' warm memo caches. The campaign barrier keeps every session
// on its ring owner in both campaigns, so the warm hits do not depend on
// goroutine timing.
func TestClusteredCampaignMatchesSingleProcess(t *testing.T) {
	const sessions = 20
	barrier := &campaignBarrier{inner: cluster.NewHTTPTransport(), need: sessions, open: make(chan struct{})}
	h, base := smallCluster(t, ClusterConfig{Transport: barrier, MaxShardSessions: sessions})

	campaign := Campaign{
		Apps:       []string{"cnn", "ebay"},
		TraceSeeds: []int64{1, 2},
		// All five schedulers: 20 sessions spread across both workers.
	}
	st := postCampaign(t, base, campaign)
	if st.Sessions != 20 {
		t.Fatalf("campaign expanded to %d sessions, want 20", st.Sessions)
	}
	final := awaitCampaign(t, base, st.ID)
	if final.Status != "done" {
		t.Fatalf("campaign ended %s: %s", final.Status, final.Error)
	}
	if final.Completed != final.Sessions {
		t.Errorf("progress reports %d/%d sessions", final.Completed, final.Sessions)
	}

	res := fetchRawResults(t, base, st.ID)
	if len(res.Rows) != 20 {
		t.Fatalf("served %d rows, want 20", len(res.Rows))
	}

	// The same campaign simulated directly, serially, in this process.
	plan, err := NewCampaign(campaign, h.svc.Setup())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunBatch(1, campaignSessions(t, plan, h.svc.Setup()))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		if !compactEqualResult(t, row.Result, direct[i]) {
			t.Errorf("row %d (%s/%d/%s): sharded result differs from single-process RunBatch",
				i, row.App, row.TraceSeed, row.Scheduler)
		}
	}

	// The server's own runner did none of the work; the workers did all of
	// it, visible through the coordinator's merged remote stats.
	if runnerStats := h.svc.Stats(); runnerStats.UniqueRuns != 0 {
		t.Errorf("coordinator process simulated %d sessions itself, want 0", runnerStats.UniqueRuns)
	}
	cs := h.coord.Stats()
	if cs.SessionsRouted != 20 || cs.Remote.UniqueRuns != 20 || cs.WorkerFailures != 0 {
		t.Errorf("coordinator stats after first campaign: %+v", cs)
	}
	if cs.Steals != 0 {
		// Behind the barrier only a worker that owns no session steals: the
		// ring gave all 20 to the other one (about 2 in a million), and the
		// repeat campaign may then split them differently by design.
		t.Skipf("the ring gave every session to one worker: %+v", cs)
	}

	// A repeat campaign routes the same sessions to the same workers, whose
	// memo caches answer without re-simulating.
	st2 := postCampaign(t, base, campaign)
	if final2 := awaitCampaign(t, base, st2.ID); final2.Status != "done" {
		t.Fatalf("repeat campaign ended %s: %s", final2.Status, final2.Error)
	}
	res2 := fetchRawResults(t, base, st2.ID)
	for i, row := range res2.Rows {
		if !compactEqualResult(t, row.Result, direct[i]) {
			t.Errorf("repeat row %d: served result differs", i)
		}
	}
	cs = h.coord.Stats()
	if cs.Remote.UniqueRuns != 20 || cs.Remote.CacheHits != 20 || cs.Remote.Sessions != 40 {
		t.Errorf("repeat campaign was not served from warm worker caches: %+v", cs.Remote)
	}
}

// TestClusteredHealthzReportsClusterCounters asserts the coordinator
// surfaces shard/worker counters through /healthz.
func TestClusteredHealthzReportsClusterCounters(t *testing.T) {
	_, base := smallCluster(t, ClusterConfig{})

	st := postCampaign(t, base, Campaign{Apps: []string{"cnn"}, Schedulers: []string{"EBS", "PES"}})
	if final := awaitCampaign(t, base, st.ID); final.Status != "done" {
		t.Fatalf("campaign ended %s: %s", final.Status, final.Error)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status  string `json:"status"`
		Cluster *struct {
			Workers        int   `json:"workers"`
			Shards         int64 `json:"shards"`
			SessionsRouted int64 `json:"sessions_routed"`
			Remote         struct {
				UniqueRuns int64 `json:"UniqueRuns"`
			} `json:"remote"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Cluster == nil {
		t.Fatalf("clustered healthz missing cluster section: %+v", h)
	}
	if h.Cluster.Workers != 2 || h.Cluster.Shards < 1 || h.Cluster.SessionsRouted != 2 {
		t.Errorf("cluster counters = %+v", h.Cluster)
	}
	if h.Cluster.Remote.UniqueRuns != 2 {
		t.Errorf("remote unique runs = %d, want 2", h.Cluster.Remote.UniqueRuns)
	}
}

// TestClusteredSpillOverAndLiveRegistration covers the elastic paths end to
// end: a coordinator with no workers at all executes campaigns locally
// (graceful degradation), and a worker registered at runtime through the
// membership API takes over subsequent campaigns.
func TestClusteredSpillOverAndLiveRegistration(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e tests train a predictor")
	}
	cfg := ExperimentConfig{TrainTracesPerApp: 2, EvalTracesPerApp: 1, Parallel: 2}
	coord, err := NewClusterCoordinator(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	svc, err := NewServer(ServerConfig{Experiments: cfg, JobWorkers: 2, Cluster: coord})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	base := ts.URL

	// With an empty membership the campaign spills over to the server's own
	// in-process path instead of failing.
	first := Campaign{Apps: []string{"cnn"}, Schedulers: []string{"EBS", "PES"}}
	st := postCampaign(t, base, first)
	if final := awaitCampaign(t, base, st.ID); final.Status != "done" {
		t.Fatalf("spill-over campaign ended %s: %s", final.Status, final.Error)
	}
	res := fetchRawResults(t, base, st.ID)
	plan, err := NewCampaign(first, svc.Setup())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunBatch(1, campaignSessions(t, plan, svc.Setup()))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		if !compactEqualResult(t, row.Result, direct[i]) {
			t.Errorf("spill-over row %d differs from single-process RunBatch", i)
		}
	}
	cs := coord.Stats()
	if cs.SessionsSpilled != 2 || cs.Shards != 0 {
		t.Errorf("spill-over not recorded: %+v", cs)
	}
	if got := svc.Stats().UniqueRuns; got != 2 {
		t.Errorf("local worker simulated %d sessions, want 2", got)
	}

	// Register a real worker over HTTP; the next campaign routes to it.
	w, err := NewClusterWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wts := httptest.NewServer(w.Handler())
	t.Cleanup(wts.Close)
	resp, err := http.Post(base+"/v1/cluster/workers", "application/json",
		strings.NewReader(`{"addr": "`+wts.URL+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registration = %d", resp.StatusCode)
	}

	second := Campaign{Apps: []string{"ebay"}, Schedulers: []string{"EBS", "PES"}}
	st2 := postCampaign(t, base, second)
	if final := awaitCampaign(t, base, st2.ID); final.Status != "done" {
		t.Fatalf("post-registration campaign ended %s: %s", final.Status, final.Error)
	}
	res2 := fetchRawResults(t, base, st2.ID)
	plan2, err := NewCampaign(second, svc.Setup())
	if err != nil {
		t.Fatal(err)
	}
	direct2, err := RunBatch(1, campaignSessions(t, plan2, svc.Setup()))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res2.Rows {
		if !compactEqualResult(t, row.Result, direct2[i]) {
			t.Errorf("post-registration row %d differs from single-process RunBatch", i)
		}
	}
	cs = coord.Stats()
	if cs.SessionsRouted != 2 || cs.Workers != 1 {
		t.Errorf("registered worker did not take the campaign: %+v", cs)
	}
	if got := w.Stats().UniqueRuns; got != 2 {
		t.Errorf("registered worker simulated %d sessions, want 2", got)
	}
}
