package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
)

// clusterServer starts a server whose coordinator shards every campaign to
// two HTTP workers, all three on the small test configuration.
func clusterServer(tb testing.TB) *Server {
	tb.Helper()
	if testing.Short() {
		tb.Skip("server tests train a predictor")
	}
	cfg := smallConfig()
	var urls []string
	for range 2 {
		w, err := cluster.NewWorker(cfg.Experiments)
		if err != nil {
			tb.Fatal(err)
		}
		ts := httptest.NewServer(w.Handler())
		tb.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	coord, err := cluster.New(cluster.Config{Workers: urls})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(coord.Close)
	cfg.Cluster = coord
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s
}

// heldEntries counts the pending entries parked on the server's jobs, with
// every job locked at once, so a worker cannot take one back and park the
// next between two of the counts.
func heldEntries(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	held := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		defer j.mu.Unlock()
		if j.pending != nil {
			held++
		}
	}
	return held
}

// TestPendingEntriesBoundedByJobWorkers: campaigns that finish with no one
// reading them leave at most one pending entry per job worker, each worker
// taking its previous entry back when it finishes the next campaign. Every
// read still answers encoding/json's bytes, and the two read counters add
// up to the reads made: one from each entry still held, the rest on demand.
func TestPendingEntriesBoundedByJobWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	var ids []string
	for range n {
		st, err := submitStatus(s, Campaign{Apps: []string{"cnn", "ebay"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		j, _ := s.jobByID(id)
		for st := j.snapshot(); !terminal(st.Status); st = j.snapshot() {
			if held := heldEntries(s); held > s.cfg.JobWorkers {
				t.Fatalf("%d pending entries held, more than the %d job workers", held, s.cfg.JobWorkers)
			}
			time.Sleep(time.Millisecond)
		}
		if st := j.snapshot(); st.Status != StatusDone {
			t.Fatalf("campaign %s ended %s: %s", id, st.Status, st.Error)
		}
		settle(j)
	}
	held := heldEntries(s)
	if held < 1 || held > s.cfg.JobWorkers {
		t.Fatalf("%d pending entries held once %d campaigns finished unread, want 1 to %d", held, n, s.cfg.JobWorkers)
	}
	for _, id := range ids {
		j, _ := s.jobByID(id)
		want := encodingJSONDocument(t, filteredResults(j, rowFilter{}))
		if code, body := fetchBody(t, ts.URL+"/v1/campaigns/"+id+"/results"); code != http.StatusOK || !bytes.Equal(body, want) {
			t.Errorf("campaign %s: status %d, %d bytes, differs from encoding/json's %d", id, code, len(body), len(want))
		}
	}
	if h := s.health(); h.ResultsPending != int64(held) || h.ResultsOnDemand != int64(n-held) {
		t.Errorf("%d read(s) from a pending entry and %d on demand, want %d and %d", h.ResultsPending, h.ResultsOnDemand, held, n-held)
	}
	if held := heldEntries(s); held != 0 {
		t.Errorf("%d pending entries left after every campaign was read", held)
	}
}

// TestPendingReadRacesTakeBack reads each campaign's results while the one
// job worker finishes the next campaign: the worker takes the entry back
// if the read has not taken it yet, or else draws the buffers the read
// hands back once it is done, or grows new ones while the read still
// writes from them. Under -race this checks both hand-overs; every read
// must answer encoding/json's bytes either way.
func TestPendingReadRacesTakeBack(t *testing.T) {
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	cfg := smallConfig()
	cfg.JobWorkers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const rounds = 12
	j := poolCampaignJob(t, s)
	for round := range rounds {
		want := encodingJSONDocument(t, filteredResults(j, rowFilter{}))
		query := ""
		if round%2 == 1 {
			want = encodingJSONRows(t, filteredResults(j, rowFilter{}).Rows)
			query = "?format=ndjson"
		}
		var wg sync.WaitGroup
		var code int
		var body []byte
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/campaigns/" + j.id + "/results" + query)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, err = buf.ReadFrom(resp.Body)
			code, body = resp.StatusCode, buf.Bytes()
			if err != nil {
				t.Error(err)
			}
		}()
		next := poolCampaignJob(t, s)
		wg.Wait()
		if code != http.StatusOK || !bytes.Equal(body, want) {
			t.Errorf("round %d: status %d, %d bytes, differs from encoding/json's %d", round, code, len(body), len(want))
		}
		j = next
	}
	if h := s.health(); h.ResultsPending+h.ResultsOnDemand != rounds {
		t.Errorf("%d read(s) from a pending entry and %d on demand, want %d in all", h.ResultsPending, h.ResultsOnDemand, rounds)
	}
}

// TestPendingEntryBounded: a campaign whose rows outgrow maxPendingBytes
// leaves its entry not ok, so its reads encode on demand, having written
// no more than one row past the bound.
func TestPendingEntryBounded(t *testing.T) {
	s := testServer(t)
	j := poolCampaignJob(t, s)
	plan := &Plan{}
	var results []*engine.Result
	var rows, longest int
	for len(results) == 0 || rows <= maxPendingBytes {
		i := len(results) % len(j.results)
		plan.Meta = append(plan.Meta, j.plan.Meta[i])
		results = append(results, j.results[i])
		line, err := ResultRow{SessionMeta: j.plan.Meta[i], Result: j.results[i]}.appendJSON(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows += len(line) + 1
		longest = max(longest, len(line)+1)
	}
	big := &pendingResults{ready: make(chan struct{})}
	big.encode(plan, results)
	if big.ok || len(big.rows) > maxPendingBytes+longest {
		t.Errorf("%d rows of %d bytes: entry ok %v holding %d bytes, want not ok within a row of %d", len(results), rows, big.ok, len(big.rows), maxPendingBytes)
	}
	small := &pendingResults{ready: make(chan struct{})}
	small.encode(&Plan{Meta: plan.Meta[:len(results)-1]}, results[:len(results)-1])
	if !small.ok {
		t.Errorf("%d rows within the bound: entry not ok", len(results)-1)
	}
}

// pendingEncodeAllocs is what a warm pending encode of the pool campaign
// allocates: the tables' and the solver sum's JSON through encoding/json,
// and the entry with its ready channel. The rows, their metadata included,
// are appended into the reused buffers, and the event memo and the tables'
// working memory ride with them, so they add nothing.
const pendingEncodeAllocs = 5

// encodePending encodes a finished campaign's answer into a new pending
// entry on bufs, as the job worker does, and returns its buffers emptied
// for the next one.
func encodePending(tb testing.TB, j *job, bufs resultsBuffers) resultsBuffers {
	p := &pendingResults{job: j, ready: make(chan struct{}), resultsBuffers: bufs}
	p.encode(j.plan, j.results)
	if !p.ok {
		tb.Fatal("the pool campaign's pending encode failed")
	}
	return p.emptied()
}

// TestPendingEncodeSteadyStateAlloc: a job worker's pending encode of a
// pool campaign on the buffers of its previous entry allocates no more
// than pendingEncodeAllocs.
func TestPendingEncodeSteadyStateAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under -race")
	}
	s := testServer(t)
	j := poolCampaignJob(t, s)
	bufs := encodePending(t, j, resultsBuffers{})
	allocs := testing.AllocsPerRun(20, func() { bufs = encodePending(t, j, bufs) })
	t.Logf("%.1f allocations per warm pending encode", allocs)
	if allocs > pendingEncodeAllocs {
		t.Errorf("a warm pending encode allocates %.1f times, more than %d", allocs, pendingEncodeAllocs)
	}
}
