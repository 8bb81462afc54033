package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/webapp"
)

// gatedTransport holds every shard until open is closed and then rejects
// it with a client fault, which fails the whole campaign: a campaign on it
// runs until the test lets it go, and then fails.
type gatedTransport struct {
	open chan struct{}
	once sync.Once
}

func (g *gatedTransport) release() { g.once.Do(func() { close(g.open) }) }

func (g *gatedTransport) RunShard(ctx context.Context, worker string, req cluster.ShardRequest) (cluster.ShardResponse, error) {
	select {
	case <-g.open:
	case <-ctx.Done():
		return cluster.ShardResponse{}, ctx.Err()
	}
	return cluster.ShardResponse{}, &cluster.ClientFaultError{Worker: worker, Status: http.StatusBadRequest, Msg: "rejected by the test transport"}
}

// gatedServer starts a server with jobWorkers job workers whose coordinator
// dispatches every campaign to one fake worker through a gatedTransport,
// and an HTTP front for it. Cleanup releases the gate before it closes the
// server, so no job worker is left waiting on it.
func gatedServer(t *testing.T, jobWorkers int) (*Server, *gatedTransport, *httptest.Server) {
	t.Helper()
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	gate := &gatedTransport{open: make(chan struct{})}
	coord, err := cluster.New(cluster.Config{Workers: []string{"worker-a:9001"}, Transport: gate})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cfg := smallConfig()
	cfg.JobWorkers = jobWorkers
	cfg.Cluster = coord
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	t.Cleanup(gate.release) // runs first
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, gate, ts
}

// postCampaign submits c over HTTP and returns the answer's status code,
// the JobStatus it carries and how long the POST took.
func postCampaign(t *testing.T, base string, c Campaign) (int, JobStatus, time.Duration) {
	t.Helper()
	body, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, st, time.Since(start)
}

// waitJobs waits until n jobs have been admitted.
func waitJobs(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		s.mu.Lock()
		got := len(s.jobs)
		s.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs admitted at deadline, want %d", got, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// smallCampaign is one fast campaign for the tests that never simulate it.
var smallCampaign = Campaign{Apps: []string{"cnn"}, Schedulers: []string{"EBS"}}

// finishedClosed reports whether the job's finished channel is closed: the
// signal that ends a POST's hold, whatever else raced it.
func finishedClosed(t *testing.T, s *Server, id string) bool {
	t.Helper()
	j, ok := s.jobByID(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	select {
	case <-j.finished:
		return true
	default:
		return false
	}
}

// TestSubmitAnswersDoneCampaign: a warm pool campaign finishes inside the
// hold, so its POST answers 202 with status done and every session
// completed; the results read right after is served from the pending entry
// and carries the bytes the on-demand encoding and encoding/json write.
func TestSubmitAnswersDoneCampaign(t *testing.T) {
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

	reg := webapp.Registry()
	c := poolCampaign(reg[0], reg[1], reg[2])
	settle(campaignJob(t, s, c, 18)) // warm: the POSTed run is all memo hits
	// The bound is wall-clock time, and a loaded host can stall even a warm
	// campaign past it, so a few submissions are allowed to miss it.
	var st JobStatus
	for attempt := 0; attempt < 3 && st.Status != StatusDone; attempt++ {
		var code int
		code, st, _ = postCampaign(t, ts.URL, c)
		if code != http.StatusAccepted {
			t.Fatalf("submit answered %d, want 202", code)
		}
	}
	if st.Status != StatusDone || st.Completed != st.Sessions || st.Sessions != 18 {
		t.Fatalf("submit answered %s at %d/%d, want done at 18/18", st.Status, st.Completed, st.Sessions)
	}
	if h := s.health(); h.SubmitsTerminal != 1 {
		t.Errorf("%d submissions answered terminal, want 1", h.SubmitsTerminal)
	}
	if !finishedClosed(t, s, st.ID) {
		t.Error("done campaign's finished channel is open")
	}

	j, _ := s.jobByID(st.ID)
	before := s.health()
	code, first := fetchBody(t, ts.URL+"/v1/campaigns/"+st.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("first results read answered %d", code)
	}
	if h := s.health(); h.ResultsPending != before.ResultsPending+1 {
		t.Errorf("the read right after the done answer was not served from the pending entry: %d pending reads, was %d", h.ResultsPending, before.ResultsPending)
	}
	code, second := fetchBody(t, ts.URL+"/v1/campaigns/"+st.ID+"/results")
	if code != http.StatusOK || !bytes.Equal(first, second) {
		t.Errorf("on-demand read (status %d, %d bytes) differs from the pending read (%d bytes)", code, len(second), len(first))
	}
	if want := encodingJSONDocument(t, filteredResults(j, rowFilter{})); !bytes.Equal(first, want) {
		t.Errorf("results read differs from encoding/json's %d bytes", len(want))
	}
	samples := scrapeMetrics(t, s.Handler())
	if got := samples[`pes_submit_answers_total{status="terminal"}`]; got != 1 {
		t.Errorf(`pes_submit_answers_total{status="terminal"} = %v, want 1`, got)
	}
}

// TestSubmitHoldEndsAtBound: with the one job worker held in the gated
// transport, the running campaign's POST and the POST of a campaign queued
// behind the busy worker each answer at the bound, not before, with their
// non-terminal status; a POST admitted behind that waiting campaign answers
// at once, queued. Releasing the gate fails them all.
func TestSubmitHoldEndsAtBound(t *testing.T) {
	s, gate, ts := gatedServer(t, 1)

	code, running, took := postCampaign(t, ts.URL, smallCampaign)
	if code != http.StatusAccepted || running.Status != StatusRunning || took < submitHold {
		t.Fatalf("held campaign's submit answered %d %s after %v, want 202 running after at least %v", code, running.Status, took, submitHold)
	}
	code, queued, took := postCampaign(t, ts.URL, smallCampaign)
	if code != http.StatusAccepted || queued.Status != StatusQueued || took < submitHold {
		t.Fatalf("submit behind the busy worker answered %d %s after %v, want 202 queued after at least %v", code, queued.Status, took, submitHold)
	}
	// A POST behind the waiting campaign does not hold, so it answers well
	// inside the bound; a held one never does, since the gate stays shut. A
	// loaded host can stall even an unheld round trip past the bound, so a
	// few more POSTs, each behind the same waiting campaign, may try again.
	ids := []JobStatus{running, queued}
	for attempt := 0; ; attempt++ {
		code, behind, took := postCampaign(t, ts.URL, smallCampaign)
		ids = append(ids, behind)
		if code != http.StatusAccepted || behind.Status != StatusQueued {
			t.Fatalf("submit behind a waiting campaign answered %d %s, want 202 queued", code, behind.Status)
		}
		if took < submitHold {
			break
		}
		if attempt == 2 {
			t.Fatalf("submit behind a waiting campaign answered after %v, want before %v", took, submitHold)
		}
	}
	want := int64(len(ids))
	if h := s.health(); h.SubmitsPending != want || h.SubmitsTerminal != 0 {
		t.Errorf("submissions answered: %d pending and %d terminal, want %d and 0", h.SubmitsPending, h.SubmitsTerminal, want)
	}
	samples := scrapeMetrics(t, s.Handler())
	if got := samples[`pes_submit_answers_total{status="pending"}`]; got != float64(want) {
		t.Errorf(`pes_submit_answers_total{status="pending"} = %v, want %d`, got, want)
	}

	gate.release()
	for _, st := range ids {
		if got := pollTerminal(t, s, st.ID); got.Status != StatusFailed {
			t.Errorf("campaign %s ended %s, want failed", got.ID, got.Status)
		}
	}
}

// TestSubmitHoldEndsOnFailure: a campaign that fails inside the hold
// answers its POST failed, with the error, and its failure closed finished.
func TestSubmitHoldEndsOnFailure(t *testing.T) {
	s, gate, ts := gatedServer(t, 2)
	gate.release() // every shard is rejected at once
	// As in TestSubmitAnswersDoneCampaign, a loaded host may stall the
	// failure past the bound, so a few submissions may miss it.
	var st JobStatus
	for attempt := 0; attempt < 3 && st.Status != StatusFailed; attempt++ {
		var code int
		code, st, _ = postCampaign(t, ts.URL, smallCampaign)
		if code != http.StatusAccepted {
			t.Fatalf("submit answered %d, want 202", code)
		}
	}
	if st.Status != StatusFailed || st.Error == "" {
		t.Fatalf("failing campaign's submit answered %+v, want failed with its error", st)
	}
	if !finishedClosed(t, s, st.ID) {
		t.Error("failed campaign's finished channel is open")
	}
	if h := s.health(); h.SubmitsTerminal != 1 {
		t.Errorf("%d submissions answered terminal, want 1", h.SubmitsTerminal)
	}
}

// TestSubmitHoldEndsOnShutdownCancel: a campaign waiting for the busy job
// worker when the server shuts down is canceled, and the cancel closes
// finished, which ends its POST's hold.
func TestSubmitHoldEndsOnShutdownCancel(t *testing.T) {
	s, gate, ts := gatedServer(t, 1)
	if _, st, _ := postCampaign(t, ts.URL, smallCampaign); st.Status != StatusRunning {
		t.Fatalf("first campaign is %s, want running in the gated transport", st.Status)
	}
	answered := make(chan JobStatus, 1)
	go func() {
		body, _ := json.Marshal(smallCampaign)
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			answered <- JobStatus{}
			return
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Error(err)
		}
		answered <- st
	}()
	waitJobs(t, s, 2)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	for shut := false; !shut; time.Sleep(100 * time.Microsecond) {
		s.mu.Lock()
		shut = s.closed
		s.mu.Unlock()
	}
	gate.release() // the running campaign fails; the worker then cancels the queued one
	st := <-answered
	<-closed
	// The whole shutdown races the POST's timer, so a loaded host may answer
	// at the bound, still queued; the cancel must close finished either way.
	switch st.Status {
	case StatusCanceled:
	case StatusQueued:
		t.Logf("the hold reached its bound before the shutdown canceled the campaign")
	default:
		t.Fatalf("queued campaign's submit answered %s, want canceled (or queued at the bound)", st.Status)
	}
	if got := pollTerminal(t, s, st.ID); got.Status != StatusCanceled {
		t.Errorf("queued campaign ended %s, want canceled", got.Status)
	}
	if !finishedClosed(t, s, st.ID) {
		t.Error("canceled campaign's finished channel is open")
	}
}

// TestSubmitHoldEndsOnDisconnect: a client that gives up on its POST ends
// the hold at once, not at the bound, and the answer counts as pending.
func TestSubmitHoldEndsOnDisconnect(t *testing.T) {
	s, _, _ := gatedServer(t, 1)
	held := make(chan time.Duration, 1)
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		held <- time.Since(start)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(smallCampaign)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitJobs(t, s, 1)
	cancel()
	if err := <-errc; err == nil {
		t.Error("canceled POST returned an answer")
	}
	if took := <-held; took >= submitHold {
		t.Errorf("handler held the disconnected POST for %v, want less than the %v bound", took, submitHold)
	}
	if h := s.health(); h.SubmitsPending != 1 {
		t.Errorf("%d submissions answered pending, want 1", h.SubmitsPending)
	}
}

// BenchmarkSubmitToResults times a warm pool campaign from its POST to the
// last byte of its results document, over HTTP, with a client that polls
// the status every millisecond until the campaign is done, as the
// end-to-end benchmark's client does: the round trips, the poll sleeps and
// any hold of the POST are all in the time. It reports the polls made per
// campaign beside it.
func BenchmarkSubmitToResults(b *testing.B) {
	s := testServer(b)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	reg := webapp.Registry()
	body, err := json.Marshal(poolCampaign(reg[0], reg[1], reg[2]))
	if err != nil {
		b.Fatal(err)
	}
	var out bytes.Buffer
	do := func(method, path string, body []byte, want int) {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		out.Reset()
		if _, err := out.ReadFrom(resp.Body); err != nil || resp.StatusCode != want {
			b.Fatalf("%s %s: %d (%v)", method, path, resp.StatusCode, err)
		}
	}
	campaign := func() (polls int) {
		var st JobStatus
		do(http.MethodPost, "/v1/campaigns", body, http.StatusAccepted)
		for {
			if err := json.Unmarshal(out.Bytes(), &st); err != nil {
				b.Fatal(err)
			}
			if st.Status == StatusDone {
				break
			}
			if terminal(st.Status) {
				b.Fatalf("campaign %s ended %s: %s", st.ID, st.Status, st.Error)
			}
			time.Sleep(time.Millisecond)
			polls++
			do(http.MethodGet, "/v1/campaigns/"+st.ID, nil, http.StatusOK)
		}
		do(http.MethodGet, "/v1/campaigns/"+st.ID+"/results", nil, http.StatusOK)
		return polls
	}
	campaign() // warm: every later run is all memo hits
	polls := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		polls += campaign()
	}
	b.ReportMetric(float64(polls)/float64(b.N), "polls/op")
}
