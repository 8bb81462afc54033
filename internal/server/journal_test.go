package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/store"
)

// pollTerminal waits (in-process, no HTTP) for a job to leave the queue.
func pollTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		j, ok := s.jobByID(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		st := j.snapshot()
		if terminal(st.Status) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still %s (%d/%d) at deadline", id, st.Status, st.Completed, st.Sessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalWritesOnlySpecAndState: a campaign's journal is its spec,
// written at submit, and its terminal state — nothing in between.
func TestJournalWritesOnlySpecAndState(t *testing.T) {
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := smallConfig()
	cfg.Experiments.Store = st
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	js, err := s.Submit(Campaign{Apps: []string{"cnn", "ebay"}}) // 10 sessions
	if err != nil {
		t.Fatal(err)
	}
	if got := pollTerminal(t, s, js.ID); got.Status != StatusDone {
		t.Fatalf("campaign %s: %s (%s)", got.ID, got.Status, got.Error)
	}
	s.Close() // the terminal state is journaled just after the status flips
	keys := st.Keys("campaign|")
	sort.Strings(keys)
	if want := []string{specKey(js.ID), stateKey(js.ID)}; !slices.Equal(keys, want) {
		t.Errorf("journal keys %q, want %q", keys, want)
	}
}

// TestJournalCrashResumeTailOnly is the server half of the resilience
// property suite: kill the store at a randomized record mid-campaign, boot a
// fresh server on the same directory, and assert the campaign resumes under
// its original ID, re-simulates only the missing tail (persisted sessions
// come back as store hits), and serves results byte-identical to an
// uninterrupted run.
func TestJournalCrashResumeTailOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	campaign := Campaign{Apps: []string{"cnn", "ebay"}} // 2 apps × 5 schedulers

	// Uninterrupted reference on the shared (storeless) server.
	ref := testServer(t)
	refSt, err := ref.Submit(campaign)
	if err != nil {
		t.Fatal(err)
	}
	if got := pollTerminal(t, ref, refSt.ID); got.Status != StatusDone {
		t.Fatalf("reference campaign %s: %s (%s)", got.ID, got.Status, got.Error)
	}
	refJob, _ := ref.jobByID(refSt.ID)
	want := make([][]byte, len(refJob.results))
	for i, res := range refJob.results {
		if want[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}

	for trial := 0; trial < 3; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)))
			dir := t.TempDir()
			in := chaos.New(chaos.Config{Seed: int64(trial) + 1})
			st, err := store.Open(dir, store.WithFileWrapper(in.WrapFile))
			if err != nil {
				t.Fatal(err)
			}
			cfg := smallConfig()
			cfg.Experiments.Store = st
			s1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st1, err := s1.Submit(campaign)
			if err != nil {
				t.Fatal(err)
			}
			// Arm only after submit: setup artifacts and the spec record must
			// land, the crash belongs to the campaign's result writes. The
			// crash point stays below the 10 result records plus the terminal
			// state, so the journal is guaranteed non-terminal on disk.
			in.ArmCrashAfter(int64(1 + rng.Intn(8)))
			// In-memory the campaign still completes — the store is a cache,
			// not the source of truth, so failed Puts are logged, not fatal.
			if got := pollTerminal(t, s1, st1.ID); got.Status != StatusDone {
				t.Fatalf("pre-crash campaign %s: %s (%s)", got.ID, got.Status, got.Error)
			}
			if !in.Stats().Crashed {
				t.Fatal("crash never fired; the trial proves nothing")
			}
			s1.Close()
			st.Close()

			// "Reboot": clean store on the same directory, fresh server.
			st2, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			persisted := len(st2.Keys("result|"))
			if persisted >= len(want) {
				t.Fatalf("%d of %d results survived the crash; no tail left to prove resume", persisted, len(want))
			}
			cfg2 := smallConfig()
			cfg2.Experiments.Store = st2
			s2, err := New(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.Resumed() != 1 {
				t.Fatalf("Resumed() = %d, want 1", s2.Resumed())
			}
			got := pollTerminal(t, s2, st1.ID) // original ID survives the reboot
			if got.Status != StatusDone {
				t.Fatalf("resumed campaign %s: %s (%s)", got.ID, got.Status, got.Error)
			}
			stats := s2.Stats()
			if int(stats.StoreHits) != persisted || int(stats.UniqueRuns) != len(want)-persisted {
				t.Errorf("resume ran %d sessions with %d store hits, want tail-only %d/%d",
					stats.UniqueRuns, stats.StoreHits, len(want)-persisted, persisted)
			}
			j2, _ := s2.jobByID(st1.ID)
			if len(j2.results) != len(want) {
				t.Fatalf("resumed campaign has %d results, want %d", len(j2.results), len(want))
			}
			for i, res := range j2.results {
				got, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Fatalf("result %d differs from the uninterrupted reference", i)
				}
			}
		})
	}
}

// TestJournalResumesRetiredOracleVersion: a spec record journaled before the
// Oracle became one solver names "oracle_version":"v1". Replay decodes it
// leniently, so the campaign resumes under its ID, finishes under the one
// Oracle, and serves the same bytes as a fresh run of the same campaign.
func TestJournalResumesRetiredOracleVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	campaign := Campaign{Apps: []string{"cnn"}, Schedulers: []string{"Oracle"}}
	ref := testServer(t)
	refSt, err := ref.Submit(campaign)
	if err != nil {
		t.Fatal(err)
	}
	if got := pollTerminal(t, ref, refSt.ID); got.Status != StatusDone {
		t.Fatalf("reference campaign %s: %s (%s)", got.ID, got.Status, got.Error)
	}
	refJob, _ := ref.jobByID(refSt.ID)
	want, err := json.Marshal(refJob.results)
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	old := `{"campaign":{"apps":["cnn"],"schedulers":["Oracle"],"oracle_version":"v1"},"sessions":1}`
	if err := st.Put(specKey("c0007"), []byte(old)); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Experiments.Store = st
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Resumed() != 1 {
		t.Fatalf("Resumed() = %d, want 1", s.Resumed())
	}
	if got := pollTerminal(t, s, "c0007"); got.Status != StatusDone {
		t.Fatalf("resumed campaign: %s (%s)", got.Status, got.Error)
	}
	j, _ := s.jobByID("c0007")
	got, err := json.Marshal(j.results)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed v1-era campaign differs from a fresh run under the one Oracle")
	}
}

// TestDrainLeavesQueuedCampaignsResumable asserts graceful shutdown with a
// journal drains instead of drops: nothing is canceled, unfinished campaigns
// stay queued on disk, and a reboot on the same store finishes them.
func TestDrainLeavesQueuedCampaignsResumable(t *testing.T) {
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.JobWorkers = 1
	cfg.DrainTimeout = time.Millisecond
	cfg.Experiments.Store = st
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		jst, err := s.Submit(Campaign{Apps: []string{"cnn"}, Schedulers: []string{"EBS", "Ondemand", "Interactive"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jst.ID)
	}
	s.Close()
	pending := 0
	for _, id := range ids {
		j, _ := s.jobByID(id)
		switch jst := j.snapshot(); jst.Status {
		case StatusDone:
		case StatusQueued:
			pending++
		default:
			t.Errorf("after drain, job %s is %s, want done or queued", id, jst.Status)
		}
	}
	if pending == 0 {
		t.Skip("every campaign finished inside the drain window; nothing to resume")
	}
	st.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cfg2 := smallConfig()
	cfg2.Experiments.Store = st2
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Resumed() != pending {
		t.Fatalf("Resumed() = %d, want %d", s2.Resumed(), pending)
	}
	for _, id := range ids {
		if _, ok := s2.jobByID(id); !ok {
			continue // finished before the drain, journaled terminal, not resumed
		}
		if got := pollTerminal(t, s2, id); got.Status != StatusDone {
			t.Errorf("resumed campaign %s: %s (%s)", id, got.Status, got.Error)
		}
	}
}

// TestDrainStopsUnplacedSessions: sessions a coordinator cannot place run
// on the server's one local path, so they honour the drain deadline and
// report progress per session like a campaign on a server without a
// cluster. A store-backed server whose coordinator has no members takes a
// 540-session campaign; once it is running and has reported progress,
// Close's few-millisecond drain cancels the local run between sessions and
// returns the campaign to queued with most of it unsimulated. A reboot on
// the same store resumes it to results byte-identical to an in-process
// run.
func TestDrainStopsUnplacedSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	campaign := Campaign{TraceSeeds: []int64{1, 2, 3, 4, 5, 6}}
	dir := t.TempDir()
	boot := func(st *store.Store) (*Server, *cluster.Coordinator) {
		t.Helper()
		coord, err := cluster.New(cluster.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallConfig()
		cfg.JobWorkers = 1
		cfg.DrainTimeout = 5 * time.Millisecond
		cfg.Experiments.Store = st
		cfg.Cluster = coord
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, coord
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, coord := boot(st)
	defer coord.Close()
	jst, err := s.Submit(campaign)
	if err != nil {
		t.Fatal(err)
	}
	if jst.Sessions != 540 {
		t.Fatalf("campaign expanded to %d sessions, want 540", jst.Sessions)
	}
	j, _ := s.jobByID(jst.ID)
	deadline := time.Now().Add(2 * time.Minute)
	for snap := j.snapshot(); snap.Status != StatusRunning || snap.Completed == 0; snap = j.snapshot() {
		if terminal(snap.Status) || time.Now().After(deadline) {
			t.Fatalf("campaign %s at %d/%d before reporting progress while running", snap.Status, snap.Completed, snap.Sessions)
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	if got := j.snapshot(); got.Status != StatusQueued || got.Completed != 0 {
		t.Fatalf("after the drain deadline the campaign is %s at %d/%d, want queued at 0", got.Status, got.Completed, got.Sessions)
	}
	if runs := s.Stats().UniqueRuns; runs >= int64(jst.Sessions) {
		t.Errorf("the local path simulated %d of %d sessions after the drain deadline, want fewer", runs, jst.Sessions)
	}
	st.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, coord2 := boot(st2)
	defer coord2.Close()
	defer s2.Close()
	if s2.Resumed() != 1 {
		t.Fatalf("Resumed() = %d, want 1", s2.Resumed())
	}
	if got := pollTerminal(t, s2, jst.ID); got.Status != StatusDone || got.Completed != jst.Sessions {
		t.Fatalf("resumed campaign ended %s at %d/%d (%s)", got.Status, got.Completed, got.Sessions, got.Error)
	}
	if cs := coord2.Stats(); cs.SessionsSpilled != int64(jst.Sessions) || cs.Shards != 0 {
		t.Errorf("resumed campaign's coordinator stats: %+v, want every session spilled and none routed", cs)
	}

	ref := testServer(t)
	rst, err := ref.Submit(campaign)
	if err != nil {
		t.Fatal(err)
	}
	if got := pollTerminal(t, ref, rst.ID); got.Status != StatusDone {
		t.Fatalf("in-process reference ended %s (%s)", got.Status, got.Error)
	}
	rj, _ := ref.jobByID(rst.ID)
	want, err := json.Marshal(rj.results)
	if err != nil {
		t.Fatal(err)
	}
	resumed, _ := s2.jobByID(jst.ID)
	got, err := json.Marshal(resumed.results)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed campaign differs from an in-process run")
	}
}

// TestSubmitQueueFull429 asserts admission control: a full queue surfaces as
// ErrQueueFull from Submit and as 429 + Retry-After over HTTP.
func TestSubmitQueueFull429(t *testing.T) {
	shared := testServer(t)
	// No workers: the queue never drains, so fullness is deterministic.
	s := &Server{
		cfg:   Config{QueueDepth: 1, MaxJobs: 16},
		setup: shared.setup,
		jobs:  make(map[string]*job),
		queue: make(chan *job, 1),
	}
	if _, err := s.Submit(Campaign{Apps: []string{"cnn"}}); err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	if _, err := s.Submit(Campaign{Apps: []string{"cnn"}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second Submit error = %v, want ErrQueueFull", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(`{"apps":["cnn"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "queue is full") {
		t.Errorf("error body %+v (%v)", e, err)
	}
}
