package server

import (
	"sync"
	"testing"
	"time"

	"repro/internal/artifacts"
	"repro/internal/cluster"
	"repro/internal/experiments"
)

// TestConcurrentCampaignsBuildArtifactsOnce submits overlapping campaigns
// covering the same (app, seed) cross product and proves the shared
// artifact store generated each campaign trace exactly once, on top of the
// existing guarantee that each unique session simulated exactly once. Run under -race this also
// exercises the store's singleflight construction from the job workers.
func TestConcurrentCampaignsBuildArtifactsOnce(t *testing.T) {
	store := artifacts.NewStore()
	s, err := New(Config{
		Experiments: experiments.Config{
			TrainTracesPerApp: 1,
			EvalTracesPerApp:  1,
			Artifacts:         store,
		},
		JobWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The setup trained the learner and generated no trace: training
	// corpora stay out of the store, and no figure has read the evaluation
	// corpus yet. Every trace below is the campaigns' share.
	if st := store.Stats(); st.TraceBuilds != 0 || st.LearnerBuilds != 1 {
		t.Fatalf("after server start: %+v, want 1 learner build and no trace", st)
	}

	apps := []string{"cnn", "ebay"}
	seeds := []int64{21, 22}
	campaign := Campaign{Apps: apps, TraceSeeds: seeds}

	// Campaign expansion (specs only) happens in Submit, concurrently here;
	// trace building and the simulations happen on the shared job workers.
	const overlapping = 4
	var wg sync.WaitGroup
	ids := make([]string, overlapping)
	for i := 0; i < overlapping; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := submitStatus(s, campaign)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatalf("submission failed")
	}

	deadline := time.Now().Add(30 * time.Second)
	for _, id := range ids {
		for {
			j, ok := s.jobByID(id)
			if !ok {
				t.Fatalf("job %s disappeared", id)
			}
			st := j.snapshot()
			if st.Status == StatusDone {
				break
			}
			if st.Status == StatusFailed || st.Status == StatusCanceled {
				t.Fatalf("job %s ended %s: %s", id, st.Status, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still %s after 30s", id, st.Status)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	ast := store.Stats()
	// Campaign traces: one per (app, seed), however many of the four
	// overlapping campaigns ask for it.
	if got, want := ast.TraceBuilds, int64(len(apps)*len(seeds)); got != want {
		t.Errorf("campaigns generated %d traces, want %d (one per (app, seed))", got, want)
	}
	// Re-expanding the same campaign and building its sessions again must
	// add no trace builds at all: the builder reuses the cached traces.
	plan, err := campaign.Expand(s.Setup())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.BuildSessions(s.Setup(), plan.Specs); err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().TraceBuilds; got != ast.TraceBuilds {
		t.Errorf("rebuilding the campaign's sessions generated %d extra traces, want 0", got-ast.TraceBuilds)
	}
	// Each campaign trace was requested once per (scheduler, campaign); all
	// but the first request per (app, seed) must have been hits.
	if ast.TraceHits == 0 {
		t.Error("expected trace cache hits across overlapping campaigns")
	}
	// One learner training for the whole server.
	if ast.LearnerBuilds != 1 {
		t.Errorf("LearnerBuilds = %d, want 1", ast.LearnerBuilds)
	}

	// The memo cache on top: 4 identical campaigns, each unique session
	// simulated exactly once.
	bst := s.Stats()
	sessionsPer := len(apps) * len(seeds) * 5
	if want := int64(sessionsPer); bst.UniqueRuns != want {
		t.Errorf("UniqueRuns = %d, want %d", bst.UniqueRuns, want)
	}
	if want := int64(sessionsPer * (overlapping - 1)); bst.CacheHits != want {
		t.Errorf("CacheHits = %d, want %d", bst.CacheHits, want)
	}
	if bst.Artifacts == nil {
		t.Error("batch stats should carry the attached artifact-store counters")
	}
}
