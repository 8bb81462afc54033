package obs

import (
	"strconv"
	"strings"
	"testing"
)

// solverStats is walked through an untagged struct field.
type solverStats struct {
	Solves int `metric:"pes_t_solves_total" help:"solves"`
}

// storeStats is walked through an untagged pointer field.
type storeStats struct {
	Builds int64 `metric:"pes_t_builds_total,kind=store" help:"builds"`
	Hits   int64 `metric:"pes_t_hits_total,kind=store,tier=disk" help:"hits"`
}

type outerStats struct {
	Sessions int64 `metric:"pes_t_sessions_total" help:"sessions"`
	Entries  int   `metric:"pes_t_entries" help:"entries"`
	Crashed  bool  `metric:"pes_t_crashed" help:"crashed"`
	Untagged int64
	Name     string
	Solver   solverStats
	Store    *storeStats
	Absent   *solverStats
	Skipped  storeStats `metric:"-"`
}

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSnapshotExposition pins the whole exposition of one snapshot: label
// tags, counter-vs-gauge by the _total suffix, nested and pointer walking,
// no series for a pointer nil at registration, a "-" field or an untagged
// scalar, and bools as 0/1. A pointer that turns nil after registration
// reads 0.
func TestSnapshotExposition(t *testing.T) {
	r := NewRegistry()
	st := outerStats{
		Sessions: 5, Entries: 2, Crashed: true, Untagged: 9, Name: "x",
		Solver:  solverStats{Solves: 3},
		Store:   &storeStats{Builds: 6, Hits: 7},
		Skipped: storeStats{Builds: 8, Hits: 8},
	}
	Snapshot(r, func() outerStats { return st })
	want := `# HELP pes_t_builds_total builds
# TYPE pes_t_builds_total counter
pes_t_builds_total{kind="store"} 6
# HELP pes_t_crashed crashed
# TYPE pes_t_crashed gauge
pes_t_crashed 1
# HELP pes_t_entries entries
# TYPE pes_t_entries gauge
pes_t_entries 2
# HELP pes_t_hits_total hits
# TYPE pes_t_hits_total counter
pes_t_hits_total{kind="store",tier="disk"} 7
# HELP pes_t_sessions_total sessions
# TYPE pes_t_sessions_total counter
pes_t_sessions_total 5
# HELP pes_t_solves_total solves
# TYPE pes_t_solves_total counter
pes_t_solves_total 3
`
	if got := scrape(t, r); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}

	st.Store, st.Absent, st.Crashed = nil, &solverStats{Solves: 1}, false
	got := scrape(t, r)
	for _, line := range []string{`pes_t_builds_total{kind="store"} 0`, "pes_t_crashed 0", "pes_t_solves_total 3"} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("after Store turned nil, scrape lacks %q:\n%s", line, got)
		}
	}
}

// TestSnapshotSamplesOncePerScrape: a scrape reads every series of a
// snapshot from one call of its sample function, whatever the number of
// tagged fields, and each scrape samples afresh.
func TestSnapshotSamplesOncePerScrape(t *testing.T) {
	r := NewRegistry()
	calls := 0
	Snapshot(r, func() outerStats {
		calls++
		return outerStats{Sessions: int64(calls), Entries: calls, Store: &storeStats{Builds: int64(calls)}}
	})
	other := 0
	Snapshot(r, func() (v struct {
		N int `metric:"pes_t_other"`
	}) {
		other++
		return
	})
	for i := 1; i <= 3; i++ {
		before, otherBefore := calls, other
		body := scrape(t, r)
		if calls-before != 1 || other-otherBefore != 1 {
			t.Fatalf("scrape %d sampled the snapshots %d and %d times, want once each", i, calls-before, other-otherBefore)
		}
		// Every series of the snapshot carries the value of that one call.
		for _, line := range []string{"pes_t_sessions_total", "pes_t_entries", `pes_t_builds_total{kind="store"}`} {
			if want := line + " " + strconv.Itoa(calls) + "\n"; !strings.Contains(body, want) {
				t.Errorf("scrape %d lacks %q:\n%s", i, want, body)
			}
		}
	}
}
