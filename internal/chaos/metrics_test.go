package chaos

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRegisterMetricsExposesFaultCounters scrapes a fresh injector's Stats
// registered as a snapshot: every fault family must render (all zero —
// nothing injected yet), because the chaos-smoke gate reads these series to
// prove faults actually happened.
func TestRegisterMetricsExposesFaultCounters(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Snapshot(reg, New(Config{Seed: 1}).Stats)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, series := range []string{
		"pes_chaos_shard_faults_total 0",
		"pes_chaos_torn_responses_total 0",
		"pes_chaos_delays_total 0",
		"pes_chaos_ping_faults_total 0",
		"pes_chaos_short_writes_total 0",
		"pes_chaos_crashed 0",
	} {
		if !strings.Contains(body, "\n"+series+"\n") {
			t.Errorf("scrape is missing series %q", series)
		}
	}
}
