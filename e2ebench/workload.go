package main

import (
	"fmt"
	"math/rand"

	"repro/internal/server"
	"repro/internal/sessions"
	"repro/internal/webapp"
)

// workload is one traffic mix: which service topology serves it and which
// pool of campaigns the closed-loop client cycles through.
type workload struct {
	name string
	// cluster shards campaigns across a coordinator and two workers; false
	// executes them in the server's own process.
	cluster bool
	// pool is how many campaigns the workload cycles through. A pool larger
	// than the bounded caches (poolSize) misses them on every campaign; one
	// that fits (repeatPool) hits the memo cache on every campaign once warm.
	pool int
	// ndjson fetches results as streamed NDJSON rows instead of the full
	// JSON results document.
	ndjson bool
}

var workloads = []workload{
	{name: "fresh-inproc", pool: poolSize, ndjson: true},
	{name: "repeat-cluster", cluster: true, pool: repeatPool},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// appsPerCampaign apps each replay one trace under all five schedulers
	// plus one swept PES point: 3 × 6 = 18 sessions per campaign.
	appsPerCampaign     = 3
	sessionsPerCampaign = appsPerCampaign * 6
	// sweepThreshold is the extra PES confidence threshold every campaign
	// sweeps (the default is 0.7, so the point never collapses into it).
	sweepThreshold = 0.3
	// poolSize campaigns hold 96 × 18 sessions and 96 × 3 traces, more than
	// the memo cache and the trace cache keep (cacheEntries), so cycling
	// through them in a fixed order misses both every time. Cycling rather
	// than drawing ever-new trace seeds keeps the process-wide DOM page-tree
	// cache, which has no bound, at a fixed size.
	poolSize = 96
	// repeatPool campaigns are one turn of the app rotation: all 18 apps,
	// 108 sessions, well inside the memo cache.
	repeatPool = 6
	// poolTraceSeed is the trace seed of pool campaign 0.
	poolTraceSeed = 100_000
)

// poolCampaign returns campaign j of the pools: three consecutive apps of
// the registry, rotating by three per campaign, on trace seed
// poolTraceSeed+j. Every seed runs the same pool, so the mix of cheap and
// expensive campaigns — and with it the latency distribution — does not
// change from seed to seed; the seed only orders the pool.
func poolCampaign(j int) server.Campaign {
	reg := webapp.Registry()
	apps := make([]string, appsPerCampaign)
	for k := range apps {
		apps[k] = reg[(appsPerCampaign*j+k)%len(reg)].Name
	}
	return server.Campaign{
		Apps:       apps,
		TraceSeeds: []int64{poolTraceSeed + int64(j)},
		Schedulers: sessions.Names(),
		Sweep:      &server.Sweep{ConfidenceThresholds: []float64{sweepThreshold}},
	}
}

// schedule is the order in which a run submits a workload's pool, drawn
// from the run's seed and repeated for as long as the run lasts.
type schedule []int

func (w workload) schedule(seed int64) schedule {
	return rand.New(rand.NewSource(seed)).Perm(w.pool)
}

// campaign returns the run's i-th campaign.
func (s schedule) campaign(i int) server.Campaign { return poolCampaign(s[i%len(s)]) }
