package cluster

import "repro/internal/obs"

// RegisterMetrics exposes every metric-tagged field of the coordinator's
// Stats snapshot as Prometheus series on reg — sampled once per scrape from
// the same snapshot /healthz serves, so the two can never disagree — and
// attaches the native shard round-trip histogram. Call once at wiring time,
// before the coordinator serves campaigns.
func (c *Coordinator) RegisterMetrics(reg *obs.Registry) {
	obs.Snapshot(reg, c.Stats)
	c.shardLatency = reg.Histogram("pes_shard_roundtrip_seconds",
		"Round-trip wall time of one successful shard dispatch.")
}
