package cluster

import "repro/internal/obs"

// RegisterMetrics exposes the coordinator's counter families as Prometheus
// series on reg — sampled from the same atomics Stats() snapshots, so
// /healthz and /metrics can never disagree — and attaches the native shard
// round-trip histogram. Call once at wiring time, before the coordinator
// serves campaigns.
func (c *Coordinator) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("pes_cluster_workers",
		"Currently healthy cluster members.",
		func() float64 { return float64(len(c.members.healthy())) })
	reg.CounterFunc("pes_cluster_shards_total",
		"Shard dispatches, re-dispatches after worker failure included.",
		func() float64 { return float64(c.shards.Load()) })
	reg.CounterFunc("pes_cluster_sessions_routed_total",
		"Sessions inside dispatched shards.",
		func() float64 { return float64(c.sessionsRouted.Load()) })
	reg.CounterFunc("pes_cluster_retries_total",
		"Redistribution events after a worker failure.",
		func() float64 { return float64(c.retries.Load()) })
	reg.CounterFunc("pes_cluster_worker_failures_total",
		"Failed shard dispatches that caused re-routing.",
		func() float64 { return float64(c.workerFailures.Load()) })
	reg.CounterFunc("pes_cluster_steals_total",
		"Dispatches an idle worker stole from the longest queue.",
		func() float64 { return float64(c.steals.Load()) })
	reg.CounterFunc("pes_cluster_sessions_stolen_total",
		"Sessions inside stolen dispatches.",
		func() float64 { return float64(c.sessionsStolen.Load()) })
	reg.CounterFunc("pes_cluster_spill_overs_total",
		"Fallbacks to local in-process execution (no live workers).",
		func() float64 { return float64(c.spillOvers.Load()) })
	reg.CounterFunc("pes_cluster_sessions_spilled_total",
		"Sessions executed on the local spill-over worker.",
		func() float64 { return float64(c.sessionsSpilled.Load()) })
	reg.CounterFunc("pes_cluster_client_faults_total",
		"Campaigns rejected for a deterministic client fault (4xx).",
		func() float64 { return float64(c.clientFaults.Load()) })
	reg.CounterFunc("pes_cluster_probes_skipped_total",
		"Health probes suppressed by a member's failure backoff window.",
		func() float64 { return float64(c.probesSkipped.Load()) })
	c.shardLatency = reg.Histogram("pes_shard_roundtrip_seconds",
		"Round-trip wall time of one successful shard dispatch.")
}
