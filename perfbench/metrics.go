package main

// metricDef names one reported metric. moves states which end-to-end
// metric, on which workload, a change of this metric should move; it is
// written down before any measurement so a later change can be held to
// it.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd is what a user of the engine sees, reported by untraced runs
// on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "Open + DDL + table load + query registration + Start, median of the run's set-ups"},
	{"max_tps", "tuples/s", "higher", "closed loop: input tuples whose results were all delivered, per second"},
	{"p50_ms.light", "ms", "lower", "open loop at the light rate: due send time to result receipt, median"},
	{"p90_ms.light", "ms", "lower", "open loop at the light rate: 90th percentile"},
	{"p50_ms.heavy", "ms", "lower", "open loop at the heavy rate: median"},
	{"p90_ms.heavy", "ms", "lower", "open loop at the heavy rate: 90th percentile, judged against the workload's limit"},
	{"peak_heap_mb", "MiB", "lower", "Go heap in use during the max_tps phase: the median 1 s segment's peak"},
	{"recovery_s", "s", "lower", "datacell.Open on a crash image (checkpoint + fixed WAL tail) of the workload's engine, fastest of 7"},
}

// layerMetrics are the per-layer metrics of a traced run. Layers are the
// repository's modules.
var layerMetrics = []metricDef{
	{"datacell.ingest_us_per_batch", "us", "lower", "max_tps on all workloads; p90_ms.heavy on durable_join (includes the WAL wait)"},
	{"datacell.register_ms_per_query", "ms", "lower", "setup_s and p90_ms.* on filter_fanout"},
	{"datacell.churn_ms", "ms", "lower", "setup_s and p90_ms.* on filter_fanout"},
	{"datacell.backlog_max", "tuples", "lower", "p90_ms.heavy on all workloads; growth means the rate is unsustainable"},
	{"route.add_us", "us", "lower", "setup_s and max_tps on filter_fanout; no change elsewhere"},
	{"route.match_us_per_batch", "us", "lower", "setup_s and max_tps on filter_fanout; no change elsewhere"},
	{"route.matched_frac", "ratio", "higher", "max_tps on filter_fanout"},
	{"route.evals_per_batch", "count", "lower", "max_tps on filter_fanout"},
	{"factory.fire_busy_frac", "ratio", "lower", "max_tps on all workloads; p50_ms.* on filter_fanout"},
	{"factory.fire_us_mean", "us", "lower", "max_tps on all workloads; p50_ms.* on filter_fanout"},
	{"factory.queue_us_mean", "us", "lower", "max_tps on all workloads; p50_ms.* on filter_fanout"},
	{"factory.out_per_in", "ratio", "higher", "max_tps on all workloads (a change means results changed)"},
	{"partition.split_us_per_batch", "us", "lower", "max_tps on windowed_agg"},
	{"partition.merge_busy_frac", "ratio", "lower", "p90_ms.* and max_tps on windowed_agg"},
	{"partition.merge_queue_us_mean", "us", "lower", "p90_ms.* and max_tps on windowed_agg"},
	{"partition.merge_lag_max", "tuples", "lower", "p90_ms.* and max_tps on windowed_agg"},
	{"partition.shard_skew", "ratio", "lower", "p90_ms.* and max_tps on windowed_agg"},
	{"window.late_tuples", "tuples", "lower", "p90_ms.* on windowed_agg; must stay 0"},
	{"window.watermark_lag_ms", "ms", "lower", "p90_ms.* on windowed_agg"},
	{"exec.join_state_rows", "rows", "lower", "max_tps and peak_heap_mb on durable_join"},
	{"exec.join_evictions", "rows", "higher", "max_tps and peak_heap_mb on durable_join"},
	{"exec.join_out_per_in", "ratio", "higher", "max_tps and peak_heap_mb on durable_join"},
	{"wal.commit_us_mean", "us", "lower", "max_tps and p90_ms.heavy on durable_join; no change elsewhere"},
	{"wal.fsync_us_mean", "us", "lower", "max_tps and p90_ms.heavy on durable_join; no change elsewhere"},
	{"wal.batches_per_fsync", "count", "higher", "max_tps and p90_ms.heavy on durable_join; no change elsewhere"},
	{"wal.bytes_per_tuple", "bytes", "lower", "max_tps and p90_ms.heavy on durable_join; no change elsewhere"},
	{"checkpoint.ms_mean", "ms", "lower", "recovery_s and max_tps on durable_join; its pause, once a second, delays too few results to show in p90"},
	{"checkpoint.count", "count", "lower", "recovery_s and max_tps on durable_join; its pause, once a second, delays too few results to show in p90"},
	{"checkpoint.bytes", "bytes", "lower", "recovery_s and max_tps on durable_join; its pause, once a second, delays too few results to show in p90"},
	{"adapters.delivery_us_mean", "us", "lower", "p50_ms.* on filter_fanout"},
	{"adapters.deliver_busy_frac", "ratio", "lower", "p50_ms.* on filter_fanout"},
	{"adapters.rows_per_batch", "rows", "higher", "p50_ms.* on filter_fanout"},
	{"scheduler.busy_frac", "ratio", "lower", "p90_ms.heavy on all workloads"},
	{"scheduler.claim_miss_frac", "ratio", "lower", "p90_ms.heavy on all workloads"},
	{"scheduler.coalesced_per_fire", "count", "higher", "p90_ms.heavy on all workloads"},
	{"basket.resident_max", "tuples", "lower", "peak_heap_mb on all workloads"},
	{"runtime.alloc_bytes_per_tuple", "bytes", "lower", "max_tps on filter_fanout"},
	{"runtime.gc_cpu_frac", "ratio", "lower", "max_tps on filter_fanout"},
	{"gen.lag_p99_ms", "ms", "lower", "none: shows whether the generator distorted the run"},
	{"gen.tracing_overhead_pct", "%", "lower", "none: shows whether tracing distorted the run"},
}
