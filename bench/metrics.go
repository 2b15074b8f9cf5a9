package main

// metricDef names one metric the benchmark emits. BENCHMARK.json at the
// repository root lists the same names, units and directions (a test keeps
// the two in step); README.md gives each one's definition.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// source says how a per-layer metric is obtained: "C" an exact count
	// from the trace.Metrics delta, "T" a stage median of the traced
	// repetitions, "D" direct timed calls into the layer, "S" measured in
	// situ by the driver or the bench guests around the untraced
	// repetitions.
	source string
}

// endToEnd is what a user of the system sees; each has a regression bound
// in BENCHMARK.json. Every one is reported on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "lat_p50_us", unit: "us", better: "lower"},
	{name: "lat_p99_us", unit: "us", better: "lower"},
	{name: "alloc_bytes_per_op", unit: "B/op", better: "lower"},
}

// perLayer metrics have no bound. A metric that does not apply to a
// workload (recovery figures without a crash, sync figures without a
// backup) reads 0 there.
var perLayer = []metricDef{
	{"wire.batch_encode_ns_per_msg", "ns", "lower", "D"},
	{"wire.batch_decode_ns_per_msg", "ns", "lower", "D"},

	{"bus.broadcast_ns_per_msg", "ns", "lower", "D"},
	{"bus.popall_ns_per_msg", "ns", "lower", "D"},
	{"bus.transmit_to_receive_us", "us", "lower", "T"},
	{"bus.mean_batch", "count", "higher", "C"},
	{"bus.transmissions_per_op", "count/op", "lower", "C"},
	{"bus.bytes_per_op", "B/op", "lower", "C"},
	{"bus.deliveries_per_transmission", "count", "lower", "C"},
	{"bus.inbox_peak", "count", "lower", "C"},

	{"routing.enqueue_dequeue_ns", "ns", "lower", "D"},

	{"kernel.write_to_transmit_us", "us", "lower", "T"},
	{"kernel.receive_to_deliver_us", "us", "lower", "T"},
	{"kernel.deliver_to_read_us", "us", "lower", "T"},
	{"kernel.receive_to_save_us", "us", "lower", "T"},
	{"kernel.receive_to_count_us", "us", "lower", "T"},
	{"kernel.primary_deliveries_per_op", "count/op", "lower", "C"},
	{"kernel.backup_saves_per_op", "count/op", "lower", "C"},
	{"kernel.sender_counts_per_op", "count/op", "lower", "C"},

	{"kernel.syncs_per_kop", "count", "lower", "C"},
	{"kernel.pages_out_per_sync", "count", "lower", "C"},
	{"kernel.messages_discarded_per_sync", "count", "lower", "C"},
	{"kernel.sync_to_apply_us", "us", "lower", "T"},
	{"kernel.sync_stall_us", "us", "lower", "T"},

	{"memory.kv_flush_us", "us", "lower", "D"},
	{"memory.capture_dirty_us", "us", "lower", "D"},
	{"memory.pages_dirtied_per_flush", "count", "lower", "D"},

	{"pager.page_out_us_per_page", "us", "lower", "D"},
	{"pager.sync_commit_us", "us", "lower", "D"},
	{"pager.page_request_us", "us", "lower", "D"},
	{"pager.page_bytes_per_op", "B/op", "lower", "C"},
	{"pager.pages_fetched_per_recovery", "count", "lower", "C"},
	{"disk.write_us_per_block", "us", "lower", "D"},

	{"kernel.recovery_us_per_proc", "us", "lower", "C"},
	{"kernel.replayed_per_recovery", "count", "lower", "C"},
	{"kernel.suppressed_per_recovery", "count", "lower", "C"},
	{"kernel.crash_to_recover_us", "us", "lower", "T"},
	{"kernel.duplicate_replies", "count", "lower", "S"},
	{"kernel.phantom_applies", "count", "lower", "S"},

	// Failover only. These three are end-to-end by nature; they sit here
	// because an end-to-end metric must be non-zero on every workload
	// (README, "Why the fail-over figures are per-layer").
	{"stall_p50_us", "us", "lower", "S"},
	{"stall_p90_us", "us", "lower", "S"},
	{"repair_p50_us", "us", "lower", "S"},
	{"failover.crash_cycles", "count", "higher", "S"},

	{"core.boot_us", "us", "lower", "S"},
	{"core.spawn_us", "us", "lower", "S"},
	{"core.crash_call_us", "us", "lower", "S"},
	{"core.repair_call_us", "us", "lower", "S"},
	{"core.wait_redundant_us", "us", "lower", "S"},
	{"core.stop_us", "us", "lower", "S"},

	{"guest.write_call_us", "us", "lower", "S"},
	{"runtime.allocs_per_op", "count/op", "lower", "S"},
	{"runtime.gc_cycles", "count", "lower", "S"},
	{"runtime.gc_pause_total_ms", "ms", "lower", "S"},
	{"runtime.goroutines_peak", "count", "lower", "S"},

	{"bench.trace_overhead_pct", "%", "lower", "T"},
	{"bench.trace_join_pct", "%", "higher", "T"},
	{"bench.budget_residual_pct", "%", "lower", "T"},
	{"bench.calib_ns_per_iter", "ns", "lower", "S"},
}
