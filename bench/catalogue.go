package main

// metricDef is one named metric. The names are the benchmark's contract:
// every later change is judged by them, and BENCHMARK.json lists exactly
// these (report_test.go holds the two together).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" | "higher"
	// Bound is the regression bound of an end-to-end metric. It lives in
	// BENCHMARK.json only (written by -calibrate, read by -compare); the
	// catalogue below leaves it zero.
	Bound float64 `json:"bound,omitempty"`
	// Source is how a per-layer metric is measured: H = harness spans,
	// C = counters the layers export, P = isolated probe.
	Source string `json:"-"`
	Doc    string `json:"-"`
}

// workloadDef is one workload with the reason it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{wlFleetSteady, "every layer on the submit-to-COMPLETED path with no contention: jobs per wall second and clean deploy latency"},
	{wlFleetFaults, "recovery, redeploy and election paths do the work: a change that weakens recovery shows here, not in fleet-steady"},
	{wlMetaWrite, "replicated write path only (batcher, raft, applyBatch, store, hub): where a raft, etcd or store change must show"},
	{wlMetaMixed, "the platform's measured Put/Delete/Get/Range ratio: lease reads bypass the clock and the write path, so a tax on reads shows here"},
}

// setupMetric is the set-up time the driver's contract names: its spread
// across runs does not gate, and it takes the largest bound.
const setupMetric = "setup_s"

// endToEnd are the metrics a user of the system sees. Each is defined on
// every workload ("op" = one job in fleet-*, one KV call in meta-*;
// "request" = one Client API call in fleet-*, one KV call in meta-*),
// because the driver reads every one of them from every untraced run.
// Their bounds are BENCHMARK.json's.
var endToEnd = []metricDef{
	{Name: setupMetric, Unit: "s", Better: "lower",
		Doc: "build → ready (platform booted and datasets staged, or cluster elected and keys preloaded); median of 5 builds"},
	{Name: "ops_per_wall_s", Unit: "1/s", Better: "higher",
		Doc: "ops completed ÷ wall seconds of the timed phase (first call → last COMPLETED / last reply)"},
	{Name: "request_wall_us_p50", Unit: "us", Better: "lower",
		Doc: "client-observed wall latency of one request, median"},
	{Name: "makespan_virtual_s", Unit: "s", Better: "lower",
		Doc: "the timed phase on the system's virtual clock: guards against buying wall time by changing simulated behaviour"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower",
		Doc: "runtime.MemStats.Mallocs delta of the timed phase ÷ ops"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower",
		Doc: "ru_maxrss after the verify phase"},
}

// perLayer are the traced run's metrics, grouped by the package they
// measure. A metric that a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// End-to-end readings of single workloads. They cannot be gated
	// end-to-end metrics because no other workload produces them.
	{Name: "jobs_per_wall_s", Unit: "1/s", Better: "higher", Source: "H", Doc: "fleet-*: jobs COMPLETED ÷ timed wall seconds"},
	{Name: "job_deploy_virtual_ms_p50", Unit: "ms", Better: "lower", Source: "H", Doc: "fleet-*: submit → first PROCESSING event, from Client.Events"},
	{Name: "recovery_virtual_s_mean", Unit: "s", Better: "lower", Source: "H", Doc: "fleet-faults: mean of all recovery samples"},
	{Name: "put_wall_us_p50", Unit: "us", Better: "lower", Source: "H", Doc: "meta-*: Put commit latency, wall"},
	{Name: "put_wall_us_p99", Unit: "us", Better: "lower", Source: "H", Doc: "meta-*: same, 99th percentile"},
	{Name: "put_virtual_ms_p50", Unit: "ms", Better: "lower", Source: "H", Doc: "meta-*: same on the sim clock: protocol rounds × injected delay"},
	{Name: "get_wall_us_p50", Unit: "us", Better: "lower", Source: "H", Doc: "meta-mixed: linearizable lease-read Get"},
	{Name: "range_wall_us_p50", Unit: "us", Better: "lower", Source: "H", Doc: "meta-mixed: 16-key prefix Range"},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Source: "H", Doc: "failed ÷ attempted checks (0 on a correct run, so it cannot carry a relative bound)"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Source: "H", Doc: "user+system CPU of the timed phase (getrusage) ÷ ops; four fifths of it is the clock's idle-advance polling, whose cost moved 17 % between two sets of ten runs of one commit, so it cannot be gated yet"},
	{Name: "request_wall_us_p90", Unit: "us", Better: "lower", Source: "H", Doc: "request latency, 90th percentile (≥100 requests everywhere, so ≥10 samples lie beyond it); in fleet-* it flips between whole numbers of clock instants, too unsteady to gate"},

	{Name: "clock.sleep_wall_us", Unit: "us", Better: "lower", Source: "P", Doc: "wall time per virtual instant: one sleeper on clock.NewSim"},
	{Name: "clock.timer_fire_ns", Unit: "ns", Better: "lower", Source: "P", Doc: "NewTimer + fire on clock.NewManual under Advance"},
	{Name: "clock.afterfunc_allocs", Unit: "count", Better: "lower", Source: "P", Doc: "allocations per AfterFunc fired on clock.NewManual"},
	{Name: "clock.idle_wall_share", Unit: "ratio", Better: "lower", Source: "H", Doc: "1 − CPU seconds ÷ wall seconds of the timed phase"},

	{Name: "store.commit_ns", Unit: "ns", Better: "lower", Source: "P", Doc: "Engine.Commit of one Put, 4096 keys"},
	{Name: "store.commit8_ns", Unit: "ns", Better: "lower", Source: "P", Doc: "Engine.Commit of eight Puts"},
	{Name: "store.commit_allocs", Unit: "count", Better: "lower", Source: "P", Doc: "allocations per one-Put Commit"},
	{Name: "store.get_ns", Unit: "ns", Better: "lower", Source: "P", Doc: "Engine.Get"},
	{Name: "store.scan64_us", Unit: "us", Better: "lower", Source: "P", Doc: "Engine.Scan of a 64-key prefix"},
	{Name: "store.watch_fanout16_us", Unit: "us", Better: "lower", Source: "P", Doc: "one Put delivered to 16 prefix watchers"},
	{Name: "store.export_import_ms", Unit: "ms", Better: "lower", Source: "P", Doc: "Export of 4096 keys + Import into a fresh engine"},

	{Name: "raft.propose_apply_wall_us", Unit: "us", Better: "lower", Source: "P", Doc: "leader Propose → entry on its apply channel, 3-node NewCluster, wall"},
	{Name: "raft.propose_apply_virtual_ms", Unit: "ms", Better: "lower", Source: "P", Doc: "same on the sim clock"},
	{Name: "raft.lease_readindex_ns", Unit: "ns", Better: "lower", Source: "P", Doc: "leader ReadIndex under a live lease"},
	{Name: "raft.failover_virtual_ms", Unit: "ms", Better: "lower", Source: "P", Doc: "leader crash → new leader, virtual"},
	{Name: "raft.entries_per_append", Unit: "ratio", Better: "higher", Source: "C", Doc: "log entries ÷ AppendEntries messages (heartbeats included)"},
	{Name: "raft.append_rejects", Unit: "count", Better: "lower", Source: "C", Doc: "log-consistency rejects in the timed phase"},

	{Name: "etcd.txn_wall_us_p50", Unit: "us", Better: "lower", Source: "H", Doc: "meta-write: guarded 2-op Txn"},
	{Name: "etcd.delete_wall_us_p50", Unit: "us", Better: "lower", Source: "H", Doc: "meta-mixed: Delete"},
	{Name: "etcd.watch_delivery_wall_us_p50", Unit: "us", Better: "lower", Source: "H", Doc: "meta-*: start of the writing call → its event at the prefix watcher"},
	{Name: "etcd.proposals_per_write", Unit: "ratio", Better: "lower", Source: "C", Doc: "raft proposals ÷ client writes"},
	{Name: "etcd.cmds_per_batch", Unit: "ratio", Better: "higher", Source: "C", Doc: "client commands ÷ group-commit batches"},
	{Name: "etcd.lease_reads_per_read", Unit: "ratio", Better: "higher", Source: "C", Doc: "reads answered from a live lease ÷ Get+Range"},
	{Name: "etcd.rounds_per_read", Unit: "ratio", Better: "lower", Source: "C", Doc: "read-index confirmation rounds ÷ Get+Range"},
	{Name: "etcd.op_fail_share", Unit: "ratio", Better: "lower", Source: "C", Doc: "timed-out or rejected client ops ÷ all client ops"},
	{Name: "etcd.puts_per_job", Unit: "count", Better: "lower", Source: "C", Doc: "fleet-*: platform Puts per job"},
	{Name: "etcd.deletes_per_job", Unit: "count", Better: "lower", Source: "C"},
	{Name: "etcd.gets_per_job", Unit: "count", Better: "lower", Source: "C"},
	{Name: "etcd.ranges_per_job", Unit: "count", Better: "lower", Source: "C"},
	{Name: "etcd.watches_per_job", Unit: "count", Better: "lower", Source: "C"},
	{Name: "etcd.proposals_per_job", Unit: "count", Better: "lower", Source: "C"},
	{Name: "etcd.failover_virtual_ms", Unit: "ms", Better: "lower", Source: "H", Doc: "fleet-faults: etcd leader crash → first successful Put"},

	{Name: "mongo.insert_us", Unit: "us", Better: "lower", Source: "P", Doc: "InsertOne into a 1k-document collection"},
	{Name: "mongo.find_one_us", Unit: "us", Better: "lower", Source: "P", Doc: "FindOne by _id"},
	{Name: "mongo.update_one_us", Unit: "us", Better: "lower", Source: "P", Doc: "UpdateOne by _id"},
	{Name: "mongo.writes_per_job", Unit: "count", Better: "lower", Source: "C", Doc: "fleet-*: committed job-collection writes per job"},

	{Name: "rpc.call_wall_us", Unit: "us", Better: "lower", Source: "P", Doc: "Bus.Call to an echo handler on a sim clock, wall"},
	{Name: "rpc.call_allocs", Unit: "count", Better: "lower", Source: "P"},

	{Name: "api.submit_wall_ms_p50", Unit: "ms", Better: "lower", Source: "H", Doc: "fleet-*: Client.Submit, wall"},
	{Name: "api.submit_virtual_ms_p50", Unit: "ms", Better: "lower", Source: "H"},
	{Name: "api.status_wall_us_p50", Unit: "us", Better: "lower", Source: "H", Doc: "fleet-*: Client.Status, wall"},
	{Name: "api.status_calls_per_job", Unit: "count", Better: "lower", Source: "H"},
	{Name: "api.requests_per_job", Unit: "count", Better: "lower", Source: "C", Doc: "api_requests_total delta ÷ jobs"},

	{Name: "kube.place_gang_us", Unit: "us", Better: "lower", Source: "P", Doc: "SubmitGang + CancelGang, mixed 1/2/4-member gangs on 64 nodes"},
	{Name: "kube.create_pod_us", Unit: "us", Better: "lower", Source: "P", Doc: "CreatePod + DeletePod on 64 nodes"},

	{Name: "job.phase_queue_virtual_ms", Unit: "ms", Better: "lower", Source: "C", Doc: "fleet-*: median per-job critical-path share, trace.CriticalPath"},
	{Name: "job.phase_deploy_virtual_ms", Unit: "ms", Better: "lower", Source: "C"},
	{Name: "job.phase_image-pull_virtual_ms", Unit: "ms", Better: "lower", Source: "C"},
	{Name: "job.phase_rendezvous_virtual_ms", Unit: "ms", Better: "lower", Source: "C"},
	{Name: "job.phase_download_virtual_ms", Unit: "ms", Better: "lower", Source: "C"},
	{Name: "job.phase_train_virtual_ms", Unit: "ms", Better: "lower", Source: "C"},
	{Name: "job.phase_checkpoint_virtual_ms", Unit: "ms", Better: "lower", Source: "C"},
	{Name: "job.phase_store_virtual_ms", Unit: "ms", Better: "lower", Source: "C"},
	{Name: "job.phase_control_virtual_ms", Unit: "ms", Better: "lower", Source: "C"},
	{Name: "job.phase_recovery_virtual_ms", Unit: "ms", Better: "lower", Source: "C"},
	{Name: "guardian.monitor_events_per_job", Unit: "count", Better: "lower", Source: "C"},
	{Name: "guardian.monitor_relists_per_job", Unit: "count", Better: "lower", Source: "C"},
	{Name: "guardian.monitor_backstops_per_job", Unit: "count", Better: "lower", Source: "C"},
	{Name: "lcm.feed_events_per_job", Unit: "count", Better: "lower", Source: "C"},
	{Name: "api.recovery_virtual_s", Unit: "s", Better: "lower", Source: "H", Doc: "fleet-faults: pod kill → replacement Running, mean"},
	{Name: "lcm.recovery_virtual_s", Unit: "s", Better: "lower", Source: "H"},
	{Name: "guardian.recovery_virtual_s", Unit: "s", Better: "lower", Source: "H"},
	{Name: "helper.recovery_virtual_s", Unit: "s", Better: "lower", Source: "H"},
	{Name: "learner.recovery_virtual_s", Unit: "s", Better: "lower", Source: "H"},

	{Name: "trace.span_ns", Unit: "ns", Better: "lower", Source: "P", Doc: "Recorder.StartSpan + End"},
	{Name: "trace.critical_path_us", Unit: "us", Better: "lower", Source: "P", Doc: "CriticalPath over a 256-span tree"},
	{Name: "trace.spans_per_job", Unit: "count", Better: "lower", Source: "C"},
	{Name: "metrics.observe_ns", Unit: "ns", Better: "lower", Source: "P", Doc: "Registry.Observe"},
	{Name: "metrics.export_100k_us", Unit: "us", Better: "lower", Source: "P", Doc: "Registry.Export after 100k samples"},
	{Name: "events.encode_ns", Unit: "ns", Better: "lower", Source: "P", Doc: "Envelope.Encode of a learner status"},
	{Name: "events.decode_ns", Unit: "ns", Better: "lower", Source: "P"},

	{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower", Source: "H", Doc: "sampled every 50 ms of the timed phase"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower", Source: "H"},
	{Name: "runtime.heap_inuse_peak_mb", Unit: "MB", Better: "lower", Source: "H"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", Source: "H", Doc: "harness spans recorded × probed cost of one ÷ timed wall; the all-workloads command also prints traced ÷ untraced wall − 1"},
}

// catalogueFor lists the metrics a run reports: the per-layer ones when
// traced, the end-to-end ones when not.
func catalogueFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
