package main

// metricDef is one entry of the benchmark's metric catalogue. BENCHMARK.json
// at the root of the repository repeats the catalogue for the driver; the
// self-test fails when the two differ.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
	// exact marks a count the program repeats bit for bit on the same seed;
	// -compare checks such metrics for equality, not against the bound.
	exact bool
}

// endToEnd are the metrics a user of the system sees; every workload emits
// all of them, from untraced runs only.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "assess_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s_per_assess", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wire_bytes_per_assess", Unit: "B", Better: "lower", Bound: 0.02, exact: true},
	{Name: "wire_msgs_per_assess", Unit: "count", Better: "lower", Bound: 0.02, exact: true},
	{Name: "enclave_peak_bytes", Unit: "B", Better: "lower", Bound: 0.02, exact: true},
}

// boundOf is the regression bound of an end-to-end metric.
func boundOf(name string) float64 {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Bound
		}
	}
	return 0
}

// perLayer are the metrics of single layers, taken in the traced pass; the
// layer is the module name before the first dot.
var perLayer = []metricDef{
	{Name: "service.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "service.self_s", Unit: "s", Better: "lower"},
	{Name: "service.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "service.reused_share", Unit: "ratio", Better: "higher"},
	{Name: "service.coalesced_share", Unit: "ratio", Better: "higher"},
	{Name: "service.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "federation.dial_s", Unit: "s", Better: "lower"},
	{Name: "federation.leader_self_s", Unit: "s", Better: "lower"},
	{Name: "federation.rpc_wait_s.counts", Unit: "s", Better: "lower"},
	{Name: "federation.rpc_wait_s.pairs", Unit: "s", Better: "lower"},
	{Name: "federation.rpc_wait_s.lr", Unit: "s", Better: "lower"},
	{Name: "federation.rpc_wait_s.result", Unit: "s", Better: "lower"},
	{Name: "federation.rpc_count.counts", Unit: "count", Better: "lower", exact: true},
	{Name: "federation.rpc_count.pairs", Unit: "count", Better: "lower", exact: true},
	{Name: "federation.rpc_count.lr", Unit: "count", Better: "lower", exact: true},
	{Name: "federation.round_trips_critical", Unit: "count", Better: "lower", exact: true},
	{Name: "attest.handshake_s", Unit: "s", Better: "lower"},
	{Name: "attest.handshake_cpu_s", Unit: "s", Better: "lower"},
	{Name: "transport.bytes.counts", Unit: "B", Better: "lower", exact: true},
	{Name: "transport.bytes.pairs", Unit: "B", Better: "lower", exact: true},
	{Name: "transport.bytes.lr", Unit: "B", Better: "lower", exact: true},
	{Name: "transport.bytes.attest", Unit: "B", Better: "lower", exact: true},
	{Name: "transport.bytes.result", Unit: "B", Better: "lower", exact: true},
	{Name: "transport.self_s", Unit: "s", Better: "lower"},
	{Name: "transport.seal_open_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "transport.tcp_rtt_s", Unit: "s", Better: "lower"},
	{Name: "wire.encode_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "wire.decode_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "core.member.counts_s", Unit: "s", Better: "lower"},
	{Name: "core.member.pairbatch_s", Unit: "s", Better: "lower"},
	{Name: "core.member.lrpattern_s", Unit: "s", Better: "lower"},
	{Name: "core.member.lrmatrix_s", Unit: "s", Better: "lower"},
	{Name: "core.phase_s.agg", Unit: "s", Better: "lower"},
	{Name: "core.phase_s.index", Unit: "s", Better: "lower"},
	{Name: "core.phase_s.ld", Unit: "s", Better: "lower"},
	{Name: "core.phase_s.lr", Unit: "s", Better: "lower"},
	{Name: "core.combinations", Unit: "count", Better: "lower", exact: true},
	{Name: "core.enclave_growth_bytes", Unit: "B", Better: "lower", exact: true},
	{Name: "genome.generate_s", Unit: "s", Better: "lower"},
	{Name: "genome.partition_s", Unit: "s", Better: "lower"},
	{Name: "genome.select_columns_s", Unit: "s", Better: "lower"},
	{Name: "genome.transpose_s", Unit: "s", Better: "lower"},
	{Name: "genome.pair_count_ns", Unit: "ns", Better: "lower"},
	{Name: "lrtest.buildbit_s", Unit: "s", Better: "lower"},
	{Name: "lrtest.merge_s", Unit: "s", Better: "lower"},
	{Name: "lrtest.reskin_s", Unit: "s", Better: "lower"},
	{Name: "lrtest.select_s", Unit: "s", Better: "lower"},
	{Name: "lrtest.encode_wire_s", Unit: "s", Better: "lower"},
	{Name: "lrtest.decode_wire_s", Unit: "s", Better: "lower"},
	{Name: "stats.ld_pvalue_ns", Unit: "ns", Better: "lower"},
	{Name: "combin.step_ns", Unit: "ns", Better: "lower"},
	{Name: "checkpoint.save_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.save_count", Unit: "count", Better: "lower", exact: true},
	{Name: "checkpoint.save_bytes", Unit: "B", Better: "lower"},
	{Name: "checkpoint.load_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.load_count", Unit: "count", Better: "lower", exact: true},
	{Name: "checkpoint.encode_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.decode_s", Unit: "s", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_assess", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_pause_s", Unit: "s", Better: "lower"},
	{Name: "runtime.rss_peak_bytes", Unit: "B", Better: "lower"},
	{Name: "loadgen.tail_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.over_limit_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.late_p99_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.backlog_end", Unit: "count", Better: "lower"},
	{Name: "trace.coverage_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// workloadDefs are the four workloads with the reason each exists; the
// parameters are in workload.go.
var workloadDefs = []struct{ Name, Why string }{
	{"fed3_base", "G=3, 10,000 SNPs x 14,860 genomes, no collusion, cold runs, closed loop of 1: genome/lrtest kernels (65% in the leader, 12% in members) and 1,680 pair-batch round trips dominate"},
	{"fed5_collusion", "same cohort, G=5, conservative collusion (31 combinations): the leader's Phase-3 lattice walk (71%) and 33 checkpoint saves (22%) dominate; members and transport are under 8%"},
	{"svc_cold", "service in front of G=3 over 1,000 SNPs x 7,430 genomes, closed loop of 2, distinct fingerprints: per-request fixed costs show (queue wait, dial, attestation, 190 small round trips, 3 fsyncs)"},
	{"svc_replay", "same service, 8 repeated request shapes at a fixed open-loop 20 req/s: checkpoint load, attestation and leader bookkeeping with zero member kernel work; kernel changes must read no change"},
}
