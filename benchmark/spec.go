package main

import "encoding/json"

// This file is the single list of what the benchmark measures: workloads,
// end-to-end metrics with their regression bounds, and per-layer metrics
// with the end-to-end metric each one should move. BENCHMARK.json is
// `-spec` output; the tests fail when the two drift apart.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// run executes the workload and fills the result; not part of the spec.
	run func(*env) `json:"-"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Moves names the end-to-end metric and workload this per-layer metric
	// should move (README table); not part of BENCHMARK.json.
	Moves string `json:"-"`
}

// runSeconds is how long one driver run measures (BENCHMARK.json
// run_seconds, also the default of -seconds).
const runSeconds = 16

var workloads = []workloadSpec{
	{Name: "chain-sat", run: runChainSat,
		Why: "64 B packets, 256 flows, saturating closed loop: per-packet ring+dispatch+NF cost sets the rate; control plane idle"},
	{Name: "chain-flows16k", run: runChainFlows16k,
		Why: "same chain, 16384 flows round-robin: per-flow table cost (NAT expiry scan) dominates, ring/dispatch almost nothing"},
	{Name: "chain-ping", run: runChainPing,
		Why: "same chain, one 64-packet burst in flight: hop wake-up and handoff latency instead of throughput"},
	{Name: "move-idle", run: runMoveIdle,
		Why: "20000x202 B dummy state between two MBs over MemTransport, no traffic: controller routing, put pool, codec, export/import"},
	{Name: "scaleup-live", run: runScaleupLive,
		Why: "paper scenario: 8192-flow monitors behind a switch, 20 kpps open loop, ScaleUp/ScaleDown cycles; only user of events and netsim"},
	{Name: "move-xnode", run: runMoveXnode,
		Why: "same 20000x202 B move between two core.Nodes over loopback TCP: peer link, directory commit, Pull relay, kernel sockets"},
}

// endToEnd is emitted by every workload with tracing off. The contract
// wants every metric on every workload and never zero, so the names are
// generic and README.md maps them to the quantity each workload reports.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_mps", Unit: "M/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is emitted by every workload with tracing on; a metric that does
// not apply to a workload reads 0 there.
var perLayer = []metricSpec{
	{Name: "fail_share", Unit: "share", Better: "lower", Moves: "must stay 0 on every workload"},
	{Name: "samples", Unit: "count", Better: "higher", Moves: "operations behind the traced half's latency percentiles"},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Moves: "the tail of op_ms_p50, same operations; printed, not gated (too few samples per run on the move workloads)"},

	{Name: "packet.clone_release_ns", Unit: "ns", Better: "lower", Moves: "throughput_mps on chain-sat (generator share)"},
	{Name: "mbox.runtime_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "throughput_mps on chain-sat; ~0 share on chain-flows16k"},
	{Name: "mbox.wakeup_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 on chain-ping"},
	{Name: "mbox.wakeup_us_p90", Unit: "us", Better: "lower", Moves: "op_ms_p90 (per-layer) on chain-ping"},
	{Name: "mbox.pkt_sojourn_p50_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 on chain-ping"},
	{Name: "mbox.pkt_sojourn_p90_us", Unit: "us", Better: "lower", Moves: "op_ms_p90 (per-layer) on chain-ping"},
	{Name: "monitor.ns_per_pkt", Unit: "ns", Better: "lower", Moves: "throughput_mps on chain-*"},
	{Name: "nat.ns_per_pkt", Unit: "ns", Better: "lower", Moves: "throughput_mps on chain-*; >90% of the chain on chain-flows16k"},
	{Name: "ips.ns_per_pkt", Unit: "ns", Better: "lower", Moves: "throughput_mps on chain-*"},
	{Name: "mbox.ring_drops", Unit: "count", Better: "lower", Moves: "fail_share (must stay 0 closed-loop)"},
	{Name: "mbox.ring_depth_max", Unit: "count", Better: "lower", Moves: "fail_share; op_ms_p90 (per-layer) on chain-*"},
	{Name: "chain.allocs_per_pkt", Unit: "count", Better: "lower", Moves: "throughput_mps on chain-*"},
	{Name: "chain.bytes_per_pkt", Unit: "B", Better: "lower", Moves: "throughput_mps on chain-*"},
	{Name: "chain.cpu_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "throughput_mps on chain-*; cpu/wall shows whether both cores were busy"},

	{Name: "netsim.switch_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "gen.achieved_kpps and fail_share on scaleup-live"},
	{Name: "netsim.link_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "gen.achieved_kpps and fail_share on scaleup-live"},
	{Name: "netsim.dropped", Unit: "count", Better: "lower", Moves: "fail_share on scaleup-live"},
	{Name: "netsim.delivered", Unit: "count", Better: "higher", Moves: "fail_share on scaleup-live"},

	{Name: "sbi.encode_ns_per_chunk", Unit: "ns", Better: "lower", Moves: "op_ms_p50 on move-idle, move-xnode, scaleup-live"},
	{Name: "sbi.decode_ns_per_chunk", Unit: "ns", Better: "lower", Moves: "op_ms_p50 on move-idle, move-xnode, scaleup-live"},
	{Name: "sbi.wire_bytes_per_chunk", Unit: "B", Better: "lower", Moves: "op_ms_p50 on move-xnode"},
	{Name: "sbi.allocs_per_chunk", Unit: "count", Better: "lower", Moves: "op_ms_p50 on the move workloads"},
	{Name: "sbi.frames_per_flush", Unit: "count", Better: "higher", Moves: "op_ms_p50 on move-xnode (syscalls); little on move-idle"},
	{Name: "sbi.tcp_rtt_us_p50", Unit: "us", Better: "lower", Moves: "op_ms_p50 on move-xnode"},
	{Name: "mbox.export_ns_per_chunk", Unit: "ns", Better: "lower", Moves: "op_ms_p50 on the move workloads"},
	{Name: "mbox.import_ns_per_chunk", Unit: "ns", Better: "lower", Moves: "op_ms_p50 on the move workloads"},
	{Name: "state.index_lookup_us", Unit: "us", Better: "lower", Moves: "op_ms_p50 on scaleup-live only"},

	{Name: "core.move_window_ms_mean", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on move-*; window ~ call time is the cross-check"},
	{Name: "core.get_stream_ms_mean", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on move-*"},
	{Name: "core.put_ack_us_mean", Unit: "us", Better: "lower", Moves: "op_ms_p50 on move-*"},
	{Name: "core.move_ms_p90", Unit: "ms", Better: "lower", Moves: "op_ms_p90 (per-layer) on move-*"},
	{Name: "core.settle_ms_p50", Unit: "ms", Better: "lower", Moves: "throughput_mps on move-* (mostly the pinned 20 ms quiet period)"},
	{Name: "core.allocs_per_chunk", Unit: "count", Better: "lower", Moves: "op_ms_p50 and peak_rss_mb on move-idle"},
	{Name: "core.bytes_per_chunk", Unit: "B", Better: "lower", Moves: "op_ms_p50 and peak_rss_mb on move-idle"},
	{Name: "core.cpu_ns_per_chunk", Unit: "ns", Better: "lower", Moves: "op_ms_p50 on move-idle"},
	{Name: "core.chunks_moved", Unit: "count", Better: "higher", Moves: "correctness gate: must equal moves x chunks exactly"},
	{Name: "core.bytes_moved", Unit: "B", Better: "higher", Moves: "correctness gate"},
	{Name: "core.events_forwarded", Unit: "count", Better: "lower", Moves: "op_ms_p50 and fail_share on scaleup-live; 0 elsewhere"},
	{Name: "core.events_buffered", Unit: "count", Better: "lower", Moves: "op_ms_p50 on scaleup-live; 0 elsewhere"},
	{Name: "mbox.events_raised", Unit: "count", Better: "lower", Moves: "op_ms_p50 on scaleup-live; 0 elsewhere"},
	{Name: "mbox.replayed", Unit: "count", Better: "lower", Moves: "fail_share on scaleup-live; 0 elsewhere"},
	{Name: "core.events_per_live_pkt", Unit: "share", Better: "lower", Moves: "op_ms_p50 on scaleup-live"},

	{Name: "apps.scaleup_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on scaleup-live (the ScaleUp half of the cycle)"},
	{Name: "apps.scaledown_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on scaleup-live (the ScaleDown half)"},
	{Name: "core.clone_config_us", Unit: "us", Better: "lower", Moves: "apps.scaleup_ms_p50"},
	{Name: "core.stats_us", Unit: "us", Better: "lower", Moves: "apps.scaleup_ms_p50"},
	{Name: "core.merge_ms_p50", Unit: "ms", Better: "lower", Moves: "apps.scaledown_ms_p50"},
	{Name: "sdn.route_update_us", Unit: "us", Better: "lower", Moves: "apps.scaleup_ms_p50 / apps.scaledown_ms_p50"},
	{Name: "core.pull_ms_p50", Unit: "ms", Better: "lower", Moves: "op_ms_p50 on move-xnode only (the relay hop)"},
	{Name: "core.dir_commits", Unit: "count", Better: "lower", Moves: "op_ms_p50 on move-xnode only"},
	{Name: "gen.achieved_kpps", Unit: "k/s", Better: "higher", Moves: "validity of scaleup-live, not a target"},
	{Name: "gen.late_ms_p99", Unit: "ms", Better: "lower", Moves: "validity of scaleup-live, not a target"},

	{Name: "trace.overhead_throughput_pct", Unit: "%", Better: "lower", Moves: "printed, not gated: keeps the per-layer split believable"},
	{Name: "trace.overhead_op_p50_pct", Unit: "%", Better: "lower", Moves: "printed, not gated"},
}

// specNames is every metric name either table lists.
var specNames = func() map[string]bool {
	names := map[string]bool{}
	for _, m := range endToEnd {
		names[m.Name] = true
	}
	for _, m := range perLayer {
		names[m.Name] = true
	}
	return names
}()

// benchmarkJSON renders the BENCHMARK.json this code implements.
func benchmarkJSON() []byte {
	strip := func(ms []metricSpec, bounds bool) []map[string]any {
		out := make([]map[string]any, len(ms))
		for i, m := range ms {
			out[i] = map[string]any{"name": m.Name, "unit": m.Unit, "better": m.Better}
			if bounds {
				out[i]["bound"] = m.Bound
			}
		}
		return out
	}
	doc := map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   workloads,
		"end_to_end":  strip(endToEnd, true),
		"per_layer":   strip(perLayer, false),
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static tables: a bug alone can fail this
	}
	return append(b, '\n')
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
