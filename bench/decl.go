//go:build linux

package main

import "encoding/json"

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 18

// workloadDecl is one fixed set of inputs, why it exists, and how to run it
// end to end; runTraced is the traced run of any of them.
type workloadDecl struct {
	Name string
	Why  string
	run  func(sz sizes, seed uint64, seconds float64) (*runResult, error)
}

var workloads = []workloadDecl{
	{
		Name: "serve_hot",
		Why:  "open loop, 40k qps of the B-Root mix over 8192 repeating queries: every answer is a cache hit, so syscall, parse, cache get and ID patch do all the work",
		run:  func(sz sizes, seed uint64, s float64) (*runResult, error) { return runServe(serveHot, sz, seed, s) },
	},
	{
		Name: "serve_junk",
		Why:  "open loop, 2k qps of never-repeating nonexistent TLDs: every query takes unpack, lookup, pack, cache put and evict, and the hit path does nothing",
		run:  func(sz sizes, seed uint64, s float64) (*runResult, error) { return runServe(serveJunk, sz, seed, s) },
	},
	{
		Name: "campaign",
		Why:  "in process, route-probe-transfer-validate-record over the study timeline with the wire check on: drives server, codec, AXFR, DNSSEC and ZONEMD through the battery and writes the dataset",
		run:  runCampaign,
	},
	{
		Name: "replay",
		Why:  "in process, scan-CRC-inflate-decode-dispatch of a recorded dataset into the six analyses: the read side of dataset and segment, and where the analyses' maps dominate",
		run:  runReplay,
	},
}

// benchmarkJSON renders the declarations as the BENCHMARK.json at the root
// of the repository; a test holds the two together.
func benchmarkJSON() string {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadInfo `json:"workloads"`
		EndToEnd   []metricDecl   `json:"end_to_end"`
		PerLayer   []metricDecl   `json:"per_layer"`
	}{
		Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadInfo{w.Name, w.Why})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // strings, ints and finite floats always marshal
	}
	return string(b) + "\n"
}

func findWorkload(name string) *workloadDecl {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEnd are the metrics a user of the system sees; one op is one query
// answered and verified, one event recorded, or one event replayed. Bound is
// the share of the parent's median a metric may worsen by.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer are the metrics of single layers, named by the package they
// time; loadgen, sockecho and trace are the benchmark's own. A traced run
// reports all of them whatever workload it is asked about; only the trace.*
// metrics are about that workload. They carry no bound.
var perLayer = []metricDecl{
	{Name: "loadgen.hot_latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.hot_latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.junk_latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.late_max_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.stall_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "sockecho.cpu_us_per_pkt", Unit: "us", Better: "lower"},
	{Name: "sockecho.latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "dnsserver.hit_path_us", Unit: "us", Better: "lower"},
	{Name: "dnsserver.handle_hot_ns", Unit: "ns", Better: "lower"},
	{Name: "dnsserver.handle_hot_allocs", Unit: "count", Better: "lower"},
	{Name: "dnsserver.handle_junk_ns", Unit: "ns", Better: "lower"},
	{Name: "dnsserver.handle_junk_allocs", Unit: "count", Better: "lower"},
	{Name: "dnsserver.new_ms", Unit: "ms", Better: "lower"},
	{Name: "dnsserver.setzone_us", Unit: "us", Better: "lower"},
	{Name: "dnsserver.tcp_query_us", Unit: "us", Better: "lower"},
	{Name: "dnsserver.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "dnsserver.slow_share", Unit: "ratio", Better: "lower"},
	{Name: "dnsserver.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "dnsserver.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "dnswire.unpack_ns", Unit: "ns", Better: "lower"},
	{Name: "dnswire.unpack_allocs", Unit: "count", Better: "lower"},
	{Name: "dnswire.pack_ns", Unit: "ns", Better: "lower"},
	{Name: "dnswire.pack_allocs", Unit: "count", Better: "lower"},
	{Name: "dnswire.view_walk_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.admit_off_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.admit_on_ns", Unit: "ns", Better: "lower"},
	{Name: "qlog.sample_ns", Unit: "ns", Better: "lower"},
	{Name: "qlog.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "axfr.serve_ms", Unit: "ms", Better: "lower"},
	{Name: "axfr.receive_compare_ms", Unit: "ms", Better: "lower"},
	{Name: "axfr.receive_compare_allocs", Unit: "count", Better: "lower"},
	{Name: "axfr.tcp_transfer_ms", Unit: "ms", Better: "lower"},
	{Name: "dnssec.sign_ms", Unit: "ms", Better: "lower"},
	{Name: "dnssec.validate_us", Unit: "us", Better: "lower"},
	{Name: "zonemd.digest_us", Unit: "us", Better: "lower"},
	{Name: "topology.routes_ms", Unit: "ms", Better: "lower"},
	{Name: "anycast.select_ns", Unit: "ns", Better: "lower"},
	{Name: "traceroute.run_ns", Unit: "ns", Better: "lower"},
	{Name: "measure.battery_ms", Unit: "ms", Better: "lower"},
	{Name: "measure.drain_share", Unit: "ratio", Better: "lower"},
	{Name: "dataset.write_ns", Unit: "ns", Better: "lower"},
	{Name: "dataset.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "dataset.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "segment.scan_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "segment.crc_inflate_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "analysis.coverage_ns", Unit: "ns", Better: "lower"},
	{Name: "analysis.stability_ns", Unit: "ns", Better: "lower"},
	{Name: "analysis.colocation_ns", Unit: "ns", Better: "lower"},
	{Name: "analysis.distance_ns", Unit: "ns", Better: "lower"},
	{Name: "analysis.rtt_ns", Unit: "ns", Better: "lower"},
	{Name: "analysis.integrity_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.unexplained_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
}
