package main

import (
	"encoding/json"
	"sort"
)

// metric is one measured value with its unit and the number of samples
// behind it (0 where the value is a single reading or a counter).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, samples int) {
	m[name] = metric{Value: value, Unit: unitOf(name), Samples: samples}
}

// metricSpec is a metric's entry in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the server sees, with the share of the
// parent's median by which each may worsen before a change is a regression.
// BENCHMARK.json has one bound per metric, not one per (metric, workload), so
// each is the widest any workload needs. Timed on one processor (affinity.go)
// the quartile spread over ten seeds is 1 % to 10 % for every metric on every
// workload (README, "Baseline and repeatability"); the contract asks for a
// bound of three times the spread, and the host's single-thread speed itself
// drifts by a tenth over minutes, so every bound sits at the contract's
// ceiling of 25 %. They are gates against gross regressions; a claim smaller
// than that is settled by `compare` on ten alternating pairs, not by a bound.
//
// Two of the issue's ten are not listed. failed_share must be 0, and the
// contract wants metrics that never are: it is the result line's failed ÷
// attempted, and any failure makes the run incorrect and the exit code
// non-zero. write_p95_ms does not repeat: a write's latency has a knee at its
// 93rd to 95th percentile, and between runs of one commit the 95th spread by
// 15 % on mixed-rw and 40 % on cluster-rw. The issue demotes a metric that
// cannot repeat within a tenth to the per-layer set, so it is
// tail.write_p95_ms.<workload> there, without a bound.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// readWriteOnly are the end-to-end metrics that exist only where a workload
// has both reads and writes. The full run omits them elsewhere; the single-
// workload result line, which must carry every end-to-end metric, repeats the
// all-request percentile under their names there (see contractResult).
var readWriteOnly = map[string]string{"read_p50_ms": "p50_ms", "write_p50_ms": "p50_ms"}

// perLayer lists the metrics of single layers, from the traced run. A traced
// run of one workload measures the ones that workload exercises and reports
// the rest as 0.
func perLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) { out = append(out, metricSpec{Name: name, Unit: unit, Better: better}) }
	for _, c := range classes {
		add("class."+c.name+".p50_ms", "ms", "lower")
		add("class."+c.name+".time_share", "ratio", "lower")
	}
	for _, w := range workloads {
		add("tail.p99_ms."+w.name, "ms", "lower")
		if w.rw {
			add("tail.write_p95_ms."+w.name, "ms", "lower")
		}
	}
	add("lexer.tokenize_us", "us", "lower")
	add("parser.parse_us", "us", "lower")
	add("semantic.check_us", "us", "lower")
	add("planner.plan_us", "us", "lower")
	add("core.run_warm_us", "us", "lower")
	add("core.run_cold_us", "us", "lower")
	add("core.overhead_us", "us", "lower")
	add("core.plan_cache_hit_ratio.point-read", "ratio", "higher")
	add("core.plan_cache_hit_ratio.mixed-rw", "ratio", "higher")
	add("graph.pin_ns", "ns", "lower")
	add("graph.write_cycle_us", "us", "lower")
	add("graph.mvcc_rebuilds", "count", "lower")
	add("graph.writer_drain_waits", "count", "lower")
	for _, c := range classes {
		add("exec.execute_us."+c.name, "us", "lower")
		add("exec.allocs."+c.name, "count", "lower")
	}
	add("exec.batch_vs_row.scan-agg", "ratio", "lower")
	add("exec.parallel_speedup.scan-agg", "ratio", "higher")
	add("result.detach_us.big-result", "us", "lower")
	add("result.rows_us.big-result", "us", "lower")
	for _, w := range []string{"point-read", "scan-agg", "traverse"} {
		add("server.overhead_us."+w, "us", "lower")
	}
	add("server.encode_us.big-result", "us", "lower")
	add("server.response_bytes.big-result", "bytes", "lower")
	add("server.admission_rejected", "count", "lower")
	add("storage.append_us", "us", "lower")
	add("storage.sync_us", "us", "lower")
	add("storage.wal_bytes_per_write", "bytes", "lower")
	add("storage.fsyncs_per_write", "ratio", "lower")
	add("storage.checkpoint_s", "s", "lower")
	add("storage.recover_s", "s", "lower")
	add("storage.snapshot_bytes", "bytes", "lower")
	add("replica.commit_wait_ms", "ms", "lower")
	add("replica.lag_bytes_p50", "bytes", "lower")
	add("replica.lag_bytes_max", "bytes", "lower")
	add("replica.streamed_bytes_per_write", "bytes", "lower")
	add("replica.elections", "count", "lower")
	add("replica.failover_s", "s", "lower")
	add("replica.lost_acked_writes", "count", "lower")
	for _, w := range workloads {
		add("trace.overhead_share."+w.name, "ratio", "lower")
	}
	return out
}

var units = func() map[string]string {
	m := map[string]string{"failed_share": "ratio"}
	for _, s := range endToEnd {
		m[s.Name] = s.Unit
	}
	for _, s := range perLayer() {
		m[s.Name] = s.Unit
	}
	return m
}()

// unitOf panics on a name the tables above do not list: every metric the
// harness emits is declared, which the tests hold BENCHMARK.json to as well.
func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("undeclared metric " + name)
	}
	return u
}

// runSeconds is how long one window measures. With three set-ups, the data
// preparation and the checks around it, a single-node run takes 19 s and a
// cluster run 33 s on the baseline machine, and the driver's 114 runs fit
// its cap with a quarter to spare.
const runSeconds = 10

// manifest renders BENCHMARK.json from the tables in this package, so the
// file and the harness cannot drift apart (a test compares them).
func manifest() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricSpec    `json:"end_to_end"`
		PerLayer   []metricSpec    `json:"per_layer"`
	}{
		Command:    []string{"go", "-C", "bench", "run", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadEntry{w.name, w.why})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
