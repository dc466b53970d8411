package main

import "fmt"

// metricDef names one metric of BENCHMARK.json. The two tables below are the
// program's copy of that file's end_to_end and per_layer lists; the smoke
// test fails if they drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the median it may get worse
}

var endToEnd = []metricDef{
	{"throughput", "1/s", "higher", 0.25},
	{"latency_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.10},
	{"heap_live_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the layer metrics, grouped by the module they attribute to.
// Every one is measured in every -trace run: on the workload's own inputs
// for the layers that workload exercises, on the small probe inputs for the
// layers it leaves idle (README, "Probe inputs").
var perLayer = []metricDef{
	{Name: "gen.build_s", Unit: "s", Better: "lower"},
	{Name: "gen.arcs", Unit: "count", Better: "lower"},
	{Name: "partition.build_s", Unit: "s", Better: "lower"},
	{Name: "partition.edge_cut_frac", Unit: "frac", Better: "lower"},

	{Name: "pregel.run_ms", Unit: "ms", Better: "lower"},
	{Name: "pregel.superstep_ms", Unit: "ms", Better: "lower"},
	{Name: "pregel.supersteps", Unit: "count", Better: "lower"},
	{Name: "pregel.engine_setup_ms", Unit: "ms", Better: "lower"},
	{Name: "pregel.busy_frac", Unit: "frac", Better: "higher"},
	{Name: "pregel.busy_imbalance", Unit: "x", Better: "lower"},
	{Name: "pregel.allocs_per_superstep", Unit: "count", Better: "lower"},

	{Name: "cluster.msgs_per_superstep", Unit: "count", Better: "lower"},
	{Name: "cluster.bytes_per_superstep", Unit: "B", Better: "lower"},
	{Name: "cluster.local_msg_frac", Unit: "frac", Better: "higher"},
	{Name: "cluster.send_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "cluster.exchange_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.gang_handoff_us", Unit: "us", Better: "lower"},

	{Name: "storage.hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "storage.misses_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.bytes_read_per_op", Unit: "B", Better: "lower"},
	{Name: "storage.read_amp", Unit: "x", Better: "lower"},
	{Name: "storage.file_mb", Unit: "MB", Better: "lower"},
	{Name: "storage.cache_mb", Unit: "MB", Better: "lower"},
	{Name: "storage.compression_ratio", Unit: "x", Better: "higher"},
	{Name: "storage.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.miss_us", Unit: "us", Better: "lower"},
	{Name: "storage.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.open_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.write_s", Unit: "s", Better: "lower"},

	{Name: "gnn.sample_ms", Unit: "ms", Better: "lower"},
	{Name: "gnn.sample_mem_ms", Unit: "ms", Better: "lower"},
	{Name: "gnn.sampled_vertices_per_batch", Unit: "count", Better: "lower"},
	{Name: "gnn.sampled_arcs_per_batch", Unit: "count", Better: "lower"},
	{Name: "gnn.model_build_ms", Unit: "ms", Better: "lower"},
	{Name: "gnn.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "gnn.backward_ms", Unit: "ms", Better: "lower"},
	{Name: "gnn.spmm_ms", Unit: "ms", Better: "lower"},

	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.parallel_speedup", Unit: "x", Better: "higher"},
	{Name: "tensor.spmm_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "nn.loss_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.adam_ms", Unit: "ms", Better: "lower"},

	{Name: "gnndist.round_ms", Unit: "ms", Better: "lower"},
	{Name: "gnndist.epoch_ms", Unit: "ms", Better: "lower"},
	{Name: "gnndist.fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "gnndist.remote_frac", Unit: "frac", Better: "lower"},
	{Name: "gnndist.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "gnndist.grad_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "gnndist.net_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "gnndist.step_cover_pct", Unit: "%", Better: "higher"},

	{Name: "quegel.batch_ms", Unit: "ms", Better: "lower"},
	{Name: "quegel.supersteps_per_batch", Unit: "count", Better: "lower"},
	{Name: "quegel.msgs_per_query", Unit: "count", Better: "lower"},

	{Name: "serve.closed_qps", Unit: "1/s", Better: "higher"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "serve.engine_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.open_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.open_max_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.open_rate", Unit: "1/s", Better: "higher"},
	{Name: "serve.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.submitted", Unit: "count", Better: "higher"},
	{Name: "serve.completed", Unit: "count", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.expired", Unit: "count", Better: "lower"},
	{Name: "serve.failed", Unit: "count", Better: "lower"},

	{Name: "harness.jobs", Unit: "count", Better: "higher"},
	{Name: "harness.job_mad_pct", Unit: "%", Better: "lower"},
	{Name: "harness.job_min_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "harness.verify_ok", Unit: "count", Better: "higher"},
}

// value is one reported number, in the shape the contract's result line uses.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's metrics against one of the tables above: a
// name outside the table, or set twice, is a bug in the harness.
type metricSet struct {
	defs   []metricDef
	values map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]value, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	if _, dup := m.values[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// missing lists the table's metrics that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// complete returns the collected values, or an error naming what is missing.
func (m *metricSet) complete() (map[string]value, error) {
	if miss := m.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("metrics never measured: %v", miss)
	}
	return m.values, nil
}
