package main

import "math"

// metricDef names one reported metric. End-to-end metrics carry the bound by
// which a change may worsen their median (a share of the parent's median)
// before the change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported with
// tracing off. Every bound is the widest allowed: on a shared 2-vCPU
// virtual machine the same cold run drifts by 10-20% over tens of seconds,
// which no run length averages away, and peak memory moves by 1-2 MB
// between processes with GC timing and the page cache. replay_s is a run's
// fastest replay (see fastest); the others are medians.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "replay_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the traced pass's metrics, named <layer>.<metric>.
var perLayer = []metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.run_s", Unit: "s", Better: "lower"},
	{Name: "sim.self_s", Unit: "s", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.pending_max", Unit: "count", Better: "lower"},
	{Name: "sim.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "shard.events_max_over_mean", Unit: "ratio", Better: "lower"},
	{Name: "shard.sync_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "shard.speedup", Unit: "ratio", Better: "higher"},
	{Name: "netem.pkts_tx", Unit: "count", Better: "higher"},
	{Name: "netem.drop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "netem.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "queue.ops", Unit: "count", Better: "lower"},
	{Name: "queue.reject_ratio", Unit: "ratio", Better: "lower"},
	{Name: "queue.self_s", Unit: "s", Better: "lower"},
	{Name: "queue.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "tcp.acks", Unit: "count", Better: "higher"},
	{Name: "tcp.retx_ratio", Unit: "ratio", Better: "lower"},
	{Name: "tcp.rtos", Unit: "count", Better: "lower"},
	{Name: "tcp.cc_self_s", Unit: "s", Better: "lower"},
	{Name: "tcp.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "core.cc_self_s", Unit: "s", Better: "lower"},
	{Name: "core.early_responses", Unit: "count", Better: "higher"},
	{Name: "core.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trafficgen.pages", Unit: "count", Better: "higher"},
	{Name: "trafficgen.objects", Unit: "count", Better: "higher"},
	{Name: "trafficgen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "scenario.compile_s", Unit: "s", Better: "lower"},
	{Name: "scenario.spawn_s", Unit: "s", Better: "lower"},
	{Name: "harness.overhead_s", Unit: "s", Better: "lower"},
	{Name: "cache.get_s", Unit: "s", Better: "lower"},
	{Name: "cache.record_bytes", Unit: "bytes", Better: "lower"},
	{Name: "cache.hits", Unit: "count", Better: "higher"},
	{Name: "cache.misses", Unit: "count", Better: "lower"},
	{Name: "runtime.mallocs", Unit: "count", Better: "lower"},
	{Name: "runtime.allocs_per_event", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_s", Unit: "s", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values for a list of definitions.
type metricSet map[string]metricValue

// put records a value under a defined name; an undefined name is a bug. A
// value that could not be measured (NaN, only after a failed check) is
// reported as 0 so the result stays valid JSON.
func (m metricSet) put(defs []metricDef, name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	for _, d := range defs {
		if d.Name == name {
			m[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("perfbench: undefined metric " + name)
}

// missing lists the definitions without a value.
func (m metricSet) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}
