package main

import (
	"runtime"
	"time"

	"graphbench/internal/engine"
	"graphbench/internal/sim"
)

// MetricDef declares one reported metric, as BENCHMARK.json lists it.
type MetricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees, reported with
// tracing off by every workload.
var endToEnd = []MetricDef{
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// engineKinds are the served endpoints, in URL order.
var engineKinds = []engine.Kind{engine.PageRank, engine.WCC, engine.SSSP, engine.Triangle, engine.LPA}

// enginePackage maps a registry system key to the engine package that
// runs it, which names the layer its busy time is charged to.
func enginePackage(system string) string {
	switch system {
	case "giraph":
		return "pregel"
	case "blogel-b", "blogel-v":
		return "blogel"
	case "gelly":
		return "dataflow"
	case "graphx":
		return "graphx"
	case "hadoop":
		return "mapreduce"
	case "haloop":
		return "haloop"
	default: // every gl-* variant
		return "gas"
	}
}

var enginePackages = []string{"pregel", "blogel", "gas", "dataflow", "graphx", "mapreduce", "haloop"}

// planSystems are the registry keys the planner may choose.
var planSystems = []string{
	"blogel-b", "blogel-v", "gelly", "giraph", "gl-a-a-t", "gl-a-r-t", "gl-s-a-i",
	"gl-s-a-t", "gl-s-r-i", "gl-s-r-t", "graphx", "hadoop", "haloop",
}

// perLayer are the traced run's metrics. A metric off a workload's
// path reads 0; layers.json says where each applies and which
// end-to-end metric it should move.
var perLayer = func() []MetricDef {
	defs := []MetricDef{
		{"datasets.generate_ms", "ms", "lower"},
		{"engine.prepare_ms", "ms", "lower"},
		{"graph.dilation_ms", "ms", "lower"},
		{"plan.profile_ms", "ms", "lower"},
		{"datasets.vertices", "count", "higher"},
		{"datasets.edges", "count", "higher"},
		{"core.run_p50_ms", "ms", "lower"},
		{"core.run_p99_ms", "ms", "lower"},
	}
	for _, p := range enginePackages {
		defs = append(defs, MetricDef{p + ".busy_ms", "ms", "lower"})
	}
	defs = append(defs,
		MetricDef{"par.utilization", "ratio", "higher"},
		MetricDef{"par.tail_ms", "ms", "lower"},
		MetricDef{"engine.iterations", "count", "lower"},
		MetricDef{"engine.active_vertices", "count", "lower"},
		MetricDef{"sim.net_bytes", "B", "lower"},
		MetricDef{"sim.failed_runs", "count", "lower"},
		MetricDef{"core.ns_per_active_vertex", "ns", "lower"},
	)
	for _, k := range engineKinds {
		defs = append(defs, MetricDef{"serve.request_p50_ms." + k.String(), "ms", "lower"})
	}
	defs = append(defs,
		MetricDef{"plan.decide_us", "us", "lower"},
		MetricDef{"core.run_ms", "ms", "lower"},
		MetricDef{"serve.self_ms", "ms", "lower"},
	)
	for _, s := range planSystems {
		defs = append(defs, MetricDef{"plan.share." + s, "ratio", "higher"})
	}
	defs = append(defs, MetricDef{"serve.miss_ratio", "ratio", "higher"})
	for _, k := range engineKinds {
		defs = append(defs, MetricDef{"serve.handler_us." + k.String(), "us", "lower"})
	}
	defs = append(defs,
		MetricDef{"http.transport_us", "us", "lower"},
		MetricDef{"plan.decide_sticky_us", "us", "lower"},
	)
	for _, k := range engineKinds {
		defs = append(defs, MetricDef{"serve.body_bytes." + k.String(), "B", "lower"})
	}
	defs = append(defs,
		MetricDef{"serve.hit_ratio", "ratio", "higher"},
		MetricDef{"core.run_governed_ms", "ms", "lower"},
		MetricDef{"core.run_incore_ms", "ms", "lower"},
		MetricDef{"govern.overhead_ratio", "ratio", "lower"},
		MetricDef{"govern.spill_bytes", "B", "lower"},
		MetricDef{"govern.peak_bytes", "B", "lower"},
		MetricDef{"govern.hard_events", "count", "lower"},
		MetricDef{"govern.spilled_runs", "count", "lower"},
		MetricDef{"runtime.alloc_bytes_per_op", "B/op", "lower"},
		MetricDef{"runtime.gc_pause_ms", "ms", "lower"},
		MetricDef{"latency_p99_ms", "ms", "lower"},
		MetricDef{"latency_samples", "count", "higher"},
		MetricDef{"trace.ops_per_s.untraced", "1/s", "higher"},
		MetricDef{"trace.ops_per_s.traced", "1/s", "higher"},
		MetricDef{"trace.latency_p50_ms.untraced", "ms", "lower"},
		MetricDef{"trace.latency_p50_ms.traced", "ms", "lower"},
		MetricDef{"trace.overhead_pct", "%", "lower"},
		MetricDef{"trace.spans", "count", "higher"},
	)
	for _, ph := range []string{"warmup", "timed"} {
		defs = append(defs,
			MetricDef{"ops." + ph + ".sent", "count", "higher"},
			MetricDef{"ops." + ph + ".succeeded", "count", "higher"},
			MetricDef{"ops." + ph + ".failed", "count", "lower"},
		)
	}
	return defs
}()

// Phase is one timed phase, possibly run in segments: its clock time,
// operations, per-operation latencies, the completion rate of each
// window (a grid pass, about a second of serving), and the
// runtime's allocation and GC counters across the timed segments.
type Phase struct {
	Elapsed    time.Duration
	Ops        int
	Latencies  []float64 // ms
	Rates      []float64 // ops/s
	AllocBytes uint64
	GCPause    time.Duration

	start time.Time
	mem   runtime.MemStats
}

// begin starts a timed segment.
func (p *Phase) begin() {
	runtime.ReadMemStats(&p.mem)
	p.start = time.Now()
}

// end stops the segment begun last and returns its length.
func (p *Phase) end() time.Duration {
	d := time.Since(p.start)
	p.Elapsed += d
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.AllocBytes += m.TotalAlloc - p.mem.TotalAlloc
	p.GCPause += time.Duration(m.PauseTotalNs - p.mem.PauseTotalNs)
	return d
}

// window records a rate window of ops operations that took d.
func (p *Phase) window(d time.Duration, ops int) {
	p.Ops += ops
	p.Rates = append(p.Rates, float64(ops)/d.Seconds())
}

// opsPerSec is the median window rate: a stall that slows a minority
// of the windows moves it little.
func (p *Phase) opsPerSec() float64 {
	if len(p.Rates) == 0 {
		return float64(p.Ops) / p.Elapsed.Seconds()
	}
	return median(p.Rates)
}

// endToEndReport fills the end-to-end metrics from the set-up times
// and the untraced phase.
func endToEndReport(setups []time.Duration, ph *Phase) (Report, error) {
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	return Report{
		"setup_s":        median(secs),
		"ops_per_s":      ph.opsPerSec(),
		"latency_p50_ms": median(ph.Latencies),
		"peak_rss_mib":   rss,
	}, nil
}

// commonLayers fills the per-layer metrics every workload reports:
// the tail percentile with its sample count, runtime counters of the
// untraced phase, and the traced-versus-untraced comparison whose
// difference is the tracing overhead.
func commonLayers(r Report, untraced, traced *Phase, spans int) {
	r["latency_samples"] = float64(len(untraced.Latencies))
	if p99, ok := percentile(untraced.Latencies, 0.99); ok {
		r["latency_p99_ms"] = p99
	}
	if untraced.Ops > 0 {
		r["runtime.alloc_bytes_per_op"] = float64(untraced.AllocBytes) / float64(untraced.Ops)
	}
	r["runtime.gc_pause_ms"] = ms(untraced.GCPause)
	r["trace.ops_per_s.untraced"] = untraced.opsPerSec()
	r["trace.ops_per_s.traced"] = traced.opsPerSec()
	r["trace.latency_p50_ms.untraced"] = median(untraced.Latencies)
	r["trace.latency_p50_ms.traced"] = median(traced.Latencies)
	r["trace.overhead_pct"] = 100 * (untraced.opsPerSec()/traced.opsPerSec() - 1)
	r["trace.spans"] = float64(spans)
}

// resultCounts adds a pass's exact engine counts to r.
func resultCounts(r Report, results []*engine.Result) {
	for _, res := range results {
		r["engine.iterations"] += float64(res.Iterations)
		for _, it := range res.PerIteration {
			r["engine.active_vertices"] += float64(it.Active)
		}
		r["sim.net_bytes"] += float64(res.NetBytes)
		if res.Status != sim.OK {
			r["sim.failed_runs"]++
		}
	}
}

// perPass divides the summed busy times and engine counts in r by the
// number of passes over the workload's operation set they cover.
func perPass(r Report, passes float64) {
	for _, p := range enginePackages {
		r[p+".busy_ms"] /= passes
	}
	for _, k := range []string{"engine.iterations", "engine.active_vertices", "sim.net_bytes", "sim.failed_runs"} {
		r[k] /= passes
	}
}
