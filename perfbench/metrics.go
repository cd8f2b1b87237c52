package main

// metricDecl declares one printed metric. Kind says what the number
// is: host CPU or wall time, host allocation, simulated cycles
// (deterministic engine output, not host time), a count, or a ratio.
// BENCHMARK.json declares the same names and units; a test keeps the
// two in step.
type metricDecl struct {
	Name string
	Unit string
	Kind string
}

const (
	kindWall   = "host_wall_time"
	kindCPU    = "host_cpu_time"
	kindAlloc  = "host_alloc"
	kindCycles = "simulated_cycles"
	kindCount  = "count"
	kindRatio  = "ratio"
)

// endToEnd is printed by every untraced run. Each workload defines its
// operation: zoo-compile one cold compile of a (model, config) point
// (each point's time is its median over the run's passes), serve-warm
// and serve-cold one POST /run. sim_cycles_geomean covers the
// zoo-model results: all 20 zoo-compile points, every serve-warm reply,
// the serve-cold replies to Table 2 requests.
//
// Times are the CPU time the benchmark process (all threads, the
// program and the client) spends on an operation, with one operation
// in flight. That is the operation's latency on an uncontended host.
// On the shared 2-vCPU VMs the benchmark was sized on, wall time was
// not steady enough to bound: the hypervisor withheld 30-97% of the
// CPU for minutes at a time (CPU steal, which the guest kernel leaves
// out of CPU time), and wall-time medians moved by up to 29% across
// ten runs of the same code. Reports give wall-time figures too: per
// request for the serve workloads, per pass for zoo-compile.
var endToEnd = []metricDecl{
	{"setup_s", "s", kindCPU},            // median of the run's repeated set-ups
	{"p50_ms", "ms", kindCPU},            // median operation latency
	{"p99_ms", "ms", kindCPU},            // 99th percentile operation latency
	{"geomean_ms", "ms", kindCPU},        // geometric mean operation latency
	{"ops_per_s", "1/s", kindCPU},        // operations per second of CPU time (closed loop)
	{"alloc_mb_per_op", "MB", kindAlloc}, // host bytes allocated per operation, whole process
	{"sim_cycles_geomean", "cycles", kindCycles},
}

// perLayer is printed by every traced run. A layer a workload does not
// reach reports 0. Times are self times of the benchmark's spans
// around calls into the layer, averaged per call.
var perLayer = []metricDecl{
	{"core.compile_ms", "ms", kindWall},
	{"core.attempts", "count", kindCount},
	{"core.fallback_ms", "ms", kindWall},
	{"core.alloc_mb", "MB", kindAlloc},
	{"core.cache_hit_ratio", "ratio", kindRatio},
	{"partition.ms", "ms", kindWall},
	{"schedule.ms", "ms", kindWall},
	{"stratum.ms", "ms", kindWall},
	{"emit.ms", "ms", kindWall},
	{"admit.ms", "ms", kindWall},
	{"stratum.redundant_macs", "count", kindCount},
	{"emit.instrs", "count", kindCount},
	{"sim.ms", "ms", kindWall},
	{"sim.ns_per_instr", "ns", kindWall},
	{"sim.allocs_per_run", "count", kindAlloc},
	{"recovery.ms", "ms", kindWall},
	{"recovery.reexec_layers", "count", kindCount},
	{"recovery.degraded_ratio", "ratio", kindRatio},
	{"serialize.load_ms", "ms", kindWall},
	{"serve.exec_ms", "ms", kindWall},
	{"serve.overhead_ms", "ms", kindWall},
	{"serve.rejected", "count", kindCount},
	{"serve.failed", "count", kindCount},
	{"gen.lag_ms", "ms", kindWall},
	{"trace.overhead_pct", "%", kindRatio},
}
