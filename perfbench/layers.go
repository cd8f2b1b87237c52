package main

import (
	"context"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/sim"
)

// layerAcc accumulates the traced run's per-layer counts and the
// timings the program reports itself (core.Result.Timing). Layer times
// measured from outside come from the tracer's spans instead.
type layerAcc struct {
	// One entry per compile miss, set-up warm-ups included.
	attempts  []float64
	fallback  []time.Duration // compile wall minus the winning rung's stages
	allocMB   []float64
	emit      []time.Duration
	admit     []time.Duration
	redundant []float64
	instrs    []float64

	simNS     float64 // clean runs only, for ns per instruction
	simInstrs float64
	simAllocs []float64

	reexec   []float64
	degraded float64 // degraded completions per fault request

	hitRatio    float64
	lastCompile time.Duration
	lastHit     bool
}

// compile calls core.CompileCachedCtx under a "core.compile" span.
// requestPath marks calls a user's request makes (as opposed to cache
// warm-up in set-up).
func (acc *layerAcc) compile(ctx context.Context, tr *tracer, parent, req int, g *graph.Graph, a *arch.Arch, opt core.Options, requestPath bool) (*core.Result, error) {
	hit := core.Cached(g, a, opt)
	var m0, m1 runtime.MemStats
	if !hit {
		runtime.ReadMemStats(&m0)
	}
	name := "core.compile"
	if !requestPath {
		name = "setup.compile"
	}
	id := tr.begin(name, parent, req)
	start := time.Now()
	res, err := core.CompileCachedCtx(ctx, g, a, opt)
	d := time.Since(start)
	tr.end(id)
	acc.lastCompile, acc.lastHit = d, hit
	if err != nil || hit {
		return res, err
	}
	runtime.ReadMemStats(&m1)
	tm := res.Timing
	acc.attempts = append(acc.attempts, float64(len(res.Downgrades)+1))
	acc.fallback = append(acc.fallback, d-(tm.Partition+tm.Schedule+tm.Stratum+tm.Emit+tm.Admit))
	acc.allocMB = append(acc.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	acc.emit = append(acc.emit, tm.Emit)
	acc.admit = append(acc.admit, tm.Admit)
	acc.redundant = append(acc.redundant, float64(res.RedundantMACs))
	acc.instrs = append(acc.instrs, float64(res.Program.NumInstrs()))
	return res, nil
}

// simulate calls sim.Run under a "sim.run" span, counting allocations.
func (acc *layerAcc) simulate(tr *tracer, parent, req int, p *plan.Program, cfg sim.Config) (*sim.Result, time.Duration, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := tr.begin("sim.run", parent, req)
	start := time.Now()
	out, err := sim.Run(p, cfg)
	d := time.Since(start)
	tr.end(id)
	runtime.ReadMemStats(&m1)
	acc.simAllocs = append(acc.simAllocs, float64(m1.Mallocs-m0.Mallocs))
	if err == nil {
		acc.simNS += float64(d)
		acc.simInstrs += float64(p.NumInstrs())
	}
	return out, d, err
}

// fill writes the per-layer metrics. A layer's time is the mean self
// time of its spans; layers the workload never reached report 0.
func (acc *layerAcc) fill(o *outcome) {
	self := o.tr.selfTimes()
	set := func(name string, v float64) { o.layer[name] = v }
	set("core.compile_ms", meanMS(self["core.compile"]))
	set("core.attempts", mean(acc.attempts))
	set("core.fallback_ms", meanMS(acc.fallback))
	set("core.alloc_mb", mean(acc.allocMB))
	set("core.cache_hit_ratio", acc.hitRatio)
	set("partition.ms", meanMS(self["partition"]))
	set("schedule.ms", meanMS(self["schedule"]))
	set("stratum.ms", meanMS(self["stratum"]))
	set("emit.ms", meanMS(acc.emit))
	set("admit.ms", meanMS(acc.admit))
	set("stratum.redundant_macs", mean(acc.redundant))
	set("emit.instrs", mean(acc.instrs))
	set("sim.ms", meanMS(self["sim.run"]))
	set("sim.ns_per_instr", ratio(acc.simNS, acc.simInstrs))
	set("sim.allocs_per_run", mean(acc.simAllocs))
	set("recovery.ms", meanMS(self["recovery"]))
	set("recovery.reexec_layers", mean(acc.reexec))
	set("recovery.degraded_ratio", acc.degraded)
	set("serialize.load_ms", meanMS(self["serialize.load"]))
	o.samples["traced_compile_misses"] = len(acc.attempts)
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return ms(s) / float64(len(ds))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
