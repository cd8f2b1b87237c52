package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/stratum"
)

// zooPoint is one (model, config) compilation on the 3-core platform.
type zooPoint struct {
	model  string
	config string
	opt    core.Options
	g      *graph.Graph
	golden float64 // reference-engine cycles for +Stratum points, else 0
}

// zooInputs is the workload's set-up: the zoo graphs in a seeded
// compile order, the golden cycle table, and the seeded sample of Base
// points cross-checked against the reference engine.
type zooInputs struct {
	a      *arch.Arch
	points []zooPoint
	refs   []int // indices into points
}

// zooRefSample is how many Base points a run cross-checks between
// sim.Run and sim.RunReference.
const zooRefSample = 3

func zooSetup(root string, seed uint64) (*zooInputs, error) {
	data, err := os.ReadFile(filepath.Join(root, "internal", "sim", "testdata", "golden_cycles.json"))
	if err != nil {
		return nil, fmt.Errorf("golden cycles: %w", err)
	}
	var golden map[string]float64
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("golden cycles: %w", err)
	}
	in := &zooInputs{a: arch.Exynos2100Like()}
	for _, m := range append(models.All(), models.Extra()...) {
		g := m.Build()
		want, ok := golden[m.Name+"/none"]
		if !ok {
			return nil, fmt.Errorf("golden cycles: no entry %s/none", m.Name)
		}
		in.points = append(in.points,
			zooPoint{model: m.Name, config: "base", opt: core.Base(), g: g},
			zooPoint{model: m.Name, config: "stratum", opt: core.Stratum(), g: g, golden: want})
	}
	rng := rand.New(rand.NewSource(int64(splitmix64(seed) >> 1)))
	rng.Shuffle(len(in.points), func(i, j int) { in.points[i], in.points[j] = in.points[j], in.points[i] })
	var base []int
	for i, p := range in.points {
		if p.golden == 0 {
			base = append(base, i)
		}
	}
	rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })
	in.refs = append(in.refs, base[:zooRefSample]...)
	return in, nil
}

// zooPass is one cold pass: reset the compile cache, compile every
// point, simulate each result once and check it.
type zooPass struct {
	wall    time.Duration
	alloc   uint64
	compile []time.Duration // per point, in points order, in process CPU time
	results []*core.Result
	cycles  []float64
}

func runZooPass(ctx context.Context, in *zooInputs, o *outcome) zooPass {
	core.ResetCache()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := zooPass{
		compile: make([]time.Duration, len(in.points)),
		results: make([]*core.Result, len(in.points)),
		cycles:  make([]float64, len(in.points)),
	}
	t0 := time.Now()
	for i, pt := range in.points {
		o.attempted++
		c0 := processCPU()
		res, err := core.CompileCachedCtx(ctx, pt.g, in.a, pt.opt)
		p.compile[i] = processCPU() - c0
		if err != nil {
			o.fail("compile %s/%s: %v", pt.model, pt.config, err)
			continue
		}
		out, err := sim.Run(res.Program, sim.Config{})
		if err != nil {
			o.fail("simulate %s/%s: %v", pt.model, pt.config, err)
			continue
		}
		p.results[i], p.cycles[i] = res, out.Stats.TotalCycles
		if pt.golden != 0 && out.Stats.TotalCycles != pt.golden {
			o.fail("%s/%s: %v cycles, golden %v", pt.model, pt.config, out.Stats.TotalCycles, pt.golden)
		}
	}
	p.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	return p
}

func runZoo(e env) (*outcome, error) {
	o := newOutcome(e.traced)
	in, err := repeatSetup(o, func() (*zooInputs, error) { return zooSetup(e.root, e.seed) }, func(*zooInputs) {})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	var passes []zooPass
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < e.untracedSeconds() {
		passes = append(passes, runZooPass(ctx, in, o))
	}
	last := passes[len(passes)-1]

	// Reference-engine agreement on a seeded sample of Base points,
	// outside the timed passes.
	for _, i := range in.refs {
		pt, res := in.points[i], last.results[i]
		if res == nil {
			continue
		}
		o.attempted++
		ev, err1 := sim.Run(res.Program, sim.Config{})
		ref, err2 := sim.RunReference(res.Program, sim.Config{})
		if err1 != nil || err2 != nil {
			o.fail("reference check %s/%s: %v / %v", pt.model, pt.config, err1, err2)
			continue
		}
		if !reflect.DeepEqual(ev.Stats, ref.Stats) {
			o.fail("%s/%s: event and reference engines disagree (%v vs %v cycles)",
				pt.model, pt.config, ev.Stats.TotalCycles, ref.Stats.TotalCycles)
		}
	}

	// Each point's compile time is its median over the passes.
	per := make([]float64, len(in.points))
	for i := range in.points {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, ms(p.compile[i]))
		}
		per[i] = median(xs)
	}
	var walls, alloc []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		alloc = append(alloc, float64(p.alloc))
	}
	var sum float64
	for _, x := range per {
		sum += x
	}
	o.detail["pass_wall_s"] = walls
	o.detail["point_compile_ms"] = pointTable(in, per)
	n := float64(len(in.points))
	o.e2e["p50_ms"] = median(per)
	o.e2e["p99_ms"] = quantile(per, 0.99)
	o.e2e["geomean_ms"] = geomean(per)
	o.e2e["ops_per_s"] = n / (sum / 1000)
	o.e2e["alloc_mb_per_op"] = median(alloc) / 1e6 / n
	o.e2e["sim_cycles_geomean"] = geomean(last.cycles)
	o.samples["passes"] = len(passes)
	o.samples["compiles"] = len(passes) * len(in.points)
	o.samples["beyond_p99"] = beyond(per, o.e2e["p99_ms"])
	o.samples["reference_checks"] = len(in.refs)

	if e.traced {
		zooTraced(ctx, in, o, last)
	}
	return o, nil
}

// pointTable maps "model/config" to the point's median compile time.
func pointTable(in *zooInputs, per []float64) map[string]float64 {
	out := make(map[string]float64, len(per))
	for i, p := range in.points {
		out[p.model+"/"+p.config] = per[i]
	}
	return out
}

// zooTraced runs one traced pass, with the compile stages re-run from
// outside on every point, and builds the per-DNN-layer tables.
func zooTraced(ctx context.Context, in *zooInputs, o *outcome, untraced zooPass) {
	tr := o.tr
	core.ResetCache()
	runtime.GC()
	var acc layerAcc
	var tracedWork time.Duration
	tables := &zooTables{}
	for i, pt := range in.points {
		req := i + 1
		o.attempted++
		root := tr.begin("point", 0, req)
		res, err := acc.compile(ctx, tr, root, req, pt.g, in.a, pt.opt, true)
		if err != nil {
			tr.end(root)
			o.fail("traced compile %s/%s: %v", pt.model, pt.config, err)
			continue
		}
		_, d, err := acc.simulate(tr, root, req, res.Program, sim.Config{})
		tr.end(root)
		if err != nil {
			o.fail("traced simulate %s/%s: %v", pt.model, pt.config, err)
			continue
		}
		tracedWork += acc.lastCompile + d
		probeStages(ctx, tr, req, pt.g, in.a, pt.opt)
		tables.Attempts = append(tables.Attempts, attemptRow(pt, res, acc.lastCompile))
		if pt.config == "stratum" {
			tables.TopLayers = append(tables.TopLayers, topLayers(pt.model, in.a, res, 5)...)
		}
	}
	hits, misses := core.CacheStats()
	acc.hitRatio = ratio(float64(hits), float64(hits+misses))
	acc.fill(o)
	// The untraced pass timed the same compiles and checking sims.
	o.layer["trace.overhead_pct"] = (float64(tracedWork)/float64(untraced.wall) - 1) * 100
	o.tables = tables
}

// zooTables are the traced run's per-DNN-layer breakdowns.
type zooTables struct {
	TopLayers []layerRow
	Attempts  []compileAttempts
}

// layerRow is one DNN layer's simulated cost (metrics.BuildReport's
// per-layer rollup: engine-busy cycles charged to the layer).
type layerRow struct {
	Model   string
	Layer   string
	Cycles  float64 // Compute+Load+Store+Halo+Stall
	Compute float64
	Load    float64
	Store   float64
	Halo    float64
	Stall   float64
	MACs    int64
}

// compileAttempts is one point's walk down the fallback chain. The
// winning rung's stage times come from core.Result.Timing; the failed
// rungs are timed together, as the compile wall time minus the
// winning rung (the program records no per-rung spans).
type compileAttempts struct {
	Model, Config string
	Attempts      int
	Rungs         []string // fallback level of each attempt, winning last
	WallMS        float64
	WinningMS     float64
	PartitionMS   float64
	ScheduleMS    float64
	StratumMS     float64
	EmitMS        float64
	AdmitMS       float64
	FailedRungsMS float64
}

func attemptRow(pt zooPoint, res *core.Result, wall time.Duration) compileAttempts {
	tm := res.Timing
	win := tm.Partition + tm.Schedule + tm.Stratum + tm.Emit + tm.Admit
	row := compileAttempts{
		Model: pt.model, Config: pt.config, Attempts: len(res.Downgrades) + 1,
		WallMS: ms(wall), WinningMS: ms(win),
		PartitionMS: ms(tm.Partition), ScheduleMS: ms(tm.Schedule), StratumMS: ms(tm.Stratum),
		EmitMS: ms(tm.Emit), AdmitMS: ms(tm.Admit), FailedRungsMS: ms(wall - win),
	}
	row.Rungs = append(row.Rungs, core.FallbackNone.String())
	for _, d := range res.Downgrades {
		row.Rungs = append(row.Rungs, d.Level.String())
	}
	return row
}

func topLayers(model string, a *arch.Arch, res *core.Result, k int) []layerRow {
	col := &metrics.Collector{}
	out, err := sim.Run(res.Program, sim.Config{Hook: col})
	if err != nil {
		return nil
	}
	cores := make([]int, a.NumCores())
	for i := range cores {
		cores[i] = i
	}
	rep := metrics.BuildReport(a, []sim.Placement{{Program: res.Program, Cores: cores}}, &out.Stats, col)
	rows := make([]layerRow, 0, len(rep.Layers))
	for _, l := range rep.Layers {
		rows = append(rows, layerRow{
			Model: model, Layer: l.Name, Cycles: l.Compute + l.Load + l.Store + l.Halo + l.Stall,
			Compute: l.Compute, Load: l.Load, Store: l.Store, Halo: l.Halo, Stall: l.Stall, MACs: l.MACs,
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Cycles > rows[j].Cycles })
	if len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// probeStages re-runs the first fallback rung's partition, schedule
// and stratum stages from outside the compile driver, timing each
// public entry point on its own.
func probeStages(ctx context.Context, tr *tracer, req int, g *graph.Graph, a *arch.Arch, opt core.Options) {
	root := tr.begin("probe", 0, req)
	defer tr.end(root)

	id := tr.begin("partition", root, req)
	part := partition.New(g, a)
	part.Mode = opt.Partitioning
	part.WeightScale = opt.WeightScale
	part.Force = opt.ForceMethods
	plans, err := part.PlanAllCtx(ctx)
	tr.end(id)
	if err != nil {
		return
	}

	id = tr.begin("schedule", root, req)
	order := schedule.New(g, func(l *graph.Layer) bool { return plans[l.ID].Direction.Spatial() }).Order()
	tr.end(id)

	if opt.Stratum {
		id = tr.begin("stratum", root, req)
		b := stratum.New(g, a, plans, order)
		b.Boundary = opt.StratumBoundary
		b.Build()
		tr.end(id)
	}
}

// printTables renders the traced zoo run's per-DNN-layer tables.
func printTables(w io.Writer, tables any) {
	t, ok := tables.(*zooTables)
	if !ok {
		return
	}
	fmt.Fprintln(w, "  top DNN layers by simulated cycles (+Stratum, 3 cores):")
	fmt.Fprintf(w, "    %-16s %-28s %14s %14s %12s %12s %12s\n", "model", "layer", "cycles", "compute", "load", "store", "halo")
	for _, r := range t.TopLayers {
		fmt.Fprintf(w, "    %-16s %-28s %14.0f %14.0f %12.0f %12.0f %12.0f\n", r.Model, r.Layer, r.Cycles, r.Compute, r.Load, r.Store, r.Halo)
	}
	fmt.Fprintln(w, "  compile time per fallback attempt (winning rung's stages from core.Result.Timing; failed rungs together):")
	fmt.Fprintf(w, "    %-16s %-8s %8s %10s %10s %10s %10s %10s %10s %12s  %s\n",
		"model", "config", "attempts", "wall_ms", "win_ms", "part_ms", "sched_ms", "strat_ms", "emit_ms", "failed_ms", "rungs")
	for _, r := range t.Attempts {
		fmt.Fprintf(w, "    %-16s %-8s %8d %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f %12.2f  %s\n",
			r.Model, r.Config, r.Attempts, r.WallMS, r.WinningMS, r.PartitionMS, r.ScheduleMS, r.StratumMS, r.EmitMS, r.FailedRungsMS, strings.Join(r.Rungs, ">"))
	}
}
