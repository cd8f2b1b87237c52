package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/recovery"
	"repro/internal/serialize"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The serve workloads run from one process: one client over one
// connection in a closed loop, and a server allowed to execute two
// requests at once. One client, because requests are timed in process
// CPU time (see endToEnd), which is a request's own only with one
// request in flight. In wall time, too, one client was the steadiest
// load on the 2-vCPU VMs the benchmark was sized on: two clients'
// throughput doubled or halved from run to run with how much of the
// second vCPU the host granted, and an open loop, with the VM idle
// between sends, measured the host's vCPU wake-up delay more than the
// server (at 150 req/s its median latency tripled under heavy steal).
const serveConcurrency = 2

// harness is an in-process serve.Server behind a loopback HTTP
// listener, with a client limited to one connection.
type harness struct {
	hs *httptest.Server
	tr *http.Transport
	cl *http.Client
}

func startHarness() *harness {
	srv := serve.New(serve.Options{Concurrency: serveConcurrency})
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &harness{hs: hs, tr: tr, cl: &http.Client{Transport: tr}}
}

// close waits for every outstanding request and stops the listener.
func (h *harness) close() {
	h.tr.CloseIdleConnections()
	h.hs.Close()
}

// reply is one completed POST /run. Latency runs from ready, the
// client's previous completion, so it includes the client's own work
// between two requests; lag is that part.
type reply struct {
	idx    int
	status int
	err    string
	resp   serve.RunResponse
	ready  time.Time
	sent   time.Time
	done   time.Time
	cpu    time.Duration // process CPU time while in flight
}

func (r reply) latency() time.Duration { return r.done.Sub(r.ready) }
func (r reply) lag() time.Duration     { return r.sent.Sub(r.ready) }

func (h *harness) post(body []byte) (int, serve.RunResponse, string) {
	var rr serve.RunResponse
	resp, err := h.cl.Post(h.hs.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, rr, err.Error()
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, rr, err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, rr, string(bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &rr); err != nil {
		return resp.StatusCode, rr, err.Error()
	}
	return resp.StatusCode, rr, ""
}

func (h *harness) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := h.cl.Get(h.hs.URL + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// drive sends the request list from index 0 (wrapping) in a closed
// loop, each request when the previous one completes, until dur has
// passed and a whole number of blocks of `block` requests has been
// sent, so that every run serves the list's mix in whole blocks. It
// returns the replies in order.
func (h *harness) drive(reqs []request, dur time.Duration, block int, tr *tracer) []reply {
	var out []reply
	t0 := time.Now()
	ready := t0
	for k := 0; time.Since(t0) < dur || k%block != 0; k++ {
		idx := k % len(reqs)
		r := reply{idx: idx, ready: ready, sent: time.Now()}
		id := tr.begin("http.run", 0, idx+1)
		c0 := processCPU()
		r.status, r.resp, r.err = h.post(reqs[idx].body)
		r.cpu = processCPU() - c0
		tr.end(id)
		r.done = time.Now()
		ready = r.done
		out = append(out, r)
	}
	return out
}

// checkReply counts one request and fails it on a non-200 or on any
// output check. want is the expected TotalCycles, or 0 when unchecked.
func checkReply(o *outcome, r request, rep reply, want float64) bool {
	o.attempted++
	if rep.status != http.StatusOK {
		o.fail("request %d (%s): status %d: %s", rep.idx, r.model, rep.status, rep.err)
		return false
	}
	resp := rep.resp
	switch {
	case resp.Model != r.model:
		o.fail("request %d: reply names model %q, sent %q", rep.idx, resp.Model, r.model)
	case !(resp.TotalCycles > 0):
		o.fail("request %d (%s): %v cycles", rep.idx, r.model, resp.TotalCycles)
	case want != 0 && resp.TotalCycles != want:
		o.fail("request %d (%s): %v cycles, direct sim.Run gave %v", rep.idx, r.model, resp.TotalCycles, want)
	case r.faultCore >= 0 && !(resp.Degraded && slices.Contains(resp.DeadCores, r.faultCore)):
		o.fail("request %d (%s, %s): Degraded=%v DeadCores=%v, want core %d retired",
			rep.idx, r.model, r.faults, resp.Degraded, resp.DeadCores, r.faultCore)
	case r.faultCore < 0 && resp.Degraded:
		o.fail("request %d (%s): degraded without a fault", rep.idx, r.model)
	default:
		return true
	}
	return false
}

// serveMetrics fills the end-to-end metrics of a serve phase
// [start, end] in process CPU time: each request's latency is the CPU
// time the process (client and server) spent while it was in flight,
// and throughput is requests per second of the phase's process CPU
// time, phaseCPU. The wall-time figures go to the report.
func serveMetrics(o *outcome, reqs []request, reps []reply, phaseCPU time.Duration, start, end time.Time, alloc uint64) {
	var cpu, wall, cycles []float64
	for _, r := range reps {
		cpu = append(cpu, ms(r.cpu))
		wall = append(wall, ms(r.latency()))
		// Custom graphs are random in size by construction; the cycles
		// figure covers the zoo models only.
		if r.status == http.StatusOK && reqs[r.idx].graph == nil {
			cycles = append(cycles, r.resp.TotalCycles)
		}
	}
	o.e2e["p50_ms"] = median(cpu)
	o.e2e["p99_ms"] = quantile(cpu, 0.99)
	o.e2e["geomean_ms"] = geomean(cpu)
	o.e2e["ops_per_s"] = float64(len(reps)) / phaseCPU.Seconds()
	o.e2e["alloc_mb_per_op"] = float64(alloc) / 1e6 / float64(len(reps))
	o.e2e["sim_cycles_geomean"] = geomean(cycles)
	o.samples["latency_requests"] = len(reps)
	o.samples["beyond_p99"] = beyond(cpu, o.e2e["p99_ms"])
	o.detail["wall_time"] = map[string]float64{
		"p50_ms":     median(wall),
		"p99_ms":     quantile(wall, 0.99),
		"geomean_ms": geomean(wall),
		"ops_per_s":  float64(len(reps)) / end.Sub(start).Seconds(),
	}
}

// kindStats summarizes the latencies of one kind of request.
type kindStats struct {
	N     int
	P50MS float64
	MaxMS float64
	SumMS float64
}

// byKind groups reply wall-time latencies by request kind: "custom" for custom
// graphs, else the model name and its fault kind.
func byKind(reqs []request, reps []reply) map[string]kindStats {
	lat := map[string][]float64{}
	for _, r := range reps {
		q := reqs[r.idx]
		k := q.model
		if q.graph != nil {
			k = "custom/" + q.config
		} else if q.faults != "" {
			k += "/" + q.faults[:strings.IndexByte(q.faults, '=')]
		}
		lat[k] = append(lat[k], ms(r.latency()))
	}
	out := map[string]kindStats{}
	for k, xs := range lat {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		out[k] = kindStats{N: len(xs), P50MS: median(xs), MaxMS: quantile(xs, 1), SumMS: sum}
	}
	return out
}

func lagP99(reps []reply) float64 {
	var lag []float64
	for _, r := range reps {
		lag = append(lag, ms(r.lag()))
	}
	return quantile(lag, 0.99)
}

// countAround runs fn between two snapshots of the bytes allocated and
// the compile-cache counters, and returns the differences.
func countAround(fn func()) (alloc uint64, hits, misses int64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	h0, x0 := core.CacheStats()
	fn()
	runtime.ReadMemStats(&m1)
	h1, x1 := core.CacheStats()
	return m1.TotalAlloc - m0.TotalAlloc, h1 - h0, x1 - x0
}

// replay re-executes request r with direct library calls in the order
// serve's request path makes them (load or build the graph, compile
// through the cache, simulate, recover a lost core), each call under
// its own span, and returns the TotalCycles the server should have
// answered.
func (acc *layerAcc) replay(ctx context.Context, tr *tracer, idx int, r request) (float64, bool, error) {
	root := tr.begin("request", 0, idx+1)
	cycles, degraded, probe, err := acc.replaySpans(ctx, tr, root, idx+1, r)
	tr.end(root)
	if probe != nil {
		probe() // a compile miss: time its stages outside the request span
	}
	return cycles, degraded, err
}

func (acc *layerAcc) replaySpans(ctx context.Context, tr *tracer, root, req int, r request) (cycles float64, degraded bool, probe func(), err error) {
	var g *graph.Graph
	if r.graph != nil {
		id := tr.begin("serialize.load", root, req)
		g, err = serialize.LoadGraph(bytes.NewReader(r.graph))
		tr.end(id)
		if err != nil {
			return 0, false, probe, err
		}
	} else {
		m, err := models.ByName(r.model)
		if err != nil {
			return 0, false, probe, err
		}
		g = m.Build()
	}
	a, err := cliutil.Arch(r.cores)
	if err != nil {
		return 0, false, probe, err
	}
	opt, err := cliutil.Config(r.config)
	if err != nil {
		return 0, false, probe, err
	}
	var plan *fault.Plan
	if r.faults != "" {
		if plan, err = fault.ParseSpec(r.faults, 0); err != nil {
			return 0, false, probe, err
		}
	}
	res, err := acc.compile(ctx, tr, root, req, g, a, opt, true)
	if err != nil {
		return 0, false, probe, err
	}
	if !acc.lastHit {
		probe = func() { probeStages(ctx, tr, req, g, a, opt) }
	}
	cfg := sim.Config{Ctx: ctx, Faults: plan, WatchdogCycles: r.watchdog}
	out, _, err := acc.simulate(tr, root, req, res.Program, cfg)
	if err == nil {
		return out.Stats.TotalCycles, false, probe, nil
	}
	var cf *sim.CoreFailure
	var hd *sim.HangDetected
	if !errors.As(err, &cf) && !errors.As(err, &hd) {
		return 0, false, probe, err
	}
	id := tr.begin("recovery", root, req)
	rec, err := recovery.RecoverFrom(g, a, err, recovery.Options{Opt: opt, Sim: cfg})
	tr.end(id)
	if err != nil {
		return 0, false, probe, err
	}
	acc.reexec = append(acc.reexec, float64(rec.ReExecutedLayers()))
	return rec.MergedStats().TotalCycles, true, probe, nil
}

// servedInOrder returns the replies sorted by request index.
func servedInOrder(reps []reply) []reply {
	out := append([]reply(nil), reps...)
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// warmCompile resets the compile cache and compiles each key through
// it, returning the fault-free cycles of each result. With acc set, the
// compiles are traced set-up misses and their stages are probed.
func warmCompile(ctx context.Context, acc *layerAcc, tr *tracer, keys []mixKey) (map[mixKey]float64, error) {
	core.ResetCache()
	clean := make(map[mixKey]float64, len(keys))
	opt := core.Stratum()
	for _, k := range keys {
		m, err := models.ByName(k.model)
		if err != nil {
			return nil, err
		}
		a, err := cliutil.Arch(k.cores)
		if err != nil {
			return nil, err
		}
		g := m.Build()
		var res *core.Result
		if acc == nil {
			res, err = core.CompileCachedCtx(ctx, g, a, opt)
		} else {
			res, err = acc.compile(ctx, tr, 0, 0, g, a, opt, false)
		}
		if err != nil {
			return nil, fmt.Errorf("warm compile %s on %d cores: %w", k.model, k.cores, err)
		}
		if acc != nil {
			probeStages(ctx, tr, 0, g, a, opt)
		}
		out, err := sim.Run(res.Program, sim.Config{})
		if err != nil {
			return nil, fmt.Errorf("warm simulate %s on %d cores: %w", k.model, k.cores, err)
		}
		clean[k] = out.Stats.TotalCycles
	}
	return clean, nil
}

// tracedServe is the traced half shared by both serve workloads: a
// traced HTTP phase over the list from index 0, then the same requests
// replayed by direct calls. beforeHTTP and beforeReplay each bring the
// compile cache to the state the untraced phase started from. It fills
// the serve time split and returns the traced HTTP replies.
func tracedServe(o *outcome, acc *layerAcc, reqs []request, dur time.Duration, block int, beforeHTTP, beforeReplay func() error) ([]reply, error) {
	tr := o.tr
	if err := beforeHTTP(); err != nil {
		return nil, err
	}
	h := startHarness()
	runtime.GC() // as measure does before the untraced phase
	traced := h.drive(reqs, dur, block, tr)
	h.close()
	var exec, overhead []float64
	for _, r := range traced {
		if checkReply(o, reqs[r.idx], r, 0) {
			exec = append(exec, r.resp.ElapsedMS)
			overhead = append(overhead, ms(r.done.Sub(r.sent))-r.resp.ElapsedMS)
		}
	}
	o.layer["serve.exec_ms"] = mean(exec)
	o.layer["serve.overhead_ms"] = mean(overhead)

	if err := beforeReplay(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, r := range servedInOrder(traced) {
		if r.status != http.StatusOK {
			continue
		}
		o.attempted++
		cycles, degraded, err := acc.replay(ctx, tr, r.idx, reqs[r.idx])
		switch {
		case err != nil:
			o.fail("replay %d (%s): %v", r.idx, reqs[r.idx].model, err)
		case cycles != r.resp.TotalCycles || degraded != r.resp.Degraded:
			o.fail("replay %d (%s): direct calls gave %v cycles (degraded %v), server %v (degraded %v)",
				r.idx, reqs[r.idx].model, cycles, degraded, r.resp.TotalCycles, r.resp.Degraded)
		}
	}
	return traced, nil
}
