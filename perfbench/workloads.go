package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/loadgen"
)

// Request-list blocks (each carries the list's mix exactly; a run
// serves whole blocks) and lengths. A run that reaches the end of its
// list wraps around.
const (
	warmBlock   = 10
	coldBlock   = coldCustom + 10
	warmListLen = 2000 * warmBlock
	coldListLen = 40 * coldBlock
)

// mixKeys lists the DefaultMix models on each of the given platforms.
func mixKeys(cores ...int) []mixKey {
	var keys []mixKey
	for _, m := range loadgen.DefaultMix() {
		for _, c := range cores {
			keys = append(keys, mixKey{m.Model, c})
		}
	}
	return keys
}

// repeatSetup performs set-up until it ran minSetups times and for
// minSetupTime of process CPU time in all, at most maxSetups times and
// for at most maxSetupWall, timing each in process CPU time. It
// returns the last state; earlier states are released with drop.
// setup_s is the median, so a cheap set-up gets enough samples to
// steady it.
func repeatSetup[S any](o *outcome, setup func() (S, error), drop func(S)) (S, error) {
	var st S
	var total time.Duration
	begin := time.Now()
	for i := 0; i < maxSetups && time.Since(begin) < maxSetupWall; i++ {
		if i >= minSetups && total >= minSetupTime {
			break
		}
		if i > 0 {
			drop(st)
		}
		c0 := processCPU()
		var err error
		if st, err = setup(); err != nil {
			return st, err
		}
		d := processCPU() - c0
		o.setups = append(o.setups, d)
		total += d
	}
	return st, nil
}

type serveState struct {
	h     *harness
	reqs  []request
	clean map[mixKey]float64
}

func (st *serveState) release() { st.h.close() }

// serverCounters records the untraced phase's /stats counters.
func serverCounters(o *outcome, h *harness) error {
	st, err := h.stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	o.layer["serve.rejected"] = float64(st.Rejected)
	o.layer["serve.failed"] = float64(st.Failed)
	return nil
}

// runWarm is serve-warm: set-up compiles the mix into the cache (the
// server's cold start), so every timed request is a cache hit.
func runWarm(e env) (*outcome, error) {
	o := newOutcome(e.traced)
	ctx := context.Background()
	keys := mixKeys(3)
	st, err := repeatSetup(o, func() (*serveState, error) {
		clean, err := warmCompile(ctx, nil, nil, keys)
		if err != nil {
			return nil, err
		}
		reqs, err := warmRequests(e.seed, warmListLen)
		if err != nil {
			return nil, err
		}
		return &serveState{h: startHarness(), reqs: reqs, clean: clean}, nil
	}, (*serveState).release)
	if err != nil {
		return nil, err
	}

	var reps []reply
	var start, end time.Time
	var cpu time.Duration
	alloc, hits, misses := countAround(func() {
		start, cpu = time.Now(), processCPU()
		reps = st.h.drive(st.reqs, e.untracedSeconds(), warmBlock, nil)
		end, cpu = time.Now(), processCPU()-cpu
	})
	if err := serverCounters(o, st.h); err != nil {
		return nil, err
	}
	st.release()
	for _, rep := range reps {
		r := st.reqs[rep.idx]
		if checkReply(o, r, rep, st.clean[mixKey{r.model, 3}]) && !rep.resp.CacheHit {
			o.fail("request %d (%s): compile-cache miss on a warmed server", rep.idx, r.model)
		}
	}
	serveMetrics(o, st.reqs, reps, cpu, start, end, alloc)
	o.detail["latency_by_kind"] = byKind(st.reqs, reps)

	if !e.traced {
		return o, nil
	}
	acc := &layerAcc{hitRatio: ratio(float64(hits), float64(hits+misses))}
	o.layer["gen.lag_ms"] = lagP99(reps)
	traced, err := tracedServe(o, acc, st.reqs, e.seconds/2, warmBlock,
		func() error { _, err := warmCompile(ctx, acc, o.tr, keys); return err },
		func() error { return nil })
	if err != nil {
		return nil, err
	}
	o.layer["trace.overhead_pct"] = (median(latencies(traced))/median(latencies(reps)) - 1) * 100
	acc.fill(o)
	return o, nil
}

// runCold is serve-cold: a closed loop over a fixed seeded list of
// custom graphs (compile-cache misses) and faulted Table 2 requests that
// recover onto the surviving cores. Set-up warms only the Table 2 base
// compiles the faults start from.
func runCold(e env) (*outcome, error) {
	o := newOutcome(e.traced)
	ctx := context.Background()
	keys := mixKeys(faultCores...)
	st, err := repeatSetup(o, func() (*serveState, error) {
		clean, err := warmCompile(ctx, nil, nil, keys)
		if err != nil {
			return nil, err
		}
		reqs, skipped, err := coldRequests(e.seed, coldListLen, clean)
		if err != nil {
			return nil, err
		}
		o.samples["oversize_graphs_redrawn"] = skipped
		return &serveState{h: startHarness(), reqs: reqs, clean: clean}, nil
	}, (*serveState).release)
	if err != nil {
		return nil, err
	}

	var reps []reply
	var start, end time.Time
	var cpu time.Duration
	alloc, hits, misses := countAround(func() {
		start, cpu = time.Now(), processCPU()
		reps = st.h.drive(st.reqs, e.untracedSeconds(), coldBlock, nil)
		end, cpu = time.Now(), processCPU()-cpu
	})
	if err := serverCounters(o, st.h); err != nil {
		return nil, err
	}
	st.release()
	var faulted, degraded int
	for _, rep := range reps {
		r := st.reqs[rep.idx]
		checkReply(o, r, rep, 0)
		if r.faultCore >= 0 {
			faulted++
			if rep.resp.Degraded {
				degraded++
			}
		}
	}
	serveMetrics(o, st.reqs, reps, cpu, start, end, alloc)
	o.detail["latency_by_kind"] = byKind(st.reqs, reps)
	o.samples["list_laps"] = 1 + (len(reps)-1)/len(st.reqs)

	if !e.traced {
		return o, nil
	}
	acc := &layerAcc{hitRatio: ratio(float64(hits), float64(hits+misses)), degraded: ratio(float64(degraded), float64(faulted))}
	o.layer["gen.lag_ms"] = lagP99(reps)
	traced, err := tracedServe(o, acc, st.reqs, e.seconds/2, coldBlock,
		func() error { _, err := warmCompile(ctx, acc, o.tr, keys); return err },
		func() error { _, err := warmCompile(ctx, nil, nil, keys); return err })
	if err != nil {
		return nil, err
	}
	// Same requests, same cache state: compare total latency over the
	// list prefix both phases served.
	untraced := map[int]time.Duration{}
	for _, r := range reps {
		untraced[r.idx] = r.latency()
	}
	var t, u time.Duration
	for _, r := range traced {
		if d, ok := untraced[r.idx]; ok {
			t += r.latency()
			u += d
		}
	}
	o.layer["trace.overhead_pct"] = (float64(t)/float64(u) - 1) * 100
	acc.fill(o)
	return o, nil
}

func latencies(reps []reply) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = ms(r.latency())
	}
	return out
}
