package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/loadgen"
	"repro/internal/models"
	"repro/internal/randgraph"
	"repro/internal/serialize"
	"repro/internal/serve"
)

// request is one generated POST /run with what its reply must show.
type request struct {
	body      []byte // encoded serve.RunRequest
	model     string // the reply's Model: the zoo name or the custom graph's name
	graph     []byte // serialized custom graph, nil for a zoo model
	cores     int
	config    string
	faults    string
	faultCore int // the core the fault names; -1 for none
	watchdog  float64
}

// mixBlock is loadgen.DefaultMix as exact counts per block of blockLen
// requests: every block carries the mix's weights exactly, and the
// seed only orders the requests within it, so a run's composition does
// not depend on the seed.
func mixBlock(blockLen int) ([]string, error) {
	var out []string
	for _, m := range loadgen.DefaultMix() {
		n := m.Weight * float64(blockLen)
		if math.Abs(n-math.Round(n)) > 1e-9 {
			return nil, fmt.Errorf("mix weight %v of %s is not a multiple of 1/%d", m.Weight, m.Model, blockLen)
		}
		for i := 0; i < int(math.Round(n)); i++ {
			out = append(out, m.Model)
		}
	}
	if len(out) != blockLen {
		return nil, fmt.Errorf("mix weights sum to %d/%d", len(out), blockLen)
	}
	return out, nil
}

func encodeRequest(r serve.RunRequest) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // RunRequest has only plain fields
	}
	return b
}

// warmRequests is serve-warm's request list: Table 2 models on the
// default platform (3 cores, +Stratum), weighted by loadgen.DefaultMix.
func warmRequests(seed uint64, n int) ([]request, error) {
	block, err := mixBlock(warmBlock)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(splitmix64(seed^0x7761726d) >> 1)))
	out := make([]request, 0, n)
	for len(out) < n {
		perm := rng.Perm(len(block))
		for _, i := range perm {
			m := block[i]
			out = append(out, request{body: encodeRequest(serve.RunRequest{Model: m}), model: m, cores: 3, config: "stratum", faultCore: -1})
		}
	}
	return out[:n], nil
}

// Custom-graph bounds for serve-cold.
var coldGraphParams = randgraph.Params{MaxLayers: 24, MaxHW: 96, MaxC: 64}

// faultCores are the platforms serve-cold faults: the paper's 3-core
// platform, where a recovery keeps two survivors.
var faultCores = []int{3}

// mixKey names a Table 2 model's compilation on one platform.
type mixKey struct {
	model string
	cores int
}

// coldCustom is how many custom graphs each serve-cold block carries
// next to its ten fault requests. Eight of eighteen (not half) keeps
// the median latency inside the fault requests' fastest group instead
// of on the gap between the two kinds, where it jumped between runs.
const coldCustom = 8

// coldRequests is serve-cold's request list, in blocks of 18: eight
// custom randgraph graphs (each a compile-cache miss) on 1-3 cores
// under Base or +Stratum, and ten Table 2 models in DefaultMix counts,
// each with a kill or a silent hang on one of its own platform's cores
// and Recover set. clean gives each fault request's fault-free cycles.
// It also returns how many generated graphs were skipped as oversize
// (see customGraph).
//
// Each model's faults follow one fixed schedule: they cycle through the
// platform's cores, alternate between kill and hang, and land at
// 15%-75% of the fault-free cycles along a low-discrepancy sequence.
// Every prefix of the list thus covers the recovery cases evenly, and a
// run's recovery cost does not hinge on a few draws: a UNet recovery
// costs seconds, and a run serves only a dozen or two of them. The
// seed picks the custom graphs, their platforms and the request order.
func coldRequests(seed uint64, n int, clean map[mixKey]float64) ([]request, int, error) {
	mix, err := mixBlock(10)
	if err != nil {
		return nil, 0, err
	}
	limit := 8 * zooMaxLayerBytes()
	skipped := 0
	rng := rand.New(rand.NewSource(int64(splitmix64(seed^0x636f6c64) >> 1)))
	faults := map[string]int{} // fault requests made so far, per model
	out := make([]request, 0, n)
	for len(out) < n {
		// k < coldCustom: a custom graph; else a fault request on mix[k-coldCustom]
		for _, k := range rng.Perm(coldCustom + len(mix)) {
			if k < coldCustom {
				r, skips, err := customRequest(seed, len(out), limit, rng)
				if err != nil {
					return nil, 0, err
				}
				skipped += skips
				out = append(out, r)
				continue
			}
			m := mix[k-coldCustom]
			out = append(out, faultRequest(m, faults[m], clean))
			faults[m]++
		}
	}
	return out[:n], skipped, nil
}

// zooMaxLayerBytes is the largest layer output of any zoo model.
func zooMaxLayerBytes() int64 {
	var m int64
	for _, info := range append(models.All(), models.Extra()...) {
		m = max(m, maxLayerBytes(info.Build()))
	}
	return m
}

func maxLayerBytes(g *graph.Graph) int64 {
	var m int64
	for _, l := range g.Layers() {
		m = max(m, l.OutShape.Bytes(l.DType))
	}
	return m
}

// customGraph draws the custom graph for list position idx. The
// randgraph bounds cap the input, not the working set: each stride-2
// TransposeConv2D doubles H and W, and a chain of them reaches layers of
// gigabytes (one drawn graph has a 10112x8320x28 layer, 2.4 GB, and
// compiles for over a minute on every platform, past the server's
// deadline). Graphs whose largest layer exceeds limit are redrawn, and
// the redraws are counted. The heavy compile tail below the limit
// (hundreds of milliseconds to about a second) stays in the list.
func customGraph(seed uint64, idx int, limit int64) (*graph.Graph, int) {
	for skips := 0; ; skips++ {
		gseed := int64(splitmix64(splitmix64(seed<<24^uint64(idx))+uint64(skips)) >> 1)
		g := randgraph.New(gseed, coldGraphParams)
		if maxLayerBytes(g) <= limit {
			return g, skips
		}
	}
}

func customRequest(seed uint64, idx int, limit int64, rng *rand.Rand) (request, int, error) {
	g, skips := customGraph(seed, idx, limit)
	var buf bytes.Buffer
	if err := serialize.SaveGraph(&buf, g); err != nil {
		return request{}, 0, fmt.Errorf("serialize %s: %w", g.Name, err)
	}
	r := request{
		model:     g.Name,
		graph:     buf.Bytes(),
		cores:     1 + rng.Intn(3),
		config:    []string{"base", "stratum"}[rng.Intn(2)],
		faultCore: -1,
	}
	r.body = encodeRequest(serve.RunRequest{Graph: r.graph, Cores: r.cores, Config: r.config})
	return r, skips, nil
}

// golden is the fractional part of the golden ratio: stepping by it
// spreads successive points evenly over [0, 1).
const golden = 0.6180339887498949

// faultRequest is model's i-th fault request (see coldRequests).
func faultRequest(model string, i int, clean map[mixKey]float64) request {
	cores := faultCores[i%len(faultCores)]
	c := i % cores
	hang := i%2 == 1
	u := math.Mod(float64(i)*golden, 1)
	cycles := clean[mixKey{model, cores}]
	at := cycles * (0.15 + 0.6*u)
	r := request{model: model, cores: cores, config: "stratum", faultCore: c}
	if hang {
		r.faults = fmt.Sprintf("hang=%d@%.0f", c, at)
		r.watchdog = math.Floor(cycles / 50)
	} else {
		r.faults = fmt.Sprintf("kill=%d@%.0f", c, at)
	}
	r.body = encodeRequest(serve.RunRequest{Model: model, Cores: cores, Faults: r.faults, WatchdogCycles: r.watchdog, Recover: true})
	return r
}
