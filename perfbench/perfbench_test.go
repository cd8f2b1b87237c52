package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serialize"
)

func requestBodies(reqs []request) []string {
	out := make([]string, len(reqs))
	for i, r := range reqs {
		out[i] = string(r.body)
	}
	return out
}

func fakeClean() map[mixKey]float64 {
	clean := map[mixKey]float64{}
	for _, k := range mixKeys(faultCores...) {
		clean[k] = 1e6
	}
	return clean
}

func TestGeneratorsDeterministic(t *testing.T) {
	w1, err := warmRequests(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := warmRequests(1, 100)
	w3, _ := warmRequests(2, 100)
	if !reflect.DeepEqual(requestBodies(w1), requestBodies(w2)) {
		t.Error("serve-warm: same seed, different requests")
	}
	if reflect.DeepEqual(requestBodies(w1), requestBodies(w3)) {
		t.Error("serve-warm: seeds 1 and 2 give the same requests")
	}

	c1, _, err := coldRequests(1, 60, fakeClean())
	if err != nil {
		t.Fatal(err)
	}
	c2, _, _ := coldRequests(1, 60, fakeClean())
	c3, _, _ := coldRequests(2, 60, fakeClean())
	if !reflect.DeepEqual(requestBodies(c1), requestBodies(c2)) {
		t.Error("serve-cold: same seed, different requests")
	}
	if reflect.DeepEqual(requestBodies(c1), requestBodies(c3)) {
		t.Error("serve-cold: seeds 1 and 2 give the same requests")
	}

	root, _ := filepath.Abs("..")
	z1, err := zooSetup(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	z2, _ := zooSetup(root, 1)
	order := func(in *zooInputs) (s []string) {
		for _, p := range in.points {
			s = append(s, p.model+"/"+p.config)
		}
		return s
	}
	if !reflect.DeepEqual(order(z1), order(z2)) || !reflect.DeepEqual(z1.refs, z2.refs) {
		t.Error("zoo-compile: same seed, different order or reference sample")
	}
}

// TestMixComposition pins serve-cold's stratified blocks: coldCustom
// custom graphs within the size limit and ten fault requests in exact
// DefaultMix counts, each fault on a core of its own platform.
func TestMixComposition(t *testing.T) {
	const block = coldCustom + 10
	reqs, _, err := coldRequests(5, 2*block, fakeClean())
	if err != nil {
		t.Fatal(err)
	}
	limit := 8 * zooMaxLayerBytes()
	for b := 0; b < 2; b++ {
		counts := map[string]int{}
		for _, r := range reqs[b*block : (b+1)*block] {
			if r.graph != nil {
				counts["custom"]++
				g, err := serialize.LoadGraph(bytes.NewReader(r.graph))
				if err != nil {
					t.Fatal(err)
				}
				if maxLayerBytes(g) > limit {
					t.Errorf("custom graph %s has a %d-byte layer, over the %d limit", g.Name, maxLayerBytes(g), limit)
				}
				continue
			}
			counts[r.model]++
			if r.faultCore < 0 || r.faultCore >= r.cores {
				t.Errorf("fault request %q names core %d of a %d-core platform", r.faults, r.faultCore, r.cores)
			}
		}
		want := map[string]int{"custom": coldCustom, "MobileNetV2": 3, "MobileNetV2-SSD": 2, "MobileDet-SSD": 2, "InceptionV3": 1, "DeepLabV3+": 1, "UNet": 1}
		if !reflect.DeepEqual(counts, want) {
			t.Errorf("block %d: %v, want %v", b, counts, want)
		}
	}
}

// TestSeedOneListsServeCleanly serves the head of the seed-1 request
// lists through the real server and checks every reply.
func TestSeedOneListsServeCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the Table 2 models")
	}
	ctx := context.Background()
	clean, err := warmCompile(ctx, nil, nil, mixKeys(3))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := warmRequests(1, 60)
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := coldRequests(1, 40, clean)
	if err != nil {
		t.Fatal(err)
	}
	h := startHarness()
	defer h.close()
	o := newOutcome(false)
	for i, r := range warm {
		rep := reply{idx: i}
		rep.status, rep.resp, rep.err = h.post(r.body)
		checkReply(o, r, rep, clean[mixKey{r.model, 3}])
	}
	for i, r := range cold {
		rep := reply{idx: i}
		rep.status, rep.resp, rep.err = h.post(r.body)
		checkReply(o, r, rep, 0)
	}
	if o.failed != 0 || o.attempted != len(warm)+len(cold) {
		t.Fatalf("%d of %d requests failed: %v", o.failed, o.attempted, o.failures)
	}
}

func TestMetricsDeclaredInBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(section string, decls []metricDecl, declared []struct{ Name, Unit string }) {
		want := map[string]string{}
		for _, d := range declared {
			want[d.Name] = d.Unit
		}
		got := map[string]string{}
		for _, d := range decls {
			got[d.Name] = d.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: printed %v, BENCHMARK.json declares %v", section, got, want)
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)

	for _, traced := range []bool{false, true} {
		res := buildResult(traced, newOutcome(traced))
		decls := endToEnd
		if traced {
			decls = perLayer
		}
		if len(res.Metrics) != len(decls) {
			t.Errorf("traced=%v: printed %d metrics, declared %d", traced, len(res.Metrics), len(decls))
		}
	}
}

func TestReportRecordsProvenance(t *testing.T) {
	root := t.TempDir()
	o := newOutcome(true)
	o.setups = []time.Duration{time.Second}
	o.attempted = 1
	id := o.tr.begin("core.compile", 0, 1)
	o.tr.end(id)
	var out bytes.Buffer
	if err := finish(env{root: root, seed: 7, seconds: time.Second, traced: true}, "zoo-compile", o, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted != 1 || len(res.Metrics) != len(perLayer) {
		t.Errorf("result %+v", res)
	}

	data, err := os.ReadFile(filepath.Join(root, ".bench_build", "results", "zoo-compile-seed7-trace1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Meta    map[string]any
		Kinds   map[string]string
		Samples map[string]int
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"host", "nproc", "gomaxprocs", "go_version", "commit", "source"} {
		if _, ok := report.Meta[k]; !ok {
			t.Errorf("report meta lacks %q", k)
		}
	}
	if report.Kinds["sim_cycles_geomean"] != kindCycles || report.Kinds["p50_ms"] != kindCPU {
		t.Errorf("report does not mark simulated cycles apart from host time: %v", report.Kinds)
	}
	if report.Samples["setup"] != 1 || report.Samples["spans.core.compile"] != 1 {
		t.Errorf("sample counts %v", report.Samples)
	}
	if _, err := os.Stat(filepath.Join(root, ".bench_build", "results", "zoo-compile-seed7-trace1.chrome.json")); err != nil {
		t.Errorf("no Chrome trace: %v", err)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.compile", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "sim.run", Start: 30, End: 60}, // overlaps its sibling
		{ID: 4, Parent: 3, Name: "inner", Start: 35, End: 45},
	}}
	self := tr.selfTimes()
	want := map[string][]time.Duration{"request": {50}, "core.compile": {30}, "sim.run": {20}, "inner": {10}}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// TestServeMetrics checks that the serve workloads' metrics come from
// the replies' process CPU times.
func TestServeMetrics(t *testing.T) {
	reqs := []request{{model: "MobileNetV2"}}
	t0 := time.Now()
	var reps []reply
	for i, c := range []time.Duration{3, 1, 2, 4} {
		reps = append(reps, reply{status: 200, ready: t0, done: t0.Add(time.Duration(i+10) * time.Millisecond), cpu: c * time.Millisecond})
	}
	o := newOutcome(false)
	serveMetrics(o, reqs, reps, 20*time.Millisecond, t0, t0.Add(time.Second), 8e6)
	if o.e2e["p50_ms"] != 2.5 || o.e2e["ops_per_s"] != 200 || o.e2e["alloc_mb_per_op"] != 2 {
		t.Errorf("metrics %v", o.e2e)
	}
	if c0 := processCPU(); processCPU() < c0 {
		t.Error("process CPU time went backwards")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median %v", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max %v", got)
	}
	if got := geomean([]float64{1, 4}); got != 2 {
		t.Errorf("geomean %v", got)
	}
}
