// Command perfbench is the repository benchmark: three seeded workloads
// driven against the public entry points of the compiler, simulator,
// recovery and serving layers, timed from outside the program.
//
//	zoo-compile  cold compile of the 10-model zoo, Base and +Stratum, 3 cores
//	serve-warm   POST /run over a warmed compile cache, one client
//	serve-cold   POST /run of fresh custom graphs and faulted, recovering runs
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. A full report (host,
// Go version, commit, sample counts, metric kinds, per-DNN-layer tables)
// and, when traced, a Chrome trace of the benchmark's spans are written
// under .bench_build/results/. The process exits 1 when any output
// check fails.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is one invocation's settings.
type env struct {
	root    string
	seed    uint64
	seconds time.Duration
	traced  bool
}

// untracedSeconds is the length of the untraced measurement. A traced
// run spends half of --seconds on it and half on the traced phase,
// which it compares against it.
func (e env) untracedSeconds() time.Duration {
	if e.traced {
		return e.seconds / 2
	}
	return e.seconds
}

// outcome is what a workload measured.
type outcome struct {
	attempted int
	failed    int
	failures  []string        // first check failures, for the report
	setups    []time.Duration // process CPU time of each set-up
	e2e       map[string]float64
	layer     map[string]float64
	samples   map[string]int
	tables    any
	detail    map[string]any // workload-specific breakdowns for the report
	tr        *tracer
}

func newOutcome(traced bool) *outcome {
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}, detail: map[string]any{}}
	if traced {
		o.tr = newTracer()
	}
	return o
}

// fail counts one failed operation and keeps its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(env) (*outcome, error){
	"zoo-compile": runZoo,
	"serve-warm":  runWarm,
	"serve-cold":  runCold,
}

// Set-up repetition bounds (see repeatSetup).
const (
	minSetups    = 3
	maxSetups    = 200
	minSetupTime = time.Second
	maxSetupWall = 30 * time.Second
)

func main() {
	workload := flag.String("workload", "", "workload: zoo-compile, serve-warm, serve-cold")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (zoo-compile, serve-warm, serve-cold)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	e := env{root: *root, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *traceFlag == 1}
	s0 := readCPUTicks()
	out, err := run(e)
	if out != nil {
		out.detail["cpu_steal_share"] = readCPUTicks().stealShareSince(s0)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := finish(e, *workload, out, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if out.failed > 0 {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the declared metrics for the run's mode.
func buildResult(traced bool, o *outcome) result {
	decls, vals := endToEnd, o.e2e
	if traced {
		decls, vals = perLayer, o.layer
	}
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		r.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return r
}

// finish writes the report and trace files and prints the summary and
// the result line.
func finish(e env, workload string, o *outcome, stdout io.Writer) error {
	var setups []float64
	for _, d := range o.setups {
		setups = append(setups, d.Seconds())
	}
	o.e2e["setup_s"] = median(setups)
	o.samples["setup"] = len(o.setups)
	for name, ds := range o.tr.selfTimes() {
		o.samples["spans."+name] = len(ds)
	}
	res := buildResult(e.traced, o)

	kinds := map[string]string{}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		kinds[d.Name] = d.Kind
	}
	report := map[string]any{
		"workload": workload,
		"seed":     e.seed,
		"seconds":  e.seconds.Seconds(),
		"traced":   e.traced,
		"meta":     hostMeta(e.root),
		"kinds":    kinds,
		"samples":  o.samples,
		"result":   res,
		"failures": o.failures,
		"detail":   o.detail,
	}
	if e.traced {
		report["end_to_end_in_traced_run"] = o.e2e
		report["tables"] = o.tables
	}
	dir := filepath.Join(e.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", workload, e.seed, b2i(e.traced)))
	if err := writeJSON(base+".json", report); err != nil {
		return err
	}
	if o.tr != nil {
		f, err := os.Create(base + ".chrome.json")
		if err != nil {
			return err
		}
		werr := o.tr.writeChrome(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("write trace: %w", werr)
		}
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g traced=%v attempted=%d failed=%d report=%s.json\n",
		workload, e.seed, e.seconds.Seconds(), e.traced, o.attempted, o.failed, base)
	for _, f := range o.failures {
		fmt.Fprintf(stdout, "  FAILED: %s\n", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "  %-24s %16.6f %-8s (%s)\n", n, m.Value, m.Unit, kinds[n])
	}
	if e.traced {
		printTables(stdout, o.tables)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// hostMeta records where and on what the numbers were measured.
func hostMeta(root string) map[string]any {
	host, _ := os.Hostname() // diagnostic only
	return map[string]any{
		"host":       host,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(root),
		"source":     sourceHash(root),
	}
}

// commit is the checkout's git revision, or "unknown" outside a git
// work tree (the benchmark also runs from exported source trees).
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash fingerprints the Go sources under root, so a report names
// the code it measured even without git.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path is under root
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
