// Command perfbench is FlowPulse's benchmark: one command that runs a
// named workload with a given seed, checks the outputs, and prints every
// metric by name and unit.
//
//	perfbench --workload ring-detect --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off.
// With --trace 1 it runs the workload twice, untraced then with spans
// around every call the benchmark makes into a layer, re-drives the
// run's own recorded windows and scenario through each module's public
// API off-line, and prints the per-layer metrics. The last line of
// standard output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The line before it is a JSON report carrying the environment block,
// the exact counts, the workload-specific metrics, the span summary and
// (traced runs) the tracing overhead. Any failed correctness check
// counts against "failed" and makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Seeds named for claims: DefaultSeed is the one changes are developed
// against, HeldOutSeed the one a claimed gain must also hold on.
const (
	DefaultSeed = 1
	HeldOutSeed = 9001
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output: exactly these four keys, with the
// end-to-end metrics (untraced) or the per-layer ones (traced).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's state: options, accumulated metrics, the
// correctness ledger and the span recorder.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool

	attempted, failed int64
	failMu            sync.Mutex // producers report failures concurrently
	failures          []string

	e2e   map[string]metric // end-to-end metrics (printed with --trace 0)
	layer map[string]metric // per-layer metrics (printed with --trace 1)
	extra map[string]metric // workload-specific metrics, report line only
	exact map[string]any    // exact counts, identical run to run for a seed
	// overhead holds, for a traced invocation, each end-to-end metric
	// from the untraced and the traced half.
	overhead map[string][2]float64

	tr *tracer
}

func newBench(workload string, seed uint64, seconds float64, traced bool) *bench {
	return &bench{
		workload: workload, seed: seed, seconds: seconds, traced: traced,
		e2e: map[string]metric{}, layer: map[string]metric{}, extra: map[string]metric{},
		exact: map[string]any{}, overhead: map[string][2]float64{},
		tr: newTracer(),
	}
}

// fail records one failed correctness check.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.failMu.Lock()
	b.failures = append(b.failures, msg)
	b.failMu.Unlock()
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

// exactly records an exact count and fails if an earlier measurement of
// the same count in this invocation disagrees (a repeated run of one
// seed, or the traced run against the untraced one).
func (b *bench) exactly(name string, v any) {
	if prev, ok := b.exact[name]; ok {
		if fmt.Sprint(prev) != fmt.Sprint(v) {
			b.fail("exact count %s differs between runs of seed %d: %v vs %v", name, b.seed, prev, v)
		}
		return
	}
	b.exact[name] = v
}

// near is exactly for a count that is only nearly deterministic: later
// measurements must stay within a relative tolerance of the first.
func (b *bench) near(name string, v, tol float64) {
	prev, ok := b.exact[name].(float64)
	if !ok {
		b.exact[name] = v
		return
	}
	if d := v - prev; d > tol*prev || -d > tol*prev {
		b.fail("count %s moved by more than %.1f%% between runs of seed %d: %v vs %v", name, 100*tol, b.seed, prev, v)
	}
}

type workload struct {
	name string
	run  func(b *bench)
}

var workloads = []workload{
	{"ring-detect", runRingDetect},
	{"replan-loop", runReplanLoop},
	{"serve-fanin", runServeFanin},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: ring-detect, replan-loop or serve-fanin")
		seed    = flag.Uint64("seed", DefaultSeed, fmt.Sprintf("workload seed (held-out seed for confirming claims: %d)", HeldOutSeed))
		seconds = flag.Float64("seconds", 30, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: traced run with per-layer metrics")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload ring-detect|replan-loop|serve-fanin, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	b := newBench(wl.name, *seed, *seconds, *trace == 1)
	wl.run(b)
	if b.attempted < 1 {
		b.fail("no operation attempted")
		b.attempted = 1
	}
	if len(b.failures) > 0 && b.failed == 0 {
		b.failed = 1
	}
	b.print()
	if len(b.failures) > 0 {
		os.Exit(1)
	}
}

// print writes the human-readable metric lines, the report line, the
// span file (traced runs), and the result line last.
func (b *bench) print() {
	shown := b.e2e
	if b.traced {
		shown = b.layer
	}
	for _, set := range []map[string]metric{shown, b.extra} {
		for _, k := range sortedKeys(set) {
			fmt.Printf("%-28s %16.6g %s\n", k, set[k].Value, set[k].Unit)
		}
	}
	report := map[string]any{
		"workload": b.workload,
		"seed":     b.seed,
		"traced":   b.traced,
		"env":      envBlock(),
		"exact":    b.exact,
		"extra":    b.extra,
		"failures": b.failures,
		"e2e":      b.e2e,
	}
	if b.traced {
		oh := map[string]map[string]float64{}
		for k, v := range b.overhead {
			d := map[string]float64{"untraced": v[0], "traced": v[1], "delta": v[1] - v[0]}
			if v[0] != 0 {
				d["delta_frac"] = (v[1] - v[0]) / v[0]
			}
			oh[k] = d
		}
		report["trace_overhead"] = oh
		report["spans"] = b.tr.summary()
		if path, err := b.tr.write(b.workload, b.seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			report["span_file"] = path
		}
	}
	line, _ := json.Marshal(map[string]any{"report": report})
	fmt.Println(string(line))
	res := result{Correct: len(b.failures) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: shown}
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
}

// envBlock stamps the machine and settings every result was taken on.
func envBlock() map[string]any {
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"cpu":            cpuModel(),
		"engine_workers": engineWorkers,
		"serve_shards":   serveShards,
		"producers":      producers,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanDir is where traced runs write their spans, inside the checkout.
var spanDir = filepath.Join(".bench_build", "spans")
