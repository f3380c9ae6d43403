// Command compare sets two sets of benchmark results side by side, with
// the standard library only. Each input file holds the saved standard
// output of one or more perfbench runs; a run is its report line
// followed by its result line. Build and run it from the repository
// root with
//
//	bash perfbench/compare.sh base.out head.out
//
// For every workload and metric it prints each side's median and
// quartiles (Python's statistics.quantiles, exclusive method), the
// baseline's own spread (interquartile range over median), and the share
// of paired runs the head won, pairing runs by seed where both sides ran
// the same seeds and by order otherwise; ties count for neither side.
// A difference is flagged only when the medians differ by more than the
// baseline's spread. A metric whose baseline spread is wider than its
// bound in BENCHMARK.json is marked unresolved, never unchanged. A gain
// is claimed only when the head also wins at least nine tenths of the
// pairs, and a metric that got worse by more than its bound is a
// regression.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"flowpulse/perfbench/stats"
)

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark invocation: its workload, seed and every metric
// it printed (result line and the report's workload-specific metrics).
type run struct {
	workload string
	seed     uint64
	metrics  map[string]float64
}

// higherIsBetter names the report-only metrics whose better direction
// is up; every other report-only metric is better lower.
var higherIsBetter = map[string]bool{
	"sim_events_per_s": true, "post_goodput_frac": true, "fault_recall": true,
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark definition with metric directions and bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] base.out head.out")
		os.Exit(2)
	}
	defs := map[string]metricDef{}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fail(err)
	}
	var bd benchDef
	if err := json.Unmarshal(data, &bd); err != nil {
		fail(err)
	}
	for _, m := range append(bd.EndToEnd, bd.PerLayer...) {
		defs[m.Name] = m
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	head, err := load(flag.Arg(1))
	if err != nil {
		fail(err)
	}
	compare(os.Stdout, defs, base, head)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(1)
}

// load reads every (report, result) pair of lines in a file.
func load(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []run
	var cur *run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rep struct {
			Report *struct {
				Workload string           `json:"workload"`
				Seed     uint64           `json:"seed"`
				Extra    map[string]value `json:"extra"`
			} `json:"report"`
			Correct *bool            `json:"correct"`
			Metrics map[string]value `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			continue
		}
		switch {
		case rep.Report != nil:
			cur = &run{workload: rep.Report.Workload, seed: rep.Report.Seed, metrics: map[string]float64{}}
			for k, v := range rep.Report.Extra {
				cur.metrics[k] = v.Value
			}
		case rep.Correct != nil && cur != nil:
			if *rep.Correct {
				for k, v := range rep.Metrics {
					cur.metrics[k] = v.Value
				}
				out = append(out, *cur)
			}
			cur = nil
		}
	}
	return out, sc.Err()
}

func compare(w *os.File, defs map[string]metricDef, base, head []run) {
	byWorkload := func(rs []run) map[string][]run {
		m := map[string][]run{}
		for _, r := range rs {
			m[r.workload] = append(m[r.workload], r)
		}
		return m
	}
	bw, hw := byWorkload(base), byWorkload(head)
	var names []string
	for wl := range bw {
		if _, ok := hw[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		b, h := bw[wl], hw[wl]
		pairs := pair(b, h)
		fmt.Fprintf(w, "workload %s: %d base runs, %d head runs, %d pairs\n", wl, len(b), len(h), len(pairs))
		fmt.Fprintf(w, "  %-28s %12s %25s %12s %25s %7s %6s  %s\n",
			"metric", "base median", "base q1..q3", "head median", "head q1..q3", "spread", "won", "verdict")
		metrics := map[string]bool{}
		for _, r := range b {
			for k := range r.metrics {
				metrics[k] = true
			}
		}
		var keys []string
		for k := range metrics {
			if !strings.Contains(k, "samples") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			bv, hv := column(b, k), column(h, k)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			def, known := defs[k]
			higher := higherIsBetter[k]
			if known {
				higher = def.Better == "higher"
			}
			b1, bm, b3 := quartiles(bv)
			h1, hm, h3 := quartiles(hv)
			spread := 0.0
			if bm != 0 {
				spread = (b3 - b1) / math.Abs(bm)
			}
			won, n := 0, 0
			for _, p := range pairs {
				x, okx := p[0].metrics[k]
				y, oky := p[1].metrics[k]
				if !okx || !oky {
					continue
				}
				n++
				if (higher && y > x) || (!higher && y < x) {
					won++
				}
			}
			share := 0.0
			if n > 0 {
				share = float64(won) / float64(n)
			}
			fmt.Fprintf(w, "  %-28s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %6.1f%% %5.0f%%  %s\n",
				k, bm, b1, b3, hm, h1, h3, 100*spread, 100*share, verdict(def, known, higher, bm, hm, b3-b1, spread, share))
		}
	}
}

// verdict applies the rules in the package comment.
func verdict(def metricDef, known, higher bool, bm, hm, iqr, spread, share float64) string {
	diff := hm - bm
	if math.Abs(diff) <= iqr {
		if known && def.Bound != nil && spread > *def.Bound {
			return "unresolved (spread wider than bound)"
		}
		return "unchanged"
	}
	better := (higher && diff > 0) || (!higher && diff < 0)
	rel := math.Inf(1)
	if bm != 0 {
		rel = math.Abs(diff / bm)
	}
	if better {
		if share >= 0.9 {
			return fmt.Sprintf("better by %.1f%%", 100*rel)
		}
		return fmt.Sprintf("better by %.1f%%, not claimable (won %.0f%% of pairs)", 100*rel, 100*share)
	}
	if known && def.Bound != nil {
		if spread > *def.Bound {
			return fmt.Sprintf("worse by %.1f%%, unresolved (spread wider than bound)", 100*rel)
		}
		if rel > *def.Bound {
			return fmt.Sprintf("REGRESSION: worse by %.1f%% (bound %.0f%%)", 100*rel, 100**def.Bound)
		}
		return fmt.Sprintf("worse by %.1f%%, within bound", 100*rel)
	}
	return fmt.Sprintf("worse by %.1f%%", 100*rel)
}

// pair matches base and head runs by seed when both sides ran the same
// set of seeds, and by position otherwise.
func pair(b, h []run) [][2]run {
	seeds := map[uint64]run{}
	for _, r := range h {
		seeds[r.seed] = r
	}
	var out [][2]run
	for _, r := range b {
		if x, ok := seeds[r.seed]; ok {
			out = append(out, [2]run{r, x})
		}
	}
	if len(out) == len(b) && len(out) == len(h) {
		return out
	}
	out = out[:0]
	for i := 0; i < len(b) && i < len(h); i++ {
		out = append(out, [2]run{b[i], h[i]})
	}
	return out
}

func quartiles(xs []float64) (q1, q2, q3 float64) {
	return stats.Quantile(xs, 1, 4), stats.Quantile(xs, 2, 4), stats.Quantile(xs, 3, 4)
}

func column(rs []run, k string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.metrics[k]; ok {
			out = append(out, v)
		}
	}
	return out
}
