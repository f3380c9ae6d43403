package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Start and End
// are nanoseconds since the benchmark started; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark exits. While it is
// off every method returns at once, so untraced runs pay one branch.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start turns tracing on. The span store is sized up front for the
// spans the workload expects, so that recording a span inside a
// measured region does not allocate, which keeps allocation counts
// identical between traced and untraced runs, and the store adds no
// more to the live heap than the workload needs.
func (t *tracer) start(expect int) {
	t.mu.Lock()
	if cap(t.spans) == 0 {
		t.spans = make([]span, 0, expect)
	}
	t.on = true
	t.mu.Unlock()
}

// begin opens a span and returns its id (0 while tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if !t.on || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were taken by the caller.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans)
}

// spanStat aggregates the spans of one name: count, total duration, and
// self time (duration minus the time covered by child spans).
type spanStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summary() map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Children may overlap (a session's alert receipts overlap its
	// writes and each other), so self time subtracts the union of the
	// children's intervals.
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent > 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	child := make([]int64, len(t.spans)+1)
	for p, iv := range kids {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		cur := iv[0]
		for _, x := range iv[1:] {
			if x[0] > cur[1] {
				child[p] += cur[1] - cur[0]
				cur = x
			} else if x[1] > cur[1] {
				cur[1] = x[1]
			}
		}
		child[p] += cur[1] - cur[0]
	}
	out := map[string]*spanStat{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(d-child[s.ID]) / 1e6
	}
	return out
}

// write saves every span as JSON under the checkout's build directory.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
