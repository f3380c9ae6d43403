package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// metrics are the service counters, all lock-free atomics so the hot
// path never serializes on observability.
type metrics struct {
	windowsTotal   atomic.Int64
	recordsTotal   atomic.Int64
	bytesTotal     atomic.Int64
	alertsTotal    atomic.Int64
	actionsTotal   atomic.Int64
	sessionsActive atomic.Int64
	sessionsTotal  atomic.Int64
	authFailures   atomic.Int64
}

// writeMetrics renders the Prometheus text exposition: totals, a
// windows/sec rate, per-shard queue depth, and per-(session, job)
// deviation gauges from the fan-out buckets.
func (s *Server) writeMetrics(w io.Writer) {
	now := time.Now()
	s.rateMu.Lock()
	wins := s.met.windowsTotal.Load()
	rate := 0.0
	if !s.rateAt.IsZero() {
		if dt := now.Sub(s.rateAt).Seconds(); dt > 0 {
			rate = float64(wins-s.rateWins) / dt
		}
	}
	s.rateAt, s.rateWins = now, wins
	s.rateMu.Unlock()

	fmt.Fprintf(w, "# TYPE flowpulse_windows_total counter\nflowpulse_windows_total %d\n", wins)
	fmt.Fprintf(w, "# TYPE flowpulse_records_total counter\nflowpulse_records_total %d\n", s.met.recordsTotal.Load())
	fmt.Fprintf(w, "# TYPE flowpulse_ingest_bytes_total counter\nflowpulse_ingest_bytes_total %d\n", s.met.bytesTotal.Load())
	fmt.Fprintf(w, "# TYPE flowpulse_alerts_total counter\nflowpulse_alerts_total %d\n", s.met.alertsTotal.Load())
	fmt.Fprintf(w, "# TYPE flowpulse_actions_total counter\nflowpulse_actions_total %d\n", s.met.actionsTotal.Load())
	fmt.Fprintf(w, "# TYPE flowpulse_sessions_active gauge\nflowpulse_sessions_active %d\n", s.met.sessionsActive.Load())
	fmt.Fprintf(w, "# TYPE flowpulse_sessions_total counter\nflowpulse_sessions_total %d\n", s.met.sessionsTotal.Load())
	fmt.Fprintf(w, "# TYPE flowpulse_auth_failures_total counter\nflowpulse_auth_failures_total %d\n", s.met.authFailures.Load())
	fmt.Fprintf(w, "# TYPE flowpulse_windows_per_second gauge\nflowpulse_windows_per_second %g\n", rate)

	// Shard depth and deviation gauges walk the live session/bucket
	// registry; scrapes are rare, so the locks here are off the hot
	// path.
	depth := make([]int, len(s.shards))
	type devKey struct {
		label string
		job   uint16
	}
	devs := map[devKey]float64{}
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		for _, b := range sess.allBuckets() {
			depth[b.shard.id] += b.ring.depth()
			if b.pipe != nil {
				d := math.Float64frombits(b.lastScore.Load())
				k := devKey{sess.label, b.job}
				if d > devs[k] {
					devs[k] = d
				}
			}
		}
	}
	fmt.Fprintf(w, "# TYPE flowpulse_shard_depth gauge\n")
	for i, d := range depth {
		fmt.Fprintf(w, "flowpulse_shard_depth{shard=\"%d\"} %d\n", i, d)
	}
	keys := make([]devKey, 0, len(devs))
	for k := range devs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].label != keys[j].label {
			return keys[i].label < keys[j].label
		}
		return keys[i].job < keys[j].job
	})
	fmt.Fprintf(w, "# TYPE flowpulse_deviation gauge\n")
	for _, k := range keys {
		fmt.Fprintf(w, "flowpulse_deviation{session=%q,job=\"%d\"} %g\n", k.label, k.job, devs[k])
	}
}
