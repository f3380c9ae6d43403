package serve

import (
	"fmt"
	"math"
	"sync/atomic"

	"flowpulse/internal/detect"
	"flowpulse/internal/localize"
	"flowpulse/internal/monitor"
	"flowpulse/internal/remediate"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/trace"
)

// bucket is the unit of sharded work: one ordered record stream with
// its own SPSC ring and its own detection state, pinned to one shard
// goroutine by hash. A fan-out session opens one bucket per (job,
// leaf) — the finest split that preserves the ordering the detector's
// baseline and the per-bucket fingerprint need. A sequential session
// opens exactly one bucket for the whole stream and runs the full
// offline Replayer through it, which preserves the global event/action
// order and therefore reproduces the trailer fingerprint bit for bit.
type bucket struct {
	sess *session
	// shard is fixed at construction, before the bucket is published
	// under the session's jobMu, so /metrics scrapes may read it.
	shard *shard
	ring  *ring

	// queued: 1 while the bucket sits in (or is being handed to) the
	// shard's work queue; the producer only enqueues on the 0→1 edge,
	// so a bucket is never queued twice.
	queued atomic.Int32

	// Sequential mode: the whole session replayed in stream order.
	rp *trace.Replayer

	// Fan-out mode: one (job, leaf) substream through its own
	// detect → localize pipeline, fed by recorded prediction snapshots.
	job     uint16
	leafOrd int
	pred    *trace.SnapshotPredictor
	pipe    *monitor.Pipeline
	fp      trace.StreamFP
	win     telemetry.Window // reused per record

	// lastScore is the bucket's most recent detector score bits
	// (math.Float64bits), exported as a deviation gauge.
	lastScore atomic.Uint64

	windows atomic.Int64
	err     error // first processing error; poisons the session
}

// newSeqBucket builds the single whole-session bucket.
func newSeqBucket(s *session) (*bucket, error) {
	rp, err := trace.NewReplayer(s.hdr, s.topo, trace.ReplayOptions{NoHistory: true})
	if err != nil {
		return nil, err
	}
	b := &bucket{sess: s, ring: newRing(s.srv.cfg.RingSize), rp: rp}
	b.shard = s.srv.shards[bucketShard(len(s.srv.shards), s.id, 0, 0)]
	rp.OnEvent = func(e monitor.Event) { s.srv.publishEvent(s, &e) }
	rp.OnAction = func(a remediate.Action) { s.srv.publishAction(s, &a) }
	return b, nil
}

// newFanoutBucket builds one (job, leaf) substream bucket.
func newFanoutBucket(s *session, job uint16, leafOrd int) (*bucket, error) {
	var jh *trace.JobHeader
	for i := range s.hdr.Jobs {
		if s.hdr.Jobs[i].Job == job {
			jh = &s.hdr.Jobs[i]
			break
		}
	}
	if jh == nil && !s.hdr.Shared {
		jh = &s.hdr.Jobs[0]
	}
	if jh == nil {
		return nil, fmt.Errorf("serve: window for job %d not in stream header", job)
	}
	if leafOrd < 0 || leafOrd >= len(s.topo.Leaves()) {
		return nil, fmt.Errorf("serve: window leaf ordinal %d out of range", leafOrd)
	}
	b := &bucket{
		sess: s, ring: newRing(s.srv.cfg.RingSize),
		job: job, leafOrd: leafOrd,
		pred: &trace.SnapshotPredictor{},
		fp:   trace.NewStreamFP(),
	}
	b.shard = s.srv.shards[bucketShard(len(s.srv.shards), s.id, job, leafOrd)]
	det := detect.New(s.topo, b.pred, detect.Config{
		Threshold:         jh.Threshold,
		MinPredicted:      jh.MinPredicted,
		AggregateSymmetry: jh.AggregateSymmetry,
		CEDiscount:        jh.CEDiscount,
	})
	b.pipe = monitor.NewPipeline(monitor.PipelineConfig{
		Pred:      b.pred,
		Detect:    det,
		Localize:  localize.New(s.topo, det.Threshold(), 0),
		NoHistory: true,
		OnEvent: func(e monitor.Event) {
			b.fp.Event(&e)
			s.srv.publishEvent(s, &e)
		},
		OnWindow: func(ws monitor.WindowScore) {
			if ws.Scored {
				b.lastScore.Store(math.Float64bits(ws.Score))
			}
		},
	})
	return b, nil
}

// process consumes one published ring entry on the shard goroutine.
func (b *bucket) process(e *entry) error {
	if b.rp != nil {
		return b.rp.Feed(&e.rec)
	}
	// Fan-out: only window records reach fan-out rings.
	wr := e.rec.Window
	b.pred.Set(wr.Ready, wr.PortPred, wr.SenderPred)
	b.win = telemetry.Window{
		Leaf:         b.sess.topo.Leaves()[wr.LeafOrd],
		LeafOrdinal:  wr.LeafOrd,
		Job:          wr.Job,
		Iter:         wr.Iter,
		PortBytes:    wr.PortBytes,
		SenderBytes:  wr.SenderBytes,
		Packets:      wr.Packets,
		CEBytes:      wr.CEBytes,
		AggPortBytes: wr.AggPortBytes,
		OpenedAt:     wr.OpenedAt,
		ClosedAt:     wr.ClosedAt,
	}
	b.pipe.OnOwnedWindow(&b.win)
	b.windows.Add(1)
	return nil
}

// drain processes every published entry, on the shard goroutine.
func (b *bucket) drain() {
	for {
		e := b.ring.peek()
		if e == nil {
			return
		}
		if b.err == nil {
			if err := b.process(e); err != nil {
				b.err = err
				b.sess.poison(err)
			}
		}
		b.ring.pop()
		if b.sess.pending.Add(-1) == 0 {
			select {
			case b.sess.drained <- struct{}{}:
			default:
			}
		}
	}
}
