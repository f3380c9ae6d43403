package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowpulse/internal/trace"
	"flowpulse/internal/topology"
)

// Stream modes. Sequential preserves the recording's global order
// through one bucket — the whole detect → localize → remediate stack
// replays and the alert/action fingerprint is bit-identical to offline
// replay (and to the trailer). Fanout splits the stream into (job,
// leaf) buckets across shards for parallelism; per-bucket fingerprints
// XOR into the order-insensitive combined sum offline replay exposes
// as BucketFingerprint. Remediated recordings force sequential: a
// fan-out stream cannot replay the probe loop's global order.
const (
	ModeSeq    = "seq"
	ModeFanout = "fanout"
)

// SessionStatus is the JSON status a producer receives when its
// stream ends.
type SessionStatus struct {
	Session string `json:"session"`
	Mode    string `json:"mode"`
	Windows int64  `json:"windows"`
	Events  int64  `json:"events"`
	Actions int64  `json:"actions"`
	// Fingerprint is the service-side alert/action stream fingerprint:
	// the global FNV-64a sum in sequential mode, the XOR-combined
	// per-bucket sum in fanout mode.
	Fingerprint uint64 `json:"fingerprint"`
	// TrailerFingerprint echoes the recording's own trailer (0 if the
	// stream ended without one); Parity reports the comparison:
	// "exact" (sequential, matched), "mismatch" (sequential, diverged),
	// "bucket" (fanout: compare against offline replay's
	// BucketFingerprint), or "none" (no trailer streamed).
	TrailerFingerprint uint64 `json:"trailer_fingerprint"`
	Parity             string `json:"parity"`
	Error              string `json:"error,omitempty"`
}

// session is one producer's stream through the service.
type session struct {
	srv   *Server
	id    uint64
	label string
	mode  string

	src   io.Reader
	conn  net.Conn // nil for HTTP/in-process streams
	rd    *trace.Reader
	hdr   *trace.Header
	topo  *topology.Topology
	jobMu sync.Mutex // guards buckets map against /metrics scrapes

	seq     *bucket
	buckets map[uint64]*bucket // fanout: (job, leafOrd) key
	trailer *trace.Trailer     // fanout: noted for the status line
	windows atomic.Int64
	events  atomic.Int64
	actions atomic.Int64

	errMu sync.Mutex
	err   error
}

func bucketKey(job uint16, leafOrd int) uint64 {
	return uint64(job)<<32 | uint64(uint32(leafOrd))
}

// poison records the first fatal processing error (shard side or
// session side); the read loop notices and aborts the stream.
func (s *session) poison(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

func (s *session) poisoned() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// abort cuts the producer's connection (drain deadline).
func (s *session) abort() {
	if s.conn != nil {
		s.conn.Close()
	}
}

// IngestStream runs one producer stream to completion: decode frames
// from src, shard the records, wait for the shards to finish, and
// return the session's status. mode is ModeSeq or ModeFanout (""
// defaults to ModeSeq); label names the session in alerts and logs.
// It blocks until the stream ends — callers own the goroutine.
func (s *Server) IngestStream(src io.Reader, mode, label string) (*SessionStatus, error) {
	if mode == "" {
		mode = ModeSeq
	}
	if mode != ModeSeq && mode != ModeFanout {
		return nil, fmt.Errorf("serve: unknown mode %q", mode)
	}
	sess := &session{
		srv:     s,
		id:      s.nextSession.Add(1),
		label:   label,
		mode:    mode,
		src:     src,
		buckets: map[uint64]*bucket{},
	}
	if sess.label == "" {
		sess.label = fmt.Sprintf("session-%d", sess.id)
	}
	if err := s.register(sess); err != nil {
		return nil, err
	}
	defer s.unregister(sess)
	return sess.run()
}

// run is the session read loop: the producer's goroutine decodes
// frames and publishes records onto bucket rings; shards do the rest.
func (s *session) run() (*SessionStatus, error) {
	s.rd = trace.NewFollowReader(&countingReader{r: s.src, n: &s.srv.met.bytesTotal})

	var reserved *entry
	var dst *bucket
	slot := func(job uint16, leafOrd int) *trace.WindowRecord {
		b, err := s.bucketFor(job, leafOrd)
		if err != nil {
			s.poison(err)
			return nil // decode into a throwaway record; loop aborts next
		}
		dst = b
		reserved = b.ring.reserve()
		return &reserved.win
	}

	var streamErr error
	for {
		if err := s.poisoned(); err != nil {
			streamErr = err
			break
		}
		dst, reserved = nil, nil
		rec, err := s.rd.NextInto(slot)
		if err == io.EOF {
			break
		}
		if err == trace.ErrAwaitMore {
			// The source ended mid-frame: a producer died. Everything
			// decoded so far stands; report the tear.
			streamErr = fmt.Errorf("serve: stream ended mid-frame (%d bytes torn)", s.rd.Buffered())
			break
		}
		if err != nil {
			streamErr = err
			break
		}
		if s.hdr == nil {
			s.adoptHeader()
		}
		switch {
		case rec.Kind == trace.KindWindow && dst != nil:
			// The window decoded straight into the reserved ring slot.
			reserved.rec = rec
			dst.ring.push()
			dst.shard.enqueue(dst)
			s.windows.Add(1)
			s.srv.met.windowsTotal.Add(1)
		case rec.Kind == trace.KindWindow:
			// Slot refused (poisoned while routing): drop and abort.
		case s.mode == ModeSeq:
			// Everything else flows through the sequential bucket in
			// stream order. Non-window payloads are freshly allocated by
			// the decoder, so publishing the Record copy is safe.
			b, err := s.bucketFor(0, 0)
			if err != nil {
				streamErr = err
				break
			}
			e := b.ring.reserve()
			e.rec = rec
			b.ring.push()
			b.shard.enqueue(b)
		case rec.Kind == trace.KindTrailer:
			s.trailer = rec.Trailer
		}
		if streamErr != nil {
			break
		}
		s.srv.met.recordsTotal.Add(1)
	}

	s.quiesce()
	st := s.status(streamErr)
	if streamErr == nil {
		if err := s.poisoned(); err != nil {
			streamErr = err
			st.Error = err.Error()
		}
	}
	s.srv.cfg.Logf("serve: %s done: mode=%s windows=%d events=%d actions=%d fp=%016x parity=%s err=%q",
		s.label, st.Mode, st.Windows, st.Events, st.Actions, st.Fingerprint, st.Parity, st.Error)
	return st, streamErr
}

// adoptHeader runs once the follow reader has decoded the stream
// header: resolve topology and the effective mode. Remediated
// recordings force sequential (see mode docs). The first window's slot
// callback fires mid-decode — before the read loop sees the record —
// so bucketFor adopts eagerly; the reader guarantees the header is
// decoded before any record.
func (s *session) adoptHeader() {
	s.hdr = s.rd.Header()
	s.topo = s.rd.Topo()
	if s.hdr.Remediate != nil && s.mode == ModeFanout {
		s.srv.cfg.Logf("serve: %s: remediated recording, forcing sequential mode", s.label)
		s.mode = ModeSeq
	}
}

// bucketFor resolves (and lazily opens) the bucket owning one record
// stream: the single sequential bucket, or the (job, leaf) fan-out
// bucket.
func (s *session) bucketFor(job uint16, leafOrd int) (*bucket, error) {
	if s.hdr == nil {
		s.adoptHeader()
	}
	if s.mode == ModeSeq {
		if s.seq == nil {
			b, err := newSeqBucket(s)
			if err != nil {
				return nil, err
			}
			s.jobMu.Lock()
			s.seq = b
			s.jobMu.Unlock()
		}
		return s.seq, nil
	}
	k := bucketKey(job, leafOrd)
	if b := s.buckets[k]; b != nil {
		return b, nil
	}
	b, err := newFanoutBucket(s, job, leafOrd)
	if err != nil {
		return nil, err
	}
	s.jobMu.Lock()
	s.buckets[k] = b
	s.jobMu.Unlock()
	return b, nil
}

// quiesce waits until every record this session published has been
// consumed by its shard. Producers have stopped, so depth only falls;
// the atomic head/tail reads give the happens-before edge that makes
// the shard-side state (fingerprints, counters) safe to read after.
func (s *session) quiesce() {
	for {
		busy := false
		for _, b := range s.allBuckets() {
			if b.ring.depth() > 0 || b.queued.Load() != 0 {
				busy = true
				break
			}
		}
		if !busy {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (s *session) allBuckets() []*bucket {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	out := make([]*bucket, 0, len(s.buckets)+1)
	if s.seq != nil {
		out = append(out, s.seq)
	}
	for _, b := range s.buckets {
		out = append(out, b)
	}
	return out
}

// status seals the session outcome after quiesce.
func (s *session) status(streamErr error) *SessionStatus {
	st := &SessionStatus{
		Session: s.label,
		Mode:    s.mode,
		Events:  s.events.Load(),
		Actions: s.actions.Load(),
	}
	if streamErr != nil {
		st.Error = streamErr.Error()
	}
	switch {
	case s.seq != nil:
		st.Windows = int64(s.seq.rp.Result().Windows)
		st.Fingerprint = s.seq.rp.Fingerprint()
		if tr := s.seq.rp.Trailer(); tr != nil {
			st.TrailerFingerprint = tr.Fingerprint
			if st.Fingerprint == tr.Fingerprint {
				st.Parity = "exact"
			} else {
				st.Parity = "mismatch"
			}
		} else {
			st.Parity = "none"
		}
	default:
		for _, b := range s.allBuckets() {
			st.Windows += b.windows.Load()
			if b.fp.Count() > 0 {
				st.Fingerprint ^= b.fp.Sum()
			}
		}
		st.Parity = "bucket"
		if s.trailer != nil {
			st.TrailerFingerprint = s.trailer.Fingerprint
		}
	}
	return st
}

// handleConn speaks the TCP producer protocol: one preamble line
//
//	FPS1 token=<tok> mode=<seq|fanout> label=<name>\n
//
// then raw .fpt bytes until the producer half-closes; the server
// replies with one JSON SessionStatus line and closes.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 4096)
	line, err := br.ReadString('\n')
	if err != nil {
		return
	}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 || fields[0] != "FPS1" {
		fmt.Fprintf(conn, `{"error":"bad preamble (want FPS1)"}`+"\n")
		return
	}
	var token, mode, label string
	for _, f := range fields[1:] {
		k, v, _ := strings.Cut(f, "=")
		switch k {
		case "token":
			token = v
		case "mode":
			mode = v
		case "label":
			label = v
		}
	}
	if s.cfg.Token != "" && token != s.cfg.Token {
		s.met.authFailures.Add(1)
		fmt.Fprintf(conn, `{"error":"bad token"}`+"\n")
		return
	}
	st, err := func() (*SessionStatus, error) {
		sess := &session{
			srv:     s,
			id:      s.nextSession.Add(1),
			label:   label,
			mode:    mode,
			src:     br,
			conn:    conn,
			buckets: map[uint64]*bucket{},
		}
		if sess.mode == "" {
			sess.mode = ModeSeq
		}
		if sess.mode != ModeSeq && sess.mode != ModeFanout {
			return nil, fmt.Errorf("serve: unknown mode %q", sess.mode)
		}
		if sess.label == "" {
			sess.label = fmt.Sprintf("%s-%d", conn.RemoteAddr(), sess.id)
		}
		if err := s.register(sess); err != nil {
			return nil, err
		}
		defer s.unregister(sess)
		return sess.run()
	}()
	if err != nil && st == nil {
		fmt.Fprintf(conn, `{"error":%q}`+"\n", err.Error())
		return
	}
	json.NewEncoder(conn).Encode(st)
}

// countingReader tracks ingested byte volume for /metrics.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n.Add(int64(k))
	return k, err
}
