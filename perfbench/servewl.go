package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowpulse/internal/remediate"
	"flowpulse/internal/serve"
	"flowpulse/internal/sim"
	"flowpulse/internal/trace"
	"flowpulse/perfbench/stats"
)

// serveShards is the service's shard count; producers is the number of
// loopback TCP producers, each closed-loop: it dials its next session
// once the previous one has returned its status line.
const (
	serveShards = 2
	producers   = 2
	// serveSetups is how many times serve-fanin records its inputs; the
	// reported set-up time is the median.
	serveSetups = 2
	// The producers run in rounds of serveRound. Between rounds, with the
	// service idle, the benchmark times calPasses calibration passes, and
	// the round's sessions and windows are scaled by their median.
	serveRound = time.Second
	calPasses  = 3
)

// serveSpans sizes the span store of a traced serve half: a few
// thousand sessions of a few dozen spans each (dial, write, close and
// one per alert received).
const serveSpans = 1 << 17

// noWindow marks a frame that carries no window record.
const noWindow = ^uint64(0)

func winKey(leaf int, iter uint32) uint64 { return uint64(uint32(leaf))<<32 | uint64(iter) }

// recording is one scenario's .fpt recording split into the records a
// live producer writes one at a time.
type recording struct {
	run      *simRun
	frames   [][]byte // frames[0] holds the magic and the header record
	key      []uint64 // per frame: the window's (leaf, iter), or noWindow
	alerting map[uint64]bool
	windows  int64
	events   int64
	records  []*trace.Record // every record after the header, decoded
}

// recording returns the run's recording split and decoded, preparing it
// on first use (nil after a failure).
func (r *simRun) recording(b *bench) *recording {
	if r.decoded == nil {
		r.decoded = newRecording(b, r)
	}
	return r.decoded
}

// newRecording splits a recording into frames (uvarint length, payload,
// CRC32C) and decodes it to learn which window records raised alerts.
func newRecording(b *bench, r *simRun) *recording {
	rec := &recording{run: r, alerting: map[uint64]bool{}}
	data := r.rec
	off := len(trace.Magic)
	for off < len(data) {
		n, w := binary.Uvarint(data[off:])
		if w <= 0 {
			b.fail("%s: corrupt frame length at byte %d", r.spec.name, off)
			return nil
		}
		end := off + w + int(n) + 4
		start := off
		if len(rec.frames) == 0 {
			start = 0
		}
		rec.frames = append(rec.frames, data[start:end])
		rec.key = append(rec.key, noWindow)
		off = end
	}
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		b.fail("%s: decode: %v", r.spec.name, err)
		return nil
	}
	for i := 1; i < len(rec.frames); i++ {
		x, err := rd.Next()
		if err != nil {
			b.fail("%s: decode record %d: %v", r.spec.name, i, err)
			return nil
		}
		rec.records = append(rec.records, x)
		switch x.Kind {
		case trace.KindWindow:
			rec.key[i] = winKey(x.Window.LeafOrd, x.Window.Iter)
			rec.windows++
		case trace.KindEvent:
			rec.alerting[winKey(x.Event.Alert.LeafOrdinal, x.Event.Alert.Iter)] = true
			rec.events++
		}
	}
	return rec
}

// sessState is one session's alert bookkeeping.
type sessState struct {
	span    int
	written map[uint64]time.Time
	alerts  []alertKey
	matched map[uint64]bool
}

// serveRig is an in-process serve.Server fed by loopback producers, with
// alerts delivered in-process through a log rule sink.
type serveRig struct {
	b    *bench
	srv  *serve.Server
	addr string
	done chan struct{}

	next atomic.Int64 // session label counter

	mu       sync.Mutex
	sessions map[string]*sessState
	alertMS  []float64
	received int64
}

func newServeRig(b *bench) (*serveRig, error) {
	rig := &serveRig{b: b, sessions: map[string]*sessState{}, done: make(chan struct{})}
	srv, err := serve.New(serve.Config{
		Shards: serveShards,
		Rules:  []serve.Rule{{Name: "bench", Sink: "log"}},
		Logf:   rig.onLog,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(time.Second)
		return nil, err
	}
	rig.srv, rig.addr = srv, ln.Addr().String()
	go func() {
		srv.ServeTCP(ln)
		close(rig.done)
	}()
	return rig, nil
}

// close drains the server and waits for its accept loop to end.
func (rig *serveRig) close() {
	if !rig.srv.Drain(10 * time.Second) {
		rig.b.fail("serve: drain cut sessions off")
	}
	<-rig.done
}

// wireAlert is the part of the service's NDJSON alert line read here.
type wireAlert struct {
	Type      string  `json:"type"`
	Session   string  `json:"session"`
	Leaf      int     `json:"leaf"`
	Uplink    int     `json:"uplink"`
	Iter      uint32  `json:"iter"`
	Deviation float64 `json:"deviation"`
	At        int64   `json:"at_ns"`
}

// onLog is the server's log hook; the "bench" rule's sink writes each
// alert through it, on the shard goroutine that raised it.
func (rig *serveRig) onLog(format string, args ...any) {
	if format != "serve: [%s] %s" || len(args) != 2 || args[0] != "bench" {
		return
	}
	line, ok := args[1].([]byte)
	if !ok {
		return
	}
	now := time.Now()
	var al wireAlert
	if err := json.Unmarshal(line, &al); err != nil || al.Type != "alert" {
		return
	}
	rig.mu.Lock()
	defer rig.mu.Unlock()
	rig.received++
	s := rig.sessions[al.Session]
	if s == nil {
		return
	}
	s.alerts = append(s.alerts, alertKey{leaf: al.Leaf, uplink: al.Uplink, iter: al.Iter, at: sim.Time(al.At), dev: al.Deviation})
	k := winKey(al.Leaf, al.Iter)
	if t, ok := s.written[k]; ok && !s.matched[k] {
		s.matched[k] = true
		rig.alertMS = append(rig.alertMS, ms(now.Sub(t)))
		rig.b.tr.add("serve.alert", s.span, t, now)
	}
}

// sessionOut is one finished session.
type sessionOut struct {
	rec                 *recording
	label               string
	dial, write, closeD time.Duration
	total               time.Duration
	cal                 float64 // median calibration pass after the session's round, ms
	windows             int64
	// quality scores the session's alerts. Sessions keep the score, not
	// the alerts, so the live heap does not grow with the session count.
	quality quality
	ok      bool
}

// session streams one recording as one producer session: dial, write
// every record separately, half-close and read the status line.
func (rig *serveRig) session(rec *recording, label string) sessionOut {
	tr := rig.b.tr
	out := sessionOut{rec: rec, label: label}
	t0 := time.Now()
	sp := tr.begin("session", 0)
	defer tr.end(sp)
	st := &sessState{span: sp, written: map[uint64]time.Time{}, matched: map[uint64]bool{}}
	rig.mu.Lock()
	rig.sessions[label] = st
	rig.mu.Unlock()

	dsp := tr.begin("serve.dial", sp)
	p, err := serve.DialProducer(rig.addr, "", serve.ModeSeq, label, 5*time.Second)
	tr.end(dsp)
	t1 := time.Now()
	out.dial = t1.Sub(t0)
	if err != nil {
		rig.b.fail("serve: %s: %v", label, err)
		return out
	}
	wsp := tr.begin("serve.write", sp)
	for i, f := range rec.frames {
		if k := rec.key[i]; k != noWindow && rec.alerting[k] {
			rig.mu.Lock()
			st.written[k] = time.Now()
			rig.mu.Unlock()
		}
		w0 := time.Now()
		_, err = p.Write(f)
		out.write += time.Since(w0)
		if err != nil {
			break
		}
	}
	tr.end(wsp)
	t2 := time.Now()
	csp := tr.begin("serve.close", sp)
	status, cerr := p.Close()
	tr.end(csp)
	t3 := time.Now()
	out.closeD, out.total = t3.Sub(t2), t3.Sub(t0)
	if err == nil {
		err = cerr
	}
	rig.mu.Lock()
	alerts := st.alerts
	delete(rig.sessions, label)
	rig.mu.Unlock()
	r := rec.run
	quarAt, quarantined := r.firstAction(remediate.ActionQuarantine)
	out.quality = assess(alerts, r.spec, r.onset, quarAt, quarantined)
	switch {
	case err != nil:
		rig.b.fail("serve: %s: %v", label, err)
	case status.Parity != "exact":
		rig.b.fail("serve: %s: parity %q, want exact", label, status.Parity)
	case status.Windows != rec.windows || status.Events != rec.events:
		rig.b.fail("serve: %s: %d windows / %d alerts, recording has %d / %d",
			label, status.Windows, status.Events, rec.windows, rec.events)
	case int64(len(alerts)) != rec.events:
		rig.b.fail("serve: %s: the alert sink delivered %d of %d alerts", label, len(alerts), rec.events)
	default:
		out.ok = true
		out.windows = status.Windows
	}
	return out
}

// servePhase is one timed phase of serve-fanin.
type servePhase struct {
	e2e      map[string]float64
	extra    map[string]metric
	sessions []sessionOut
	windows  int64
	mallocs  uint64
	elapsed  time.Duration // producers' time, calibration passes left out
	cals     []float64     // one median calibration pass per round, ms
	// elapsedCal is elapsed in calibration units: each round's time
	// divided by its calibration pass.
	elapsedCal float64
	depthMax   int
}

// runServePhase runs the producers, each alternating the recordings as
// back-to-back sessions, in rounds until the time is up.
func runServePhase(b *bench, rig *serveRig, recs []*recording, seconds float64, scrape bool) *servePhase {
	ph := &servePhase{e2e: map[string]float64{}, extra: map[string]metric{}}
	rig.mu.Lock()
	rig.alertMS = rig.alertMS[:0]
	rig.mu.Unlock()
	var stopScrape chan struct{}
	var scraped sync.WaitGroup
	if scrape {
		stopScrape = make(chan struct{})
		scraped.Add(1)
		go func() {
			defer scraped.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopScrape:
					return
				case <-tick.C:
					if d := int(scrapeMetrics(rig.srv)["depth_max"]); d > ph.depthMax {
						ph.depthMax = d
					}
				}
			}
		}()
	}
	warmCalibration()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var mu sync.Mutex
	sent := make([]int, producers) // sessions each producer has run
	for round := 0; round == 0 || time.Since(start).Seconds() < seconds; round++ {
		r0 := time.Now()
		var outs []sessionOut
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for first := true; first || time.Since(r0) < serveRound; first = false {
					rec := recs[(p+sent[p])%len(recs)]
					sent[p]++
					out := rig.session(rec, fmt.Sprintf("p%d-s%d", p, rig.next.Add(1)))
					mu.Lock()
					outs = append(outs, out)
					mu.Unlock()
				}
			}(p)
		}
		wg.Wait()
		d := time.Since(r0)
		cal := calMedian(calPasses)
		for i := range outs {
			outs[i].cal = cal
		}
		ph.sessions = append(ph.sessions, outs...)
		ph.elapsed += d
		ph.elapsedCal += ms(d) / cal
		ph.cals = append(ph.cals, cal)
	}
	runtime.ReadMemStats(&ms1)
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	if scrape {
		close(stopScrape)
		scraped.Wait()
	}
	runtime.GC()
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)

	// Session times are bimodal (a 32×16 recording is ~30 times the size
	// of the 8×2 one), so each recording gets its own percentiles and
	// the end-to-end figure is that of the paper-shaped 32×16 sessions.
	totals := map[*recording][]float64{}
	totalsCal := map[*recording][]float64{}
	byRec := map[*recording]quality{}
	for _, s := range ph.sessions {
		b.attempted += 1 + s.rec.events
		if !s.ok {
			b.failed += 1 + s.rec.events
			continue
		}
		ph.windows += s.windows
		totals[s.rec] = append(totals[s.rec], ms(s.total))
		totalsCal[s.rec] = append(totalsCal[s.rec], ms(s.total)/s.cal)
		q := s.quality
		if prev, seen := byRec[s.rec]; seen && prev != q {
			b.fail("serve: %s: alerts differ from an earlier session of the same recording", s.label)
		}
		byRec[s.rec] = q
	}
	var deficitHit, deficits, hit, faulty int
	for _, q := range byRec {
		deficitHit += q.deficitHit
		deficits += q.deficits
		hit += q.hitIter
		faulty += q.faultyIters
	}
	rig.mu.Lock()
	alertMS := append([]float64(nil), rig.alertMS...)
	rig.mu.Unlock()

	ph.e2e["op_cal_p50"] = stats.Quantile(totalsCal[recs[0]], 1, 2)
	ph.e2e["op_cal_p90"] = stats.Quantile(totalsCal[recs[0]], 9, 10)
	ph.e2e["windows_per_cal"] = float64(ph.windows) / ph.elapsedCal
	ph.e2e["heap_live_mb"] = float64(mst.HeapAlloc) / (1 << 20)
	ph.e2e["detect_sim_us"] = byRec[recs[0]].detectSimUS
	ph.e2e["alert_precision"] = float64(deficitHit) / float64(max(deficits, 1))
	ph.extra["fault_recall"] = metric{float64(hit) / float64(max(faulty, 1)), "ratio"}
	ph.extra["missed_fault_iters"] = metric{float64(faulty - hit), "count"}
	for i, rec := range recs {
		name := []string{"ring", "replan"}[i]
		ph.extra["session_ms_p50_"+name] = metric{stats.Quantile(totals[rec], 1, 2), "ms"}
		ph.extra["session_ms_p90_"+name] = metric{stats.Quantile(totals[rec], 9, 10), "ms"}
		ph.extra["session_samples_"+name] = metric{float64(len(totals[rec])), "count"}
	}
	ph.extra["windows_per_s"] = metric{float64(ph.windows) / ph.elapsed.Seconds(), "1/s"}
	ph.extra["cal_ms"] = metric{stats.Median(ph.cals), "ms"}
	ph.extra["alert_ms_p50"] = metric{stats.Quantile(alertMS, 1, 2), "ms"}
	ph.extra["alert_samples"] = metric{float64(len(alertMS)), "count"}
	ph.extra["failed_frac"] = metric{float64(b.failed) / float64(max(b.attempted, 1)), "ratio"}
	return ph
}

// scrapeMetrics reads the service's /metrics in-process, without a
// connection: the deepest shard queue and the alert total.
func scrapeMetrics(srv *serve.Server) map[string]float64 {
	rec := httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, "flowpulse_shard_depth{"):
			out["depth_max"] = max(out["depth_max"], v)
		case name == "flowpulse_alerts_total":
			out["alerts_total"] = v
		}
	}
	return out
}

// recordInputs runs both scenarios once and prepares their recordings.
func recordInputs(b *bench) []*recording {
	var recs []*recording
	for _, spec := range []simSpec{ringSpec(b.seed), replanSpec(b.seed)} {
		r := runSim(b, spec, 0)
		if r == nil {
			return nil
		}
		b.recordExact(r)
		rec := r.recording(b)
		if rec == nil {
			return nil
		}
		recs = append(recs, rec)
	}
	return recs
}

func runServeFanin(b *bench) {
	var setup []float64
	var recs []*recording
	for i := 0; i < serveSetups; i++ {
		t0 := time.Now()
		recs = recordInputs(b)
		setup = append(setup, time.Since(t0).Seconds())
		if recs == nil {
			b.attempted++
			b.failed++
			return
		}
	}
	rig, err := newServeRig(b)
	if err != nil {
		b.fail("serve: %v", err)
		return
	}
	defer rig.close()
	if !b.traced {
		ph := runServePhase(b, rig, recs, b.seconds, false)
		ph.e2e["setup_s"] = stats.Median(setup)
		b.setE2E(ph.e2e)
		b.extra = ph.extra
		return
	}
	plain := runServePhase(b, rig, recs, b.seconds/2, false)
	plain.e2e["setup_s"] = stats.Median(setup)
	b.tr.start(serveSpans)
	traced := runServePhase(b, rig, recs, b.seconds/2, true)
	b.tr.on = false
	traced.e2e["setup_s"] = plain.e2e["setup_s"]
	b.setE2E(plain.e2e)
	b.extra = plain.extra
	for k, v := range plain.e2e {
		b.overhead[k] = [2]float64{v, traced.e2e[k]}
	}
	lay := newLayers(b)
	lay.fromRun(recs[0].run)
	lay.fromRemediation(recs[1].run)
	lay.fromServe(rig, traced)
	lay.set("go.allocs_per_window", float64(traced.mallocs)/float64(max(traced.windows, 1)))
	lay.offline(recs[0].run.spec, []*simRun{recs[0].run, recs[1].run})
}
