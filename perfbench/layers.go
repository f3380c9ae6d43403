package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	fp "flowpulse"
	"flowpulse/internal/core"
	"flowpulse/internal/detect"
	"flowpulse/internal/fabric"
	"flowpulse/internal/localize"
	"flowpulse/internal/monitor"
	"flowpulse/internal/predict"
	"flowpulse/internal/remediate"
	"flowpulse/internal/resilience"
	"flowpulse/internal/sim"
	"flowpulse/internal/spray"
	"flowpulse/internal/telemetry"
	"flowpulse/internal/topology"
	"flowpulse/internal/trace"
	"flowpulse/internal/transport"
	"flowpulse/perfbench/stats"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// prints all of them on every workload: timings always come from the
// off-line re-drives, and a count of a layer the workload does not drive
// (remediation on ring-detect) reads 0.
var layerUnits = map[string]string{
	"sim.events_per_iter":      "count",
	"sim.ns_per_event":         "ns",
	"sim.timer_ns":             "ns",
	"sim.post_ns":              "ns",
	"core.build_ms":            "ms",
	"core.attach_ms":           "ms",
	"fabric.packets_per_iter":  "count",
	"fabric.forward_ns":        "ns",
	"fabric.fault_dropped":     "count",
	"fabric.pfc_pauses":        "count",
	"spray.pick16_ns":          "ns",
	"spray.pick2_ns":           "ns",
	"transport.send_ns":        "ns",
	"transport.retransmits":    "count",
	"transport.spurious_frac":  "ratio",
	"telemetry.tap_ns":         "ns",
	"telemetry.windows":        "count",
	"predict.port_load_ns":     "ns",
	"detect.check_ns":          "ns",
	"detect.alerts":            "count",
	"localize.verdict_ns":      "ns",
	"monitor.window_ns":        "ns",
	"remediate.tick_ns":        "ns",
	"remediate.confirm_sim_us": "sim_us",
	"remediate.probe_rounds":   "count",
	"control.apply_us":         "us",
	"control.changesets":       "count",
	"control.retries":          "count",
	"resilience.replan_us":     "us",
	"resilience.adopt_sim_us":  "sim_us",
	"trace.encode_ns":          "ns",
	"trace.decode_ns":          "ns",
	"trace.bytes_per_window":   "B",
	"serve.dial_ms":            "ms",
	"serve.write_blocked_frac": "ratio",
	"serve.status_wait_ms":     "ms",
	"serve.shard_depth_max":    "count",
	"serve.alerts_dropped":     "count",
	"go.allocs_per_iter":       "count",
	"go.alloc_bytes_per_iter":  "B",
	"go.allocs_per_window":     "count",
	"go.gc_cpu_frac":           "ratio",
}

// layers fills the per-layer metrics of a traced run.
type layers struct{ b *bench }

func newLayers(b *bench) *layers { return &layers{b: b} }

func (l *layers) set(name string, v float64) {
	u, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unknown layer metric " + name)
	}
	l.b.layer[name] = metric{v, u}
}

// finish fills counts of layers the workload did not drive with 0 and
// fails on any timing that was not measured.
func (l *layers) finish() {
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	l.set("go.gc_cpu_frac", mst.GCCPUFraction)
	for name, unit := range layerUnits {
		if _, ok := l.b.layer[name]; ok {
			continue
		}
		switch unit {
		case "count", "ratio", "B", "sim_us":
			l.set(name, 0)
		default:
			l.b.fail("layer metric %s was not measured", name)
		}
	}
}

// fromRun reads the counters of one traced simulated run.
func (l *layers) fromRun(r *simRun) {
	iters := float64(r.spec.sc.Iterations)
	l.set("sim.events_per_iter", float64(r.events)/iters)
	l.set("sim.ns_per_event", float64(r.train.Nanoseconds())/float64(r.events))
	l.set("core.build_ms", ms(r.build))
	l.set("core.attach_ms", ms(r.attach))
	l.set("fabric.packets_per_iter", float64(r.net.Sent)/iters)
	l.set("fabric.fault_dropped", float64(r.net.FaultDropped))
	l.set("fabric.pfc_pauses", float64(r.net.PFCPauses))
	l.set("transport.retransmits", float64(r.tp.Retransmits))
	l.set("transport.spurious_frac", float64(r.tp.SpuriousRetransmits)/float64(max(r.tp.Retransmits, 1)))
	l.set("telemetry.windows", float64(r.windows))
	l.set("detect.alerts", float64(len(r.alerts)))
	l.set("trace.bytes_per_window", float64(len(r.rec))/float64(r.windows))
	l.set("go.allocs_per_iter", float64(r.mallocs)/iters)
	l.set("go.alloc_bytes_per_iter", float64(r.allocBytes)/iters)
	l.set("go.allocs_per_window", float64(r.mallocs)/float64(r.windows))
	l.fromRemediation(r)
}

// fromRemediation reads the closed loop's stage times and counters.
func (l *layers) fromRemediation(r *simRun) {
	if at, ok := r.firstAction(remediate.ActionConfirm); ok {
		l.set("remediate.confirm_sim_us", simUS(at-r.onset))
	}
	if at, ok := r.firstAction(remediate.ActionReplan); ok {
		// The re-plan is adopted at the next iteration barrier.
		for _, it := range r.iterAt {
			if it >= at {
				l.set("resilience.adopt_sim_us", simUS(it-r.onset))
				break
			}
		}
	}
	l.set("remediate.probe_rounds", float64(r.rem.ProbeRounds))
	l.set("control.changesets", float64(r.ctl.ChangeSets))
	l.set("control.retries", float64(r.ctl.Retries))
}

// fromServe reads the service-side numbers of a traced serve phase.
func (l *layers) fromServe(rig *serveRig, ph *servePhase) {
	var dial, closeD []float64
	var write, total time.Duration
	for _, s := range ph.sessions {
		dial = append(dial, ms(s.dial))
		closeD = append(closeD, ms(s.closeD))
		write += s.write
		total += s.total
	}
	l.set("serve.dial_ms", stats.Median(dial))
	l.set("serve.status_wait_ms", stats.Median(closeD))
	l.set("serve.write_blocked_frac", write.Seconds()/total.Seconds())
	l.set("serve.shard_depth_max", float64(ph.depthMax))
	rig.mu.Lock()
	received := rig.received
	rig.mu.Unlock()
	l.set("serve.alerts_dropped", scrapeMetrics(rig.srv)["alerts_total"]-float64(received))
}

// timeOp runs op n times and returns the mean nanoseconds per call, as
// the median over three rounds.
func timeOp(n int, op func(i int)) float64 {
	var rounds []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(r*n + i)
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return stats.Median(rounds)
}

// offline re-drives the workload's scenario and its runs' recordings
// through each module's public API, one layer at a time.
func (l *layers) offline(spec simSpec, runs []*simRun) {
	b := l.b
	sp := b.tr.begin("offline", 0)
	defer b.tr.end(sp)
	c, err := fp.New(spec.sc)
	if err != nil {
		b.fail("offline: %v", err)
		return
	}
	defer c.Close()
	rt := c.Runtime()
	topo := rt.Topo
	first, last := topology.HostID(0), topology.HostID(len(topo.Hosts)-1)
	link := rt.Link(spec.fault)

	l.set("sim.timer_ns", timerNS(runs[0].maxPending))
	l.set("sim.post_ns", postNS(rt.Net.Partition().Lookahead))
	l.set("fabric.forward_ns", forwardNS(rt, first, last))
	l.set("spray.pick16_ns", pickNS(16, spec.sc.Seed))
	l.set("spray.pick2_ns", pickNS(2, spec.sc.Seed))
	l.set("telemetry.tap_ns", tapNS(topo))
	l.set("resilience.replan_us", replanUS(rt, link))

	// The transport micro needs a fresh fabric: the forwarding micro
	// above rebound a host's receiver. The ChangeSet micro goes last, as
	// it churns the fabric's admin state.
	c2, err := fp.New(spec.sc)
	if err != nil {
		b.fail("offline: %v", err)
		return
	}
	defer c2.Close()
	l.set("transport.send_ns", sendNS(c2.Runtime(), first, last))
	rec := runs[0].recording(b)
	if rec == nil {
		return
	}
	l.set("predict.port_load_ns", portLoadNS(c2.Runtime(), rec))
	l.set("control.apply_us", controlApplyUS(c2, link))

	var rd redrive
	for _, r := range runs {
		x := r.recording(b)
		if x == nil {
			return
		}
		rd.run(b, x)
	}
	l.set("detect.check_ns", rd.per(rd.check, rd.windows))
	l.set("localize.verdict_ns", rd.per(rd.localize, rd.verdicts))
	l.set("monitor.window_ns", rd.per(rd.window, rd.windows))
	l.set("remediate.tick_ns", rd.per(rd.tick, rd.ticks))
	l.set("trace.encode_ns", rd.per(rd.encode, rd.encoded))
	l.set("trace.decode_ns", rd.per(rd.decode, rd.decoded))

	if _, ok := b.layer["serve.dial_ms"]; !ok {
		l.serveRedrive(runs)
	}
	l.finish()
}

// serveRedrive streams the workload's own recordings through an
// in-process service, for the serve-side per-layer numbers of a
// simulated workload.
func (l *layers) serveRedrive(runs []*simRun) {
	rig, err := newServeRig(l.b)
	if err != nil {
		l.b.fail("serve: %v", err)
		return
	}
	defer rig.close()
	var recs []*recording
	for _, r := range runs {
		recs = append(recs, r.recording(l.b))
	}
	ph := &servePhase{}
	for i := 0; i < 8; i++ {
		s := rig.session(recs[i%len(recs)], fmt.Sprintf("redrive-%d", i))
		ph.sessions = append(ph.sessions, s)
		ph.windows += s.windows
		if d := int(scrapeMetrics(rig.srv)["depth_max"]); d > ph.depthMax {
			ph.depthMax = d
		}
	}
	l.fromServe(rig, ph)
}

// nopTimer is a typed engine timer that does nothing.
type nopTimer struct{}

func (nopTimer) Fire(sim.Time) {}

// timerNS times Engine.AfterTimer plus running it, with the heap held at
// the pending depth the workload reached.
func timerNS(depth int) float64 {
	e := sim.NewEngine()
	far := sim.Time(1) << 60
	for i := 0; i < depth; i++ {
		e.AtTimer(far+sim.Time(i), nopTimer{})
	}
	tm := nopTimer{}
	return timeOp(200000, func(int) {
		e.AfterTimer(sim.Nanosecond, tm)
		e.RunUntil(e.Now() + sim.Time(sim.Nanosecond))
	})
}

// postNS times Group.Post of a cross-domain handoff plus the window
// barrier that delivers it.
func postNS(lookahead sim.Duration) float64 {
	g := sim.NewGroup(sim.GroupConfig{Domains: 3, Lookahead: lookahead, Workers: engineWorkers})
	defer g.Close()
	e1 := g.Engine(1)
	nop := func(sim.Time) {}
	var tick sim.Handler
	tick = func(now sim.Time) {
		g.Post(1, 2, now+sim.Time(lookahead), nop)
		e1.After(lookahead, tick)
	}
	e1.After(lookahead, tick)
	return timeOp(20000, func(i int) {
		g.RunUntil(sim.Time(lookahead) * sim.Time(i+1))
	})
}

// forwardNS times Network.Send of a 4 KiB packet across the fabric plus
// the events that deliver it.
func forwardNS(rt *core.Runtime, src, dst topology.HostID) float64 {
	rt.Net.SetReceiver(dst, func(sim.Time, *fabric.Packet) {})
	msg := uint64(0)
	return timeOp(32768, func(i int) {
		msg++
		rt.Net.Send(fabric.SendSpec{Src: src, Dst: dst, Size: 4096, Msg: msg})
		if i%1024 == 1023 {
			rt.Run()
		}
	})
}

// sendNS times Stack.Send of a 64 KiB message, run to delivery.
func sendNS(rt *core.Runtime, src, dst topology.HostID) float64 {
	return timeOp(100, func(int) {
		rt.Stack.Send(&transport.Message{Src: src, Dst: dst, Bytes: 64 << 10})
		rt.Run()
	})
}

// pickNS times least-loaded Policy.Pick over n candidates whose queues
// move as picks land on them.
func pickNS(n int, seed uint64) float64 {
	p := spray.MustNew(spray.LeastLoaded, sim.NewRNG(seed, "perfbench-spray"))
	cands := make([]spray.Candidate, n)
	for i := range cands {
		cands[i] = spray.Candidate{Port: i, QueueBytes: int64(i%3) * 4096}
	}
	return timeOp(500000, func(i int) {
		k := p.Pick(cands, uint64(i))
		cands[k].QueueBytes += 4096
		cands[i%n].QueueBytes -= min(cands[i%n].QueueBytes, 4096)
	})
}

// tapNS times LeafMonitor.OnPacket for tagged packets arriving on a
// leaf's uplinks.
func tapNS(topo *topology.Topology) float64 {
	leaf := topo.Leaves()[0]
	src := topo.HostsOf(topo.Leaves()[1])[0]
	hostPorts := len(topo.HostsOf(leaf))
	uplinks := len(topo.Switch(leaf).Ports) - hostPorts
	mon := telemetry.NewLeafMonitor(topo, leaf, 1, func(*telemetry.Window) {})
	pkt := &fabric.Packet{Src: src, Size: 4096, Kind: fabric.Data,
		Tag: fabric.FlowTag{Sentinel: true, Job: 1, Iter: 1}}
	return timeOp(500000, func(i int) { mon.OnPacket(0, hostPorts+i%uplinks, pkt) })
}

// controlApplyUS times the control plane's verified quarantine and
// re-admit ChangeSets on the workload's faulty link.
func controlApplyUS(c *fp.Cluster, link topology.LinkID) float64 {
	p := c.ControlPlane()
	return timeOp(40, func(i int) {
		if i%2 == 0 {
			p.Quarantine(0, link)
		} else {
			p.Readmit(0, link)
		}
	}) / 1e3
}

// replanUS times the re-planner's response to a quarantine and to the
// matching re-admission.
func replanUS(rt *core.Runtime, link topology.LinkID) float64 {
	rp := resilience.New(rt.Topo, rt.Group, resilience.Config{})
	return timeOp(200, func(i int) {
		if i%2 == 0 {
			rp.NoteQuarantine(0, link)
		} else {
			rp.NoteReadmit(0, link)
		}
	}) / 1e3
}

// portLoadNS times the analytical model's per-window lookups over the
// run's recorded windows.
func portLoadNS(rt *core.Runtime, rec *recording) float64 {
	a := predict.NewAnalytical(rt.Topo, rt.Plane, rt.Stack, rt.Coll.Demand())
	var leaves []int
	for _, x := range rec.records {
		if x.Kind == trace.KindWindow {
			leaves = append(leaves, x.Window.LeafOrd)
		}
	}
	var sink int
	ns := timeOp(100000, func(i int) {
		leaf := leaves[i%len(leaves)]
		sink += len(a.PortLoad(leaf)) + len(a.SenderLoad(leaf))
	})
	runtime.KeepAlive(sink)
	return ns
}

// redrive feeds recorded windows through a monitor pipeline whose
// stages are wrapped in timing decorators, and re-encodes and re-decodes
// the recordings.
type redrive struct {
	windows, verdicts, ticks, encoded, decoded    int
	check, localize, window, tick, encode, decode time.Duration
}

func (r *redrive) per(d time.Duration, n int) float64 {
	return float64(d.Nanoseconds()) / float64(max(n, 1))
}

// redriveRounds repeats each re-drive so that short recordings still
// give a few thousand timed windows.
const redriveRounds = 10

func (r *redrive) run(b *bench, rec *recording) {
	hdr, topo, err := header(rec.run.rec)
	if err != nil {
		b.fail("re-drive: %v", err)
		return
	}
	for round := 0; round < redriveRounds; round++ {
		events := r.pipeline(hdr, topo, rec)
		if events != rec.events {
			b.fail("re-drive of %s raised %d alerts, the recording has %d", rec.run.spec.name, events, rec.events)
			return
		}
		r.codec(b, hdr, topo, rec)
	}
}

func header(data []byte) (*trace.Header, *topology.Topology, error) {
	rd, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	return rd.Header(), rd.Topo(), nil
}

// pipeline runs one pass of the recording through decorated stages and
// returns the number of alerts raised.
func (r *redrive) pipeline(hdr *trace.Header, topo *topology.Topology, rec *recording) int64 {
	jh := hdr.Jobs[0]
	pred := &trace.SnapshotPredictor{}
	faults := predict.NewFaultSet()
	det := detect.New(topo, pred, detect.Config{Threshold: jh.Threshold, MinPredicted: jh.MinPredicted,
		AggregateSymmetry: jh.AggregateSymmetry, CEDiscount: jh.CEDiscount})
	det.SetKnownFaults(faults)
	plane := &offlinePlane{topo: topo, pending: map[topology.LinkID][]func(sim.Time, bool){}}
	// A recording made without remediation gets a default remediator
	// with its own fault set, so that its quarantines cannot change what
	// the detector raises.
	rcfg, remFaults := remediate.Config{}, predict.NewFaultSet()
	if hdr.Remediate != nil {
		rcfg, remFaults = *hdr.Remediate, faults
	}
	rem := &timedRemediate{r: remediate.New(plane, remFaults, nil, rcfg), d: r}
	var events int64
	pipe := monitor.NewPipeline(monitor.PipelineConfig{
		Pred:      pred,
		Detect:    &timedDetect{d: det, r: r},
		Localize:  &timedLocalize{l: localize.New(topo, det.Threshold(), 0), r: r},
		Remediate: rem,
		NoHistory: true,
		OnEvent:   func(monitor.Event) { events++ },
	})
	var win telemetry.Window
	for _, x := range rec.records {
		switch x.Kind {
		case trace.KindWindow:
			w := x.Window
			pred.Set(w.Ready, w.PortPred, w.SenderPred)
			win = toWindow(topo, w)
			t0 := time.Now()
			pipe.OnOwnedWindow(&win)
			r.window += time.Since(t0)
			r.windows++
		case trace.KindProbe:
			plane.deliver(x.Probe)
		}
	}
	return events
}

// codec re-encodes the recorded windows with Writer.Window and decodes
// the recording with Reader.NextInto into reused storage.
func (r *redrive) codec(b *bench, hdr *trace.Header, topo *topology.Topology, rec *recording) {
	w := trace.NewWriter(io.Discard)
	if err := w.Begin(*hdr); err != nil {
		b.fail("re-encode: %v", err)
		return
	}
	var win telemetry.Window
	for _, x := range rec.records {
		if x.Kind != trace.KindWindow {
			continue
		}
		wr := x.Window
		win = toWindow(topo, wr)
		t0 := time.Now()
		w.Window(&win, wr.Ready, wr.PortPred, wr.SenderPred)
		r.encode += time.Since(t0)
		r.encoded++
	}
	if err := w.Finish(0); err != nil {
		b.fail("re-encode: %v", err)
	}

	rd, err := trace.NewReader(bytes.NewReader(rec.run.rec))
	if err != nil {
		b.fail("re-decode: %v", err)
		return
	}
	var slot trace.WindowRecord
	dest := func(uint16, int) *trace.WindowRecord { return &slot }
	t0 := time.Now()
	n := 0
	for {
		x, err := rd.NextInto(dest)
		if err == io.EOF {
			break
		}
		if err != nil {
			b.fail("re-decode: %v", err)
			return
		}
		if x.Kind == trace.KindWindow {
			n++
		}
	}
	r.decode += time.Since(t0)
	r.decoded += n
}

// toWindow rebuilds the telemetry window a window record was taken
// from, sharing its storage.
func toWindow(topo *topology.Topology, w *trace.WindowRecord) telemetry.Window {
	return telemetry.Window{Leaf: topo.Leaves()[w.LeafOrd], LeafOrdinal: w.LeafOrd, Job: w.Job, Iter: w.Iter,
		PortBytes: w.PortBytes, SenderBytes: w.SenderBytes, Packets: w.Packets, CEBytes: w.CEBytes,
		AggPortBytes: w.AggPortBytes, OpenedAt: w.OpenedAt, ClosedAt: w.ClosedAt}
}

type timedDetect struct {
	d *detect.Detector
	r *redrive
}

func (t *timedDetect) Score(w *telemetry.Window) (float64, bool) { return t.d.Score(w) }
func (t *timedDetect) Check(w *telemetry.Window) []detect.Alert {
	t0 := time.Now()
	a := t.d.Check(w)
	t.r.check += time.Since(t0)
	return a
}

type timedLocalize struct {
	l *localize.Localizer
	r *redrive
}

func (t *timedLocalize) Localize(a detect.Alert, w *telemetry.Window, senders [][]float64) localize.Verdict {
	t0 := time.Now()
	v := t.l.Localize(a, w, senders)
	t.r.localize += time.Since(t0)
	t.r.verdicts++
	return v
}

type timedRemediate struct {
	r *remediate.Remediator
	d *redrive
}

func (t *timedRemediate) Observe(a detect.Alert, v localize.Verdict) { t.r.Observe(a, v) }
func (t *timedRemediate) Tick(now sim.Time) {
	t0 := time.Now()
	t.r.Tick(now)
	t.d.tick += time.Since(t0)
	t.d.ticks++
}

// offlinePlane answers the remediator's control-plane calls during a
// re-drive: ChangeSets commit as no-ops, and probe results arrive from
// the recording's probe records, in stream order.
type offlinePlane struct {
	topo    *topology.Topology
	pending map[topology.LinkID][]func(sim.Time, bool)
}

func (f *offlinePlane) Topology() *topology.Topology              { return f.topo }
func (f *offlinePlane) Quarantine(sim.Time, topology.LinkID) bool { return true }
func (f *offlinePlane) Readmit(sim.Time, topology.LinkID) bool    { return true }
func (f *offlinePlane) Reconcile(sim.Time) bool                   { return false }
func (f *offlinePlane) Tick(sim.Time)                             {}
func (f *offlinePlane) ProbeLink(link topology.LinkID, _ fabric.Direction, _ int, onResult func(sim.Time, bool)) {
	f.pending[link] = append(f.pending[link], onResult)
}

func (f *offlinePlane) deliver(p *trace.ProbeRecord) {
	cbs := f.pending[p.Link]
	delete(f.pending, p.Link)
	for i, cb := range cbs {
		cb(p.At, i >= p.Lost)
	}
}
