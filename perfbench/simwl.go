package main

import (
	"bytes"
	"runtime"
	"time"

	fp "flowpulse"
	"flowpulse/internal/control"
	"flowpulse/internal/fabric"
	"flowpulse/internal/metrics"
	"flowpulse/internal/remediate"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
	"flowpulse/internal/trace"
	"flowpulse/internal/transport"
	"flowpulse/perfbench/stats"
)

// engineWorkers is the sharded engine's worker count in every simulated
// run: one worker is the steadiest setting on a shared machine.
const engineWorkers = 1

// simSpec is one monitored, recorded training scenario with one silent
// fault that starts after iteration onset.
type simSpec struct {
	name  string
	sc    fp.Scenario
	mon   fp.MonitorConfig
	fault fp.Link
	drop  float64
	onset uint32
	// deficitOnFaultOnly makes any deficit alert on another port a
	// correctness failure (ring-detect, which runs without remediation).
	deficitOnFaultOnly bool
}

// ringSpec is ring-detect: the paper's 32×16 fat tree, one host per
// leaf, Ring-AllReduce of 4 MiB per rank, a 5% silent drop on leaf 3 →
// spine 1 (downstream) after iteration 4, analytical model at 1%.
func ringSpec(seed uint64) simSpec {
	return simSpec{
		name: "ring-detect",
		sc: fp.Scenario{Leaves: 32, Spines: 16, HostsPerLeaf: 1, BytesPerRank: 4 << 20,
			Iterations: 12, Seed: seed, Shards: engineWorkers},
		mon:   fp.MonitorConfig{Predictor: fp.Analytical, Threshold: 0.01},
		fault: fp.Link{LeafOrd: 3, SpineOrd: 1},
		drop:  0.05,
		onset: 4,

		deficitOnFaultOnly: true,
	}
}

// replanSpec is replan-loop: a 2:1 oversubscribed 8×2 leaf-spine with
// four hosts per leaf, an interleaved ring of 2 MiB per rank, and a 5%
// drop on leaf 4 → spine 0 after iteration 2, with remediation and
// re-planning on — the closed loop of confirm, quarantine, re-plan,
// adopt and recover.
func replanSpec(seed uint64) simSpec {
	return simSpec{
		name: "replan-loop",
		sc: fp.Scenario{Leaves: 8, Spines: 2, HostsPerLeaf: 4, InterleaveRing: true,
			BytesPerRank: 2 << 20, Iterations: 20, Seed: seed, Shards: engineWorkers},
		mon: fp.MonitorConfig{Predictor: fp.Analytical, Threshold: 0.01,
			Remediate: &fp.RemediateConfig{}, Resilience: &fp.ResilienceConfig{}},
		fault: fp.Link{LeafOrd: 4, SpineOrd: 0},
		drop:  0.05,
		onset: 2,
	}
}

// recoverTarget is the goodput share that counts as recovered.
const recoverTarget = 0.9

// simRun is the outcome of one run of a simSpec.
type simRun struct {
	spec          simSpec
	build, attach time.Duration
	train         time.Duration // host time training, calibration passes left out
	iterMS        []float64
	calMS         []float64  // one calibration pass after each iteration
	iterAt        []sim.Time // simulated end of each iteration
	events        uint64
	net           fabric.Stats
	tp            transport.Stats
	windows       int
	alerts        []alertKey
	rec           []byte
	fingerprint   uint64
	mallocs       uint64
	allocBytes    uint64
	maxPending    int
	onset         sim.Time
	link          topology.LinkID
	timeline      []remediate.Action
	rem           remediate.Stats
	ctl           control.Stats
	goodput       metrics.GoodputReport
	quarantined   []topology.LinkID
	cluster       *fp.Cluster
	decoded       *recording // see recording
}

// alertKey is the part of an alert the quality metrics read, whether it
// came from the embedded monitor or from the service's alert sink.
type alertKey struct {
	leaf, uplink int
	iter         uint32
	at           sim.Time
	dev          float64
}

// runSim builds, attaches and trains one scenario, then runs the
// correctness gates on it: byte conservation, exact off-line replay of
// the recording, and the scenario's own outcome checks.
func runSim(b *bench, spec simSpec, parent int) *simRun {
	n := spec.sc.Iterations
	r := &simRun{spec: spec, iterMS: make([]float64, 0, n), calMS: make([]float64, 0, n), iterAt: make([]sim.Time, 0, n)}
	tr := b.tr
	t0 := time.Now()
	sp := tr.begin("core.build", parent)
	c, err := fp.New(spec.sc)
	tr.end(sp)
	if err != nil {
		b.fail("%s: build: %v", spec.name, err)
		return nil
	}
	t1 := time.Now()
	rec := bytes.NewBuffer(make([]byte, 0, 1<<20))
	cfg := spec.mon
	cfg.TraceSink = rec
	cfg.TraceLabel = spec.name
	sp = tr.begin("core.attach", parent)
	m, err := c.Monitor(cfg)
	tr.end(sp)
	if err != nil {
		c.Close()
		b.fail("%s: attach: %v", spec.name, err)
		return nil
	}
	r.build, r.attach = t1.Sub(t0), time.Since(t1)

	rt := c.Runtime()
	r.link = rt.Link(spec.fault)
	var gp *metrics.GoodputTimeline
	if spec.mon.Remediate != nil {
		gp = c.TrackGoodput()
	}
	domains := rt.Net.Partition().NumDomains
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	train := tr.begin("train", parent)
	start := time.Now()
	last := start
	var paused time.Duration
	c.Train(func(now fp.Duration, iter uint32) {
		t := time.Now()
		r.iterMS = append(r.iterMS, ms(t.Sub(last)))
		r.iterAt = append(r.iterAt, sim.Time(now))
		tr.add("iteration", train, last, t)
		for d := 1; d < domains; d++ {
			if p := rt.EngineGroup.Engine(d).Pending(); p > r.maxPending {
				r.maxPending = p
			}
		}
		if iter == spec.onset {
			r.onset = sim.Time(now)
			if gp != nil {
				gp.MarkFault(int64(now))
			}
			c.BreakLink(spec.fault, spec.drop)
			m.TraceWriter().Fault(trace.FaultRecord{At: sim.Time(now), Kind: "bernoulli",
				LeafOrd: spec.fault.LeafOrd, SpineOrd: spec.fault.SpineOrd, Rate: spec.drop, OnsetIter: iter})
		}
		// The calibration pass runs while the simulation waits here; the
		// time spent in this callback counts in no iteration.
		r.calMS = append(r.calMS, ms(calibrate()))
		last = time.Now()
		paused += last.Sub(t)
	})
	r.train = time.Since(start) - paused
	tr.end(train)
	runtime.ReadMemStats(&ms1)
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc

	for d := 0; d < domains; d++ {
		r.events += rt.EngineGroup.Engine(d).Executed()
	}
	r.net, r.tp = c.NetworkStats(), c.TransportStats()
	r.windows = m.Windows()
	for _, e := range m.Events() {
		a := e.Alert
		r.alerts = append(r.alerts, alertKey{leaf: a.LeafOrdinal, uplink: a.Uplink, iter: a.Iter, at: a.At, dev: a.Deviation})
	}
	r.rec = rec.Bytes()
	r.fingerprint = m.TraceWriter().Fingerprint()
	r.timeline = m.RemediationTimeline()
	r.rem = m.RemediationStats()
	r.quarantined = m.Quarantined()
	r.ctl = c.ControlPlane().Stats()
	if gp != nil {
		r.goodput = gp.Report(recoverTarget)
	}
	r.cluster = c

	// Correctness gates.
	for _, msg := range rt.Net.AuditConservation() {
		b.fail("%s: conservation: %s", spec.name, msg)
	}
	if err := m.TraceWriter().Err(); err != nil {
		b.fail("%s: recording: %v", spec.name, err)
	}
	res, err := trace.Replay(bytes.NewReader(r.rec), trace.ReplayOptions{NoHistory: true})
	switch {
	case err != nil:
		b.fail("%s: replay: %v", spec.name, err)
	case !res.Matches():
		b.fail("%s: off-line replay fingerprint %016x does not match the trailer", spec.name, res.Fingerprint)
	}
	q := r.quality()
	if q.onPort == 0 {
		b.fail("%s: the fault was never detected", spec.name)
	}
	for _, a := range r.alerts {
		if spec.deficitOnFaultOnly && a.dev < 0 && (a.leaf != spec.fault.LeafOrd || a.uplink != spec.fault.SpineOrd) {
			b.fail("%s: deficit alert on leaf %d uplink %d, want leaf %d uplink %d",
				spec.name, a.leaf, a.uplink, spec.fault.LeafOrd, spec.fault.SpineOrd)
		}
	}
	if spec.mon.Remediate != nil {
		held := false
		for _, l := range r.quarantined {
			held = held || l == r.link
		}
		if !held {
			b.fail("%s: faulty link %d not quarantined at the end", spec.name, r.link)
		}
		if !r.goodput.Recovered {
			b.fail("%s: goodput did not recover to %.0f%%", spec.name, 100*recoverTarget)
		}
	}
	c.Close()
	return r
}

// firstAction returns the simulated time of the first timeline action
// of a kind on the faulty link, and false when there is none.
func (r *simRun) firstAction(kind remediate.ActionKind) (sim.Time, bool) {
	for _, a := range r.timeline {
		if a.Kind == kind && a.Link == r.link {
			return a.At, true
		}
	}
	return 0, false
}

// quality scores a run's alerts against the injected fault.
func (r *simRun) quality() quality {
	quarAt, quarantined := r.firstAction(remediate.ActionQuarantine)
	return assess(r.alerts, r.spec, r.onset, quarAt, quarantined)
}

// quality is detection quality against ground truth: how soon the
// faulty port alerted, what share of the deficit alerts raised while
// the fault was live and unrepaired named it, and how many of the
// faulty iterations it alerted in. A silent drop shows as a deficit on
// its port; the surplus the other uplinks of the leaf carry instead is
// its mirror image, and alerts after the quarantine belong to the
// re-planned schedule, so neither counts against precision.
type quality struct {
	detectSimUS          float64
	onPort, total        int // all alerts, and those on the faulty port after onset
	deficitHit, deficits int // live-fault deficit alerts on the faulty port, and all of them
	faultyIters, hitIter int
}

func (q quality) precision() float64 { return float64(q.deficitHit) / float64(max(q.deficits, 1)) }
func (q quality) recall() float64    { return float64(q.hitIter) / float64(max(q.faultyIters, 1)) }

// assess scores alerts. Faulty iterations run from onset+1 to the last
// iteration, or, once the link is quarantined and carries no traffic,
// to the last faulty-port alert at or before the quarantine.
func assess(alerts []alertKey, spec simSpec, onset, quarAt sim.Time, quarantined bool) quality {
	var q quality
	q.total = len(alerts)
	first := sim.Time(-1)
	last := uint32(spec.sc.Iterations)
	if quarantined {
		last = spec.onset
	}
	hit := map[uint32]bool{}
	for _, a := range alerts {
		onPort := a.leaf == spec.fault.LeafOrd && a.uplink == spec.fault.SpineOrd
		if a.dev < 0 && (!quarantined || a.at <= quarAt) {
			q.deficits++
			if onPort && a.iter > spec.onset {
				q.deficitHit++
			}
		}
		if !onPort || a.iter <= spec.onset {
			continue
		}
		q.onPort++
		hit[a.iter] = true
		if first < 0 || a.at < first {
			first = a.at
		}
		if quarantined && a.at <= quarAt && a.iter > last {
			last = a.iter
		}
	}
	q.faultyIters = int(last - spec.onset)
	for it := range hit {
		if it <= last {
			q.hitIter++
		}
	}
	if first >= 0 {
		q.detectSimUS = simUS(first - onset)
	}
	return q
}

func simUS(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// simPhase is the timed phase of a simulated workload: fresh runs of the
// scenario until the time is up (at least one).
type simPhase struct {
	last  *simRun // the latest run
	n     int     // runs made
	e2e   map[string]float64
	extra map[string]metric
}

func runSimPhase(b *bench, spec simSpec, seconds float64) *simPhase {
	ph := &simPhase{e2e: map[string]float64{}, extra: map[string]metric{}}
	warmCalibration()
	setup := setupSamples(b, spec, setupsBefore)
	start := time.Now()
	// iters holds each iteration's host time in ms, itersCal the same in
	// calibration units: divided by the median calibration pass of its
	// own run.
	var iters, itersCal, cals []float64
	var train time.Duration
	var trainCal float64
	var events uint64
	windows := 0
	for ph.n == 0 || time.Since(start).Seconds() < seconds {
		failedBefore := len(b.failures)
		rep := b.tr.begin("run", 0)
		r := runSim(b, spec, rep)
		b.tr.end(rep)
		b.attempted += int64(spec.sc.Iterations)
		if r == nil {
			b.failed += int64(spec.sc.Iterations)
			break
		}
		if len(b.failures) > failedBefore {
			b.failed += int64(spec.sc.Iterations)
		}
		// Only the latest run stays reachable, so the live heap measured
		// below holds one run however many fit in the phase.
		ph.last = r
		ph.n++
		setup = append(setup, (r.build + r.attach).Seconds())
		setup = append(setup, setupSamples(b, spec, setupsPerRun)...)
		iters = append(iters, r.iterMS...)
		cal := stats.Median(r.calMS)
		cals = append(cals, cal)
		for _, v := range r.iterMS {
			itersCal = append(itersCal, v/cal)
		}
		train += r.train
		trainCal += ms(r.train) / cal
		events += r.events
		windows += r.windows
		b.recordExact(r)
	}
	if ph.last == nil {
		return ph
	}
	last := ph.last
	// Live heap with the last cluster still reachable: what the
	// simulator and monitor hold for a run of this scenario.
	runtime.GC()
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	runtime.KeepAlive(last.cluster)

	q := last.quality()
	ph.e2e["setup_s"] = stats.Median(setup)
	ph.e2e["op_cal_p50"] = stats.Quantile(itersCal, 1, 2)
	ph.e2e["op_cal_p90"] = stats.Quantile(itersCal, 9, 10)
	ph.e2e["windows_per_cal"] = float64(windows) / trainCal
	ph.e2e["heap_live_mb"] = float64(mst.HeapAlloc) / (1 << 20)
	ph.e2e["detect_sim_us"] = q.detectSimUS
	ph.e2e["alert_precision"] = q.precision()
	ph.extra["fault_recall"] = metric{q.recall(), "ratio"}

	ph.extra["iter_ms_p50"] = metric{stats.Quantile(iters, 1, 2), "ms"}
	ph.extra["iter_ms_p90"] = metric{stats.Quantile(iters, 9, 10), "ms"}
	ph.extra["iter_ms_p10"] = metric{stats.Quantile(iters, 1, 10), "ms"}
	ph.extra["windows_per_s"] = metric{float64(windows) / train.Seconds(), "1/s"}
	ph.extra["cal_ms"] = metric{stats.Median(cals), "ms"}
	ph.extra["train_ms_per_iter"] = metric{ms(train) / float64(len(iters)), "ms"}
	ph.extra["iter_samples"] = metric{float64(len(iters)), "count"}
	ph.extra["sim_events_per_s"] = metric{float64(events) / train.Seconds(), "1/s"}
	ph.extra["failed_frac"] = metric{float64(b.failed) / float64(max(b.attempted, 1)), "ratio"}
	ph.extra["false_alerts"] = metric{float64(q.total - q.onPort), "count"}
	ph.extra["missed_fault_iters"] = metric{float64(q.faultyIters - q.hitIter), "count"}
	if spec.mon.Remediate != nil {
		innocent := 0
		for _, a := range last.timeline {
			if a.Kind == remediate.ActionQuarantine && a.Link != last.link {
				innocent++
			}
		}
		qAt, _ := last.firstAction(remediate.ActionQuarantine)
		ph.extra["quarantine_sim_us"] = metric{simUS(qAt - last.onset), "sim_us"}
		ph.extra["recovery_sim_us"] = metric{simUS(sim.Time(last.goodput.RecoveryTime)), "sim_us"}
		ph.extra["post_goodput_frac"] = metric{last.goodput.Post / last.goodput.Baseline, "ratio"}
		ph.extra["innocent_quarantines"] = metric{float64(innocent), "count"}
	}
	return ph
}

// A simulated workload times set-ups (build and attach, no training)
// besides the one of each training run: setupsBefore before its timed
// phase and setupsPerRun after each run. A set-up takes milliseconds, so
// one per training run would leave the median of a handful of samples,
// and spreading them over the phase keeps a passing slow spell of the
// host from setting the median.
const (
	setupsBefore = 8
	setupsPerRun = 4
)

func setupSamples(b *bench, spec simSpec, n int) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		c, err := fp.New(spec.sc)
		if err != nil {
			b.fail("%s: build: %v", spec.name, err)
			return out
		}
		cfg := spec.mon
		cfg.TraceSink = bytes.NewBuffer(make([]byte, 0, 1<<20))
		cfg.TraceLabel = spec.name
		_, err = c.Monitor(cfg)
		out = append(out, time.Since(t0).Seconds())
		c.Close()
		if err != nil {
			b.fail("%s: attach: %v", spec.name, err)
			return out
		}
	}
	return out
}

// recordExact checks a run's deterministic counts against every earlier
// run of the same scenario in this invocation.
func (b *bench) recordExact(r *simRun) {
	p := r.spec.name + "."
	iters := uint64(r.spec.sc.Iterations)
	q := r.quality()
	b.exactly(p+"events", r.events)
	b.exactly(p+"packets", r.net.Sent)
	b.exactly(p+"fault_dropped", r.net.FaultDropped)
	b.exactly(p+"retransmits", r.tp.Retransmits)
	b.exactly(p+"windows", r.windows)
	b.exactly(p+"alerts", len(r.alerts))
	b.exactly(p+"recording_bytes", len(r.rec))
	b.exactly(p+"fingerprint", r.fingerprint)
	// Allocation counts are not exact: they move by a few dozen in a
	// few hundred thousand between runs of one seed (map growth follows
	// the per-process hash seed), so they are held to 0.1%.
	b.near(p+"allocs_per_iter", float64(r.mallocs)/float64(iters), 1e-3)
	b.near(p+"alloc_bytes_per_iter", float64(r.allocBytes)/float64(iters), 1e-3)
	b.exactly(p+"detect_sim_us", q.detectSimUS)
	b.exactly(p+"timeline", len(r.timeline))
	if qAt, ok := r.firstAction(remediate.ActionQuarantine); ok {
		b.exactly(p+"quarantine_sim_us", simUS(qAt-r.onset))
		b.exactly(p+"recovery_sim_us", simUS(sim.Time(r.goodput.RecoveryTime)))
	}
}

// runSimWorkload drives ring-detect or replan-loop. Untraced, the whole
// budget is one timed phase. Traced, the budget splits into an untraced
// and a traced half, whose end-to-end metrics give the tracing overhead,
// followed by the off-line per-layer re-drives.
func runSimWorkload(b *bench, spec simSpec) {
	if !b.traced {
		ph := runSimPhase(b, spec, b.seconds)
		b.setE2E(ph.e2e)
		b.extra = ph.extra
		return
	}
	plain := runSimPhase(b, spec, b.seconds/2)
	// The untraced half's last run would otherwise stay reachable and
	// count in the traced half's live heap.
	plain.last = nil
	b.tr.start(simSpans)
	traced := runSimPhase(b, spec, b.seconds/2)
	b.tr.on = false
	b.setE2E(plain.e2e)
	b.extra = plain.extra
	for k, v := range plain.e2e {
		b.overhead[k] = [2]float64{v, traced.e2e[k]}
	}
	if traced.last == nil {
		return
	}
	last := traced.last
	lay := newLayers(b)
	lay.fromRun(last)
	lay.offline(spec, []*simRun{last})
}

// simSpans bounds the spans of a traced simulated half: a few dozen per
// run of a few seconds.
const simSpans = 1 << 10

func runRingDetect(b *bench) { runSimWorkload(b, ringSpec(b.seed)) }
func runReplanLoop(b *bench) { runSimWorkload(b, replanSpec(b.seed)) }

// e2eUnits fixes each end-to-end metric's unit. Host time is given in
// calibration passes ("cal", see calib.go).
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"op_cal_p50":      "cal",
	"op_cal_p90":      "cal",
	"windows_per_cal": "1/cal",
	"heap_live_mb":    "MB",
	"detect_sim_us":   "sim_us",
	"alert_precision": "ratio",
}

func (b *bench) setE2E(vals map[string]float64) {
	for k, v := range vals {
		b.e2e[k] = metric{v, e2eUnits[k]}
	}
}
