package fabric

import (
	"fmt"
	"math"

	"flowpulse/internal/fault"
	"flowpulse/internal/sim"
	"flowpulse/internal/topology"
)

// Direction selects one or both directions of a bidirectional link.
type Direction uint8

const (
	// DirAtoB is the direction from the link's A endpoint to its B
	// endpoint (topology.Link field order).
	DirAtoB Direction = iota
	// DirBtoA is the reverse direction.
	DirBtoA
	// DirBoth selects both directions.
	DirBoth
)

// serTimer is a linkDir's resident serialization-done callback. A
// direction serializes at most one frame at a time, so one pre-bound
// timer per direction replaces the per-frame closure the transmitter
// used to allocate; kick stamps size/prio before each rearm.
type serTimer struct {
	n    *Network
	ld   *linkDir
	size int
	prio int
}

// Fire completes the frame on the wire and restarts the transmitter.
func (t *serTimer) Fire(now sim.Time) {
	ld := t.ld
	ld.busy = false
	ld.inflight[t.prio] = 0
	ld.addRecent(now, t.size, t.prio, &ld.sendD.decay)
	t.n.kick(ld)
}

// arrivalTimer carries one in-flight packet across a link direction's
// propagation delay. Instances are pooled on the Network (a direction
// can have many frames propagating at once, so unlike serTimer they
// cannot be resident per direction).
type arrivalTimer struct {
	n  *Network
	ld *linkDir
	p  *Packet
}

// Fire lands the packet at the far end and returns the timer to the
// receiver domain's pool (it fires on the receiver's engine).
func (t *arrivalTimer) Fire(now sim.Time) {
	n, ld, p := t.n, t.ld, t.p
	t.ld, t.p = nil, nil
	ld.recvD.freeArrivals = append(ld.recvD.freeArrivals, t)
	n.arrive(ld, p, now)
}

// linkDir is one direction of a link: the sender-side transmitter
// (priority queues, serialization, PFC pause state) plus the fault
// process and delivery stats for that direction.
type linkDir struct {
	link     *linkState
	sender   topology.Endpoint
	receiver topology.Endpoint
	rate     int64
	prop     sim.Duration

	// sendD/recvD are the partition domains of the two endpoints (the
	// single shared domain in legacy mode). The sender's domain owns
	// the transmitter state and the sent* counters; the receiver's
	// domain owns the fault process and the delivered*/dropped*
	// counters — disjoint field sets, so the direction needs no lock.
	// crossDom marks directions whose arrival must be posted through
	// the group barrier.
	sendD    *domainState
	recvD    *domainState
	crossDom bool

	flt fault.Model // nil when healthy

	// ecnRNG drives probabilistic CE marking on this direction's egress
	// queue; nil unless Config.ECN is enabled and the sender is a
	// switch. ceMarked counts marks (sender-domain owned, like sent*).
	ecnRNG   *sim.RNG
	ceMarked uint64

	queues [numPriorities]fifo
	busy   bool
	paused [numPriorities]bool

	ser serTimer // resident serialization-done timer

	// Adaptive-routing load estimate: bytes of the frame on the wire
	// plus an exponentially decaying count of recently transmitted
	// bytes. Hardware APS grades ports by utilization, not just
	// instantaneous queue depth; without this memory, back-to-back
	// packets always see empty queues and "least loaded" degenerates
	// to uniform random spraying (see spray package ablation).
	//
	// The estimate is kept per priority class, and a packet's spray
	// decision sees only its own and higher classes. This is what
	// makes §5.1's prioritization actually isolate the measured
	// collective: without class separation, background load that is
	// asymmetric across ports (e.g. because a known fault removes a
	// port from some destinations' spray sets) systematically pushes
	// the collective's packets the other way, breaking the load model.
	inflight     [numPriorities]int64
	inflightPrio int
	recent       [numPriorities]float64
	recentAt     [numPriorities]sim.Time

	// Wire accounting. Every frame that starts serializing increments
	// sent; on landing it increments exactly one of delivered,
	// faultDropped, or adminDropped — the per-direction conservation
	// identity AuditConservation checks after a run drains.
	sent              uint64
	sentBytes         uint64
	delivered         uint64
	deliveredBytes    uint64
	faultDropped      uint64
	faultDroppedBytes uint64
	adminDropped      uint64
	adminDroppedBytes uint64
}

func (ld *linkDir) queuedBytes() int64 {
	var total int64
	for i := range ld.queues {
		total += ld.queues[i].byteLen()
	}
	return total
}

// load returns the spray metric this port shows to a packet of the
// given priority: queued + in-flight + decayed recent bytes of that
// class and every stricter class. The decay factors come from the
// sender domain's memo m; m.tau <= 0 disables the memory term.
func (ld *linkDir) load(now sim.Time, m *decayMemo, prio int) int64 {
	var total int64
	for p := 0; p <= prio; p++ {
		if ld.recent[p] > 0 {
			if m.tau <= 0 {
				ld.recent[p] = 0
			} else if now > ld.recentAt[p] {
				ld.recent[p] *= m.factor(p, float64(now-ld.recentAt[p]))
				ld.recentAt[p] = now
				if ld.recent[p] < 1 {
					ld.recent[p] = 0
				}
			}
		}
		total += ld.queues[p].byteLen() + ld.inflight[p] + int64(ld.recent[p])
	}
	return total
}

func (ld *linkDir) addRecent(now sim.Time, size, prio int, m *decayMemo) {
	if m.tau <= 0 {
		return
	}
	if ld.recent[prio] > 0 && now > ld.recentAt[prio] {
		ld.recent[prio] *= m.factor(prio, float64(now-ld.recentAt[prio]))
	}
	ld.recent[prio] += float64(size)
	ld.recentAt[prio] = now
}

// linkState is the dynamic state of one cable.
type linkState struct {
	topo    *topology.Link
	adminUp bool
	dirs    [2]linkDir // index by DirAtoB / DirBtoA
}

// LinkDirStats reports per-direction wire counters, used by tests, the
// simulation-based predictor, and the conservation oracle. Sent counts
// frames that started serializing onto the wire; each lands as exactly
// one of Delivered, FaultDropped, or AdminDropped.
type LinkDirStats struct {
	Sent              uint64
	SentBytes         uint64
	Delivered         uint64
	DeliveredBytes    uint64
	FaultDropped      uint64
	FaultDroppedBytes uint64
	AdminDropped      uint64
	AdminDroppedBytes uint64
	CEMarked          uint64
}

// DirToward resolves the Direction of a link whose receiver is the
// given switch. It panics if the switch is not an endpoint of the
// link.
func (n *Network) DirToward(link topology.LinkID, receiver topology.SwitchID) Direction {
	l := n.topo.Link(link)
	if l.B.Kind == topology.SwitchEnd && l.B.Switch == receiver {
		return DirAtoB
	}
	if l.A.Kind == topology.SwitchEnd && l.A.Switch == receiver {
		return DirBtoA
	}
	panic(fmt.Sprintf("fabric: switch %d not on link %d", receiver, link))
}

// DirTowardHost resolves the Direction of a link whose receiver is the
// given host.
func (n *Network) DirTowardHost(link topology.LinkID, receiver topology.HostID) Direction {
	l := n.topo.Link(link)
	if l.B.Kind == topology.HostEnd && l.B.Host == receiver {
		return DirAtoB
	}
	if l.A.Kind == topology.HostEnd && l.A.Host == receiver {
		return DirBtoA
	}
	panic(fmt.Sprintf("fabric: host %d not on link %d", receiver, link))
}

// InjectFault attaches a silent fault process to the given direction(s)
// of a link. The FIB is deliberately NOT updated: the fault is silent,
// so routing keeps using the link. Passing nil clears the fault.
func (n *Network) InjectFault(link topology.LinkID, dir Direction, m fault.Model) {
	ls := &n.links[link]
	switch dir {
	case DirAtoB:
		ls.dirs[0].flt = m
	case DirBtoA:
		ls.dirs[1].flt = m
	case DirBoth:
		ls.dirs[0].flt = m
		ls.dirs[1].flt = m
	}
}

// ClearFault removes any silent fault from both directions of a link.
func (n *Network) ClearFault(link topology.LinkID) {
	n.InjectFault(link, DirBoth, nil)
}

// SetLinkAdmin marks a link administratively up or down and reconverges
// every FIB, exactly as a switch OS removing a *detected* faulty link
// from routing (§1). Packets already in flight on a downed link are
// dropped and counted as AdminDropped.
func (n *Network) SetLinkAdmin(link topology.LinkID, up bool) {
	if n.links[link].adminUp == up {
		return
	}
	n.links[link].adminUp = up
	n.fibRecomputes++
	n.recomputeFIBs()
}

// DisconnectLink administratively removes a link from routing — the
// quarantine half of the remediation loop. Idempotent.
func (n *Network) DisconnectLink(link topology.LinkID) { n.SetLinkAdmin(link, false) }

// ReconnectLink is the exact inverse of DisconnectLink: the link
// rejoins every spray set and the FIB reconverges to the pre-disconnect
// state (the FIB recomputation is a pure function of the administrative
// link predicate, so a disconnect/reconnect round trip is byte-identical
// — reconnect_test.go pins this). Idempotent.
func (n *Network) ReconnectLink(link topology.LinkID) { n.SetLinkAdmin(link, true) }

// FIBRecomputes counts administrative link transitions that forced a
// full FIB recomputation — the remediation experiments' churn metric.
// The initial convergence at construction is not counted.
func (n *Network) FIBRecomputes() uint64 { return n.fibRecomputes }

// ProbeLink sends one probe frame over a single direction of a link
// and reports, after the frame's serialization and propagation delay,
// whether it survived the direction's fault process. The probe is a
// link-local OAM frame (BFD-style): it bypasses the forwarding plane
// entirely — not routed, not sprayed, never seen by ingress telemetry
// — so probing cannot disturb the temporal symmetry of the measured
// collective. It works on administratively-down links; that is the
// point: quarantined links are probed for re-admission while routing
// ignores them.
//
// The probe consults the same fault process as data frames (advancing
// its RNG stream), so a probabilistic fault is sampled exactly as the
// data path would sample it.
//
// In sharded mode probes run on the control engine and may only target
// administratively-down links: a downed link's fault process is never
// touched by the data path (arrivals drop on the admin check first),
// so control owns it for the duration of the quarantine.
func (n *Network) ProbeLink(link topology.LinkID, dir Direction, size int, onResult func(now sim.Time, delivered bool)) {
	if dir == DirBoth {
		panic("fabric: ProbeLink needs a single direction")
	}
	if size <= 0 {
		panic(fmt.Sprintf("fabric: non-positive probe size %d", size))
	}
	ld := &n.links[link].dirs[dir]
	n.doms[0].stats.ProbesSent++
	delay := sim.SerializationDelay(size, ld.rate) + ld.prop
	n.engine.After(delay, func(now sim.Time) {
		delivered := ld.flt == nil || ld.flt.Apply(now, size) == fault.Deliver
		if !delivered {
			n.doms[0].stats.ProbesLost++
		}
		if onResult != nil {
			onResult(now, delivered)
		}
	})
}

// LinkAdminUp reports the administrative state of a link.
func (n *Network) LinkAdminUp(link topology.LinkID) bool { return n.links[link].adminUp }

// LinkStats returns delivery counters for one direction of a link.
func (n *Network) LinkStats(link topology.LinkID, dir Direction) LinkDirStats {
	if dir == DirBoth {
		panic("fabric: LinkStats needs a single direction")
	}
	ld := &n.links[link].dirs[dir]
	return LinkDirStats{
		Sent: ld.sent, SentBytes: ld.sentBytes,
		Delivered: ld.delivered, DeliveredBytes: ld.deliveredBytes,
		FaultDropped: ld.faultDropped, FaultDroppedBytes: ld.faultDroppedBytes,
		AdminDropped: ld.adminDropped, AdminDroppedBytes: ld.adminDroppedBytes,
		CEMarked: ld.ceMarked,
	}
}

// decayMemo caches the spray-memory decay factor exp(-dt/tau) per
// priority class. After a spray pick every candidate port of a switch
// carries the same recentAt, so the next pick usually asks for the same
// dt once per candidate; a hit returns the factor math.Exp produced for
// exactly those inputs, so the estimate is bit-identical to computing
// it afresh. Each domainState owns one memo (domains run concurrently).
// Entries are per class because one load call decays every class up to
// its own, so lookups for different classes interleave.
type decayMemo struct {
	tau float64                // time constant in picoseconds; <= 0 disables decay
	dt  [numPriorities]float64 // last dt per class; NaN until first use
	f   [numPriorities]float64 // exp(-dt/tau) for that dt
}

// newDecayMemo returns an empty memo. Every dt starts as NaN, which
// compares unequal to everything, so the first lookup per class always
// computes.
func newDecayMemo(tau float64) decayMemo {
	m := decayMemo{tau: tau}
	for i := range m.dt {
		m.dt[i] = math.NaN()
	}
	return m
}

// factor returns exp(-dt/tau) for one priority class.
func (m *decayMemo) factor(prio int, dt float64) float64 {
	if dt != m.dt[prio] {
		m.dt[prio] = dt
		m.f[prio] = math.Exp(-dt / m.tau)
	}
	return m.f[prio]
}
