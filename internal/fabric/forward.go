package fabric

import (
	"fmt"

	"flowpulse/internal/fault"
	"flowpulse/internal/sim"
	"flowpulse/internal/spray"
	"flowpulse/internal/topology"
)

// SendSpec describes one packet to inject at its source host's NIC.
type SendSpec struct {
	Src, Dst topology.HostID
	Size     int
	Priority Priority
	Kind     PacketKind
	Tag      FlowTag
	Msg      uint64
	Seq      int
	Retx     bool
	// CE seeds Packet.CE: ACKs echo the acknowledged data copy's
	// congestion mark here so the sender's rate limiter learns of
	// queue buildup (data packets are marked by switches, not senders).
	CE bool
	// Stamp seeds Packet.Stamp (ACKs echo the acknowledged copy's
	// wire-out time here; data packets are stamped at NIC dequeue).
	Stamp sim.Time
	// Ctx rides along on the packet for the receiving endpoint
	// (immutable after Send). The sharded transport uses it to carry
	// message metadata across domains without a sender-side map lookup.
	Ctx any
}

// Send injects a packet at the source host's NIC queue. The NIC
// serializes onto the host-leaf link at line rate and honours PFC
// pauses from the leaf, so injection is asynchronous: delivery (or
// loss) is observed via the destination's Receiver and the transport's
// timers.
func (n *Network) Send(spec SendSpec) {
	if spec.Size <= 0 {
		panic(fmt.Sprintf("fabric: non-positive packet size %d", spec.Size))
	}
	hs := &n.hosts[spec.Src]
	p := n.allocPacket(hs.d)
	p.Src, p.Dst = spec.Src, spec.Dst
	p.Size = spec.Size
	p.Priority = spec.Priority
	p.Kind = spec.Kind
	p.Tag = spec.Tag
	p.Msg, p.Seq, p.Retx = spec.Msg, spec.Seq, spec.Retx
	p.CE = spec.CE
	p.Stamp = spec.Stamp
	p.Ctx = spec.Ctx

	hs.d.stats.Sent++
	hs.d.stats.SentBytes += uint64(spec.Size)
	if TracePacket != nil {
		TracePacket(hs.d.eng.Now(), "inject", topology.Endpoint{Kind: topology.HostEnd, Host: spec.Src}, p)
	}

	hs.egress.queues[p.Priority].push(p)
	n.kick(hs.egress)
}

// kick starts the transmitter of a link direction if it is idle and
// has eligible work. Strict priority: High drains before Low; a paused
// priority is skipped (that is PFC).
func (n *Network) kick(ld *linkDir) {
	if ld.busy {
		return
	}
	var p *Packet
	for prio := 0; prio < numPriorities; prio++ {
		if ld.paused[prio] {
			continue
		}
		if q := &ld.queues[prio]; q.len() > 0 {
			p = q.pop()
			break
		}
	}
	if p == nil {
		return
	}

	// The packet has left the sender's buffer: release PFC credit, or
	// tell the owning NIC its frame hit the wire (transports time
	// retransmission from this instant, as NIC hardware does).
	eng := ld.sendD.eng
	if p.inSwitch {
		n.releaseCredit(p)
	} else if ld.sender.Kind == topology.HostEnd {
		if TracePacket != nil {
			TracePacket(eng.Now(), "wireout", ld.sender, p)
		}
		if cb := n.hosts[ld.sender.Host].onDequeue; cb != nil {
			cb(eng.Now(), p)
		}
	}

	ld.busy = true
	ld.sent++
	ld.sentBytes += uint64(p.Size)
	prio := int(p.Priority)
	ld.inflight[prio] = int64(p.Size)
	ld.inflightPrio = prio
	ser := sim.SerializationDelay(p.Size, ld.rate)
	// Zero-alloc scheduling: rearm the direction's resident
	// serialization timer and a pooled arrival timer instead of two
	// fresh closures per hop. The two events are scheduled in the same
	// order as the closures they replace, preserving same-instant
	// tie-breaking and therefore bitwise determinism.
	ld.ser.size = p.Size
	ld.ser.prio = prio
	eng.AfterTimer(ser, &ld.ser)
	at := n.allocArrival(ld.sendD)
	at.ld, at.p = ld, p
	if ld.crossDom {
		// Cross-domain hop: hand the arrival through the group
		// barrier. The landing time is at least prop >= lookahead past
		// now, so the strict post contract holds by construction.
		n.grp.PostTimer(ld.sendD.dom, ld.recvD.dom, eng.Now().Add(ser+ld.prop), at)
	} else {
		eng.AfterTimer(ser+ld.prop, at)
	}
}

// arrive lands a packet at the far end of a link direction, applying
// the direction's silent fault process. A faulted packet vanishes
// without touching any counter a switch OS could see — only FlowPulse's
// volume accounting can notice the deficit.
func (n *Network) arrive(ld *linkDir, p *Packet, now sim.Time) {
	if TracePacket != nil {
		TracePacket(now, "arrive", ld.receiver, p)
	}
	if !ld.link.adminUp {
		ld.recvD.stats.AdminDropped++
		ld.adminDropped++
		ld.adminDroppedBytes += uint64(p.Size)
		n.freePacket(ld.recvD, p)
		return
	}
	if ld.flt != nil && ld.flt.Apply(now, p.Size) == fault.Drop {
		ld.recvD.stats.FaultDropped++
		ld.faultDropped++
		ld.faultDroppedBytes += uint64(p.Size)
		n.freePacket(ld.recvD, p)
		return
	}
	ld.delivered++
	ld.deliveredBytes += uint64(p.Size)

	switch ld.receiver.Kind {
	case topology.HostEnd:
		n.deliver(ld.receiver.Host, p, now)
	case topology.SwitchEnd:
		n.switchReceive(ld.receiver.Switch, ld.receiver.Port, p, now)
	}
}

func (n *Network) deliver(h topology.HostID, p *Packet, now sim.Time) {
	hs := &n.hosts[h]
	hs.d.stats.Delivered++
	hs.d.stats.DeliveredBytes += uint64(p.Size)
	if recv := hs.recv; recv != nil {
		recv(now, p)
	}
	n.freePacket(hs.d, p)
}

// switchReceive runs the switch pipeline: PFC ingress accounting, the
// telemetry hook, the forwarding decision, and egress enqueue.
func (n *Network) switchReceive(sw topology.SwitchID, port int, p *Packet, now sim.Time) {
	ss := &n.switches[sw]

	// PFC ingress accounting: the packet holds buffer credit on its
	// ingress port until it is dequeued for transmission.
	p.ingressSwitch, p.ingressPort, p.inSwitch = sw, port, true
	prio := int(p.Priority)
	ss.occ[port][prio] += int64(p.Size)
	if ss.occ[port][prio] > n.cfg.XoffBytes && !ss.pausedUp[port][prio] {
		ss.pausedUp[port][prio] = true
		n.pauseUpstream(ss, port, prio, true)
	}

	// Local delivery: destination host hangs off this switch. The
	// egress port — and hence the CE decision — is known before the
	// ingress hooks run, so mark first: the monitor is an ingress
	// observer, and the last-hop host-port queue is exactly where
	// incast builds. A mark applied after the hooks would be invisible
	// to the measurement plane, which on real hardware taps the
	// pipeline after the MMU's ECN stage.
	localPort := -1
	dstLeafOrd := n.fib.hostDstLeaf[p.Dst]
	if ss.kind == topology.Leaf && ss.ord == dstLeafOrd {
		localPort = n.topo.Host(p.Dst).LeafPort
		n.markECN(ss.egress[localPort], p)
	}

	for _, hook := range n.ingressHooks[sw] {
		hook(now, port, p)
	}

	if localPort >= 0 {
		eg := ss.egress[localPort]
		eg.queues[prio].push(p)
		n.kick(eg)
		return
	}

	cands := n.fib.candidates(ss, dstLeafOrd)
	if len(cands) == 0 {
		ss.d.stats.RouteDropped++
		ss.d.stats.RouteDroppedBytes += uint64(p.Size)
		n.releaseCredit(p)
		n.freePacket(ss.d, p)
		return
	}

	var egressPort int
	if len(cands) == 1 {
		egressPort = int(cands[0])
	} else {
		ss.cands = ss.cands[:0]
		for _, c := range cands {
			ss.cands = append(ss.cands, spray.Candidate{Port: int(c), QueueBytes: ss.egress[c].load(now, &ss.d.decay, prio)})
		}
		pick := ss.policy.Pick(ss.cands, p.FlowKey())
		egressPort = ss.cands[pick].Port
	}

	eg := ss.egress[egressPort]
	n.markECN(eg, p)
	eg.queues[prio].push(p)
	if MaxQueueObserver != nil {
		MaxQueueObserver(now, eg.sender, eg.queuedBytes())
	}
	n.kick(eg)
}

// markECN applies RED-style CE marking at a switch egress enqueue:
// below KMin nothing is marked, above KMax every data packet is,
// between the two the probability ramps linearly up to PMax. The queue
// depth is the packet's own class including the arriving frame, so an
// incast burst sees its own buildup immediately. Disabled networks
// never reach the RNG (the per-direction streams are not even
// allocated), keeping runs byte-identical to pre-ECN builds.
func (n *Network) markECN(ld *linkDir, p *Packet) {
	if !n.cfg.ECN.Enabled || p.Kind != Data {
		return
	}
	depth := ld.queues[p.Priority].byteLen() + int64(p.Size)
	if depth <= n.cfg.ECN.KMinBytes {
		return
	}
	if depth >= n.cfg.ECN.KMaxBytes {
		p.CE = true
	} else {
		frac := float64(depth-n.cfg.ECN.KMinBytes) / float64(n.cfg.ECN.KMaxBytes-n.cfg.ECN.KMinBytes)
		if !ld.ecnRNG.Bernoulli(n.cfg.ECN.PMax * frac) {
			return
		}
		p.CE = true
	}
	ld.sendD.stats.CEMarked++
	ld.ceMarked++
}

// releaseCredit returns a packet's PFC buffer credit to its ingress
// port, resuming the upstream transmitter if occupancy fell below Xon.
func (n *Network) releaseCredit(p *Packet) {
	if !p.inSwitch {
		return
	}
	ss := &n.switches[p.ingressSwitch]
	prio := int(p.Priority)
	ss.occ[p.ingressPort][prio] -= int64(p.Size)
	p.inSwitch = false
	if ss.pausedUp[p.ingressPort][prio] && ss.occ[p.ingressPort][prio] < n.cfg.XonBytes {
		ss.pausedUp[p.ingressPort][prio] = false
		n.pauseUpstream(ss, p.ingressPort, prio, false)
	}
}

// pauseUpstream delivers a PFC pause or resume frame to the
// transmitter feeding the given ingress port. The frame crosses the
// link, so it takes one propagation delay to act.
func (n *Network) pauseUpstream(ss *switchState, port, prio int, pause bool) {
	down := ss.egress[port] // our egress on the same cable
	upstream := &down.link.dirs[0]
	if upstream == down {
		upstream = &down.link.dirs[1]
	}
	if pause {
		ss.d.stats.PFCPauses++
	}
	if TracePause != nil {
		TracePause(ss.d.eng.Now(), upstream.sender, prio, pause, ss.occ[port][prio])
	}
	pt := n.allocPause(ss.d)
	pt.upstream, pt.prio, pt.pause = upstream, prio, pause
	if upstream.sendD != ss.d {
		// The pause frame crosses a domain boundary (the upstream
		// transmitter is another switch); prop >= lookahead makes the
		// strict post legal.
		n.grp.PostTimer(ss.d.dom, upstream.sendD.dom, ss.d.eng.Now().Add(down.prop), pt)
	} else {
		ss.d.eng.AfterTimer(down.prop, pt)
	}
}

// pauseTimer delivers one PFC pause/resume frame after the link's
// propagation delay. Pooled on the Network like arrivalTimer: several
// pause frames can be in flight at once.
type pauseTimer struct {
	n        *Network
	upstream *linkDir
	prio     int
	pause    bool
}

// Fire applies the pause state at the upstream transmitter. It runs on
// the upstream sender's engine, so the timer is returned to that
// domain's pool.
func (t *pauseTimer) Fire(_ sim.Time) {
	n, upstream, prio, pause := t.n, t.upstream, t.prio, t.pause
	t.upstream = nil
	upstream.sendD.freePauses = append(upstream.sendD.freePauses, t)
	upstream.paused[prio] = pause
	if !pause {
		n.kick(upstream)
	}
}
