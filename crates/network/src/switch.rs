//! Switch-side data structures: every output port of the fabric in flat
//! network-wide arrays, per-(class, VC) virtual output queues of
//! packet-slab handles, hop-indexed virtual channels, and credit-based
//! link-level flow control.
//!
//! ## Layout
//!
//! Output ports are numbered globally, switch-major, channels first and
//! then ejection ports (the network's `port_base` maps a switch to its
//! first port). A port's scalars are one small [`PortState`]; its VOQs
//! and its outstanding-credit counters sit in contiguous arrays indexed
//! `gport · n_tc · NUM_VCS + tc · NUM_VCS + vc`. A VOQ is a
//! [`HandleFifo`]: the packets stay in the [`PacketSlab`] from injection
//! to ack, and a hop moves only their `u32` handles, so no port owns a
//! heap allocation of its own.
//!
//! ## Virtual channels
//!
//! Credit-based flow control over a dragonfly can deadlock: saturated
//! input buffers can form a cyclic wait (packet A holds buffer 1 waiting
//! for buffer 2, held by B waiting for buffer 1). Like the real hardware,
//! we break the cycle with **virtual channels indexed by hop count**: a
//! packet that has crossed `h` switch-to-switch channels uses VC `h`. The
//! VC index strictly increases along any path and the highest VC can only
//! eject (the dragonfly diameter bounds paths to [`NUM_VCS`] crossings),
//! so the VC dependency order is acyclic.
//!
//! Buffers follow the dynamically-allocated-multi-queue design of real
//! switches: each channel's downstream input buffer is one **shared pool**
//! per traffic class, with a small **per-VC reserve** (one max packet)
//! carved out as an escape buffer. The reserve guarantees every VC can
//! always make eventual progress (deadlock freedom); the shared pool lets
//! a congestion tree consume nearly the whole buffer, so saturation still
//! propagates and delays bystanders exactly as measured on real networks
//! without endpoint congestion control.

use crate::slab::{HandleFifo, PacketSlab};
use slingshot_des::{SimDuration, SimTime};
use slingshot_qos::{QosScheduler, TrafficClassSet};
use slingshot_topology::{ChannelId, NodeId};

/// Virtual channels per traffic class: the longest route (Valiant:
/// local-global-local-global-local) crosses five channels.
pub const NUM_VCS: usize = 5;

/// What an output port drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortKind {
    /// A switch-to-switch channel.
    Channel(ChannelId),
    /// The ejection link toward a locally attached node.
    Eject(NodeId),
}

/// Per-VC escape reserve: one maximum-size packet on the wire.
pub const VC_RESERVE: u64 = 4224;

/// The scalar state of one output port.
#[derive(Clone, Copy, Debug)]
pub struct PortState {
    /// What this port drives; fixes its rate and downstream pool.
    pub kind: PortKind,
    /// Whether a packet is currently being serialized.
    pub busy: bool,
    /// Total wire bytes queued across classes (adaptive-routing signal).
    pub queued_wire: u64,
    /// Bytes sent and not yet credited back, over all classes and VCs
    /// (always 0 on an ejection port: the node drains, no credit returns).
    pub downstream: u64,
    /// Total wire bytes transmitted by this port (utilization statistics).
    pub tx_wire_bytes: u64,
    /// Propagation delay of the attached cable.
    pub prop: SimDuration,
}

// One port's scalars fit in 48 B: 222 904 ports of the 136-group system
// cost 10 MB of them.
const _: () = assert!(std::mem::size_of::<PortState>() <= 48);

/// The VC a packet uses given how many channels it has crossed.
#[inline]
pub fn vc_of(hops: u8) -> usize {
    (hops as usize).min(NUM_VCS - 1)
}

/// Every output port of a fabric: scalar state, per-(class, VC) handle
/// VOQs and outstanding-credit counters, all indexed by global port id.
pub struct Ports {
    /// Queues per port: `n_tc · NUM_VCS`.
    n_q: usize,
    /// Downstream input-buffer pool per class behind every channel port.
    pool: u64,
    /// Serialization rate of channel ports, bytes per second.
    link_bps: f64,
    /// Serialization rate of ejection ports, bytes per second.
    eject_bps: f64,
    /// The classes each port's scheduler arbitrates.
    classes: TrafficClassSet,
    state: Vec<PortState>,
    voqs: Vec<HandleFifo>,
    /// Per-(port, class, VC) bytes sent and not yet credited back,
    /// indexed like `voqs` (channel ports only).
    outstanding: Vec<u64>,
    /// One QoS scheduler per port when more than one class is
    /// configured; empty otherwise.
    sched: Vec<QosScheduler>,
}

impl Ports {
    /// An empty port table for `classes`, with room for `capacity` ports.
    /// Channel ports serialize at `link_bps` into a downstream pool of
    /// `pool` bytes per class; ejection ports at `eject_bps` into a node
    /// that always drains.
    pub fn new(
        classes: &TrafficClassSet,
        pool: u64,
        link_bps: f64,
        eject_bps: f64,
        capacity: usize,
    ) -> Self {
        let n_q = classes.len() * NUM_VCS;
        Ports {
            n_q,
            pool,
            link_bps,
            eject_bps,
            classes: classes.clone(),
            state: Vec::with_capacity(capacity),
            voqs: Vec::with_capacity(capacity * n_q),
            outstanding: Vec::with_capacity(capacity * n_q),
            sched: Vec::with_capacity(if classes.len() > 1 { capacity } else { 0 }),
        }
    }

    /// Append an idle, empty port and return its global id.
    pub fn push(&mut self, kind: PortKind, prop: SimDuration) -> u32 {
        let g = self.state.len() as u32;
        self.state.push(PortState {
            kind,
            busy: false,
            queued_wire: 0,
            downstream: 0,
            tx_wire_bytes: 0,
            prop,
        });
        self.voqs
            .resize(self.voqs.len() + self.n_q, HandleFifo::EMPTY);
        self.outstanding
            .resize(self.outstanding.len() + self.n_q, 0);
        if self.classes.len() > 1 {
            let rate = self.base_rate(kind);
            self.sched
                .push(QosScheduler::new(self.classes.clone(), rate));
        }
        g
    }

    /// Number of ports.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether the table holds no port.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Number of traffic classes every port serves.
    #[inline]
    pub fn n_tc(&self) -> usize {
        self.n_q / NUM_VCS
    }

    /// Scalar state of port `g`.
    #[inline]
    pub fn port(&self, g: u32) -> &PortState {
        &self.state[g as usize]
    }

    /// Mutable scalar state of port `g`.
    #[inline]
    pub fn port_mut(&mut self, g: u32) -> &mut PortState {
        &mut self.state[g as usize]
    }

    /// The healthy serialization rate of a port driving `kind`.
    #[inline]
    fn base_rate(&self, kind: PortKind) -> f64 {
        match kind {
            PortKind::Channel(_) => self.link_bps,
            PortKind::Eject(_) => self.eject_bps,
        }
    }

    /// Healthy serialization rate of port `g`, bytes per second.
    #[inline]
    pub fn rate(&self, g: u32) -> f64 {
        self.base_rate(self.state[g as usize].kind)
    }

    /// Serialization time of `wire` bytes on healthy port `g`.
    pub fn serialization(&self, g: u32, wire: u32) -> SimDuration {
        SimDuration::from_secs_f64(wire as f64 / self.rate(g))
    }

    /// First index of port `g`'s queues in the per-(port, class, VC)
    /// arrays.
    #[inline]
    fn base(&self, g: u32) -> usize {
        g as usize * self.n_q
    }

    /// Per-(class, VC) outstanding bytes of port `g`, indexed
    /// `tc · NUM_VCS + vc`.
    pub fn outstanding(&self, g: u32) -> &[u64] {
        let b = self.base(g);
        &self.outstanding[b..b + self.n_q]
    }

    /// Whether every VOQ of port `g` is empty.
    pub fn voqs_empty(&self, g: u32) -> bool {
        let b = self.base(g);
        self.voqs[b..b + self.n_q].iter().all(HandleFifo::is_empty)
    }

    /// Packets queued in `(tc, vc)` of port `g` (walks the list).
    #[cfg(test)]
    fn voq_len(&self, g: u32, tc: usize, vc: usize, slab: &PacketSlab) -> usize {
        self.voqs[self.base(g) + tc * NUM_VCS + vc].len(slab)
    }

    /// Load estimate used by adaptive routing: local queue plus downstream
    /// occupancy (the "request queue credits" signal of §II-A).
    #[inline]
    pub fn load_estimate(&self, g: u32) -> u64 {
        let p = &self.state[g as usize];
        p.queued_wire + p.downstream
    }

    /// Whether `wire` more bytes may be sent on `(tc, vc)` of port `g`
    /// given the downstream pool/reserve state (DAMQ admission rule):
    /// usage beyond the VC's reserve must fit in the shared region of the
    /// pool.
    fn admissible(&self, g: u32, tc: usize, vc: usize, wire: u64) -> bool {
        if matches!(self.state[g as usize].kind, PortKind::Eject(_)) {
            return true; // ejection: node always drains
        }
        let class = &self.outstanding(g)[tc * NUM_VCS..(tc + 1) * NUM_VCS];
        let o = class[vc];
        if o + wire <= VC_RESERVE {
            return true;
        }
        let shared_cap = self.pool.saturating_sub(NUM_VCS as u64 * VC_RESERVE);
        let shared_used: u64 = class.iter().map(|u| u.saturating_sub(VC_RESERVE)).sum();
        let extra = (o + wire).saturating_sub(VC_RESERVE) - o.saturating_sub(VC_RESERVE);
        shared_used + extra <= shared_cap
    }

    /// The head handle of `(tc, vc)` of port `g`.
    #[inline]
    fn head(&self, g: u32, tc: usize, vc: usize) -> Option<u32> {
        self.voqs[self.base(g) + tc * NUM_VCS + vc].front()
    }

    /// Whether the head of `(tc, vc)` can be transmitted.
    #[inline]
    fn head_eligible(&self, g: u32, tc: usize, vc: usize, slab: &PacketSlab) -> bool {
        self.head(g, tc, vc)
            .is_some_and(|h| self.admissible(g, tc, vc, slab[h].wire as u64))
    }

    /// Whether `(tc, vc)` of port `g` has a queued head that is *blocked*
    /// on downstream credits (telemetry's credit-stall signal: a packet
    /// wants the link but the DAMQ admission rule holds it back).
    #[inline]
    pub fn head_blocked(&self, g: u32, tc: usize, vc: usize, slab: &PacketSlab) -> bool {
        self.head(g, tc, vc)
            .is_some_and(|h| !self.admissible(g, tc, vc, slab[h].wire as u64))
    }

    /// The VC of class `tc` whose credit-eligible head is oldest.
    fn pick_vc(&self, g: u32, tc: usize, slab: &PacketSlab) -> Option<usize> {
        (0..NUM_VCS)
            .filter(|&vc| self.head_eligible(g, tc, vc, slab))
            .min_by_key(|&vc| slab[self.head(g, tc, vc).expect("eligible head exists")].born)
    }

    /// Pick the (class, VC) of port `g` to serve next, honouring credits
    /// and QoS. Within a class, the *oldest* credit-eligible head wins
    /// (age-based arbitration): VCs exist for deadlock avoidance, not
    /// bandwidth partitioning, so a packet queues behind everything that
    /// arrived before it regardless of VC — the behaviour that lets a deep
    /// transit backlog delay later traffic (tree saturation) exactly as a
    /// FIFO switch would, while a blocked VC never prevents another VC's
    /// head from using the link (work conservation keeps the escape order
    /// of the deadlock argument). Returns `None` when nothing is eligible.
    pub fn pick(&mut self, g: u32, now: SimTime, slab: &PacketSlab) -> Option<(usize, usize)> {
        debug_assert!(!self.state[g as usize].busy);
        if self.sched.is_empty() {
            return self.pick_vc(g, 0, slab).map(|vc| (0, vc));
        }
        let backlog = (0..self.n_tc())
            .filter(|&tc| (0..NUM_VCS).any(|vc| self.head_eligible(g, tc, vc, slab)))
            .fold(0u64, |mask, tc| mask | 1 << tc);
        let tc = self.sched[g as usize].pick(backlog, now)?;
        self.pick_vc(g, tc, slab).map(|vc| (tc, vc))
    }

    /// Dequeue the head handle of `(tc, vc)` of port `g`, reserving
    /// downstream buffer space and updating QoS accounting.
    pub fn take(&mut self, g: u32, tc: usize, vc: usize, now: SimTime, slab: &PacketSlab) -> u32 {
        let q = self.base(g) + tc * NUM_VCS + vc;
        let h = self.voqs[q].pop_front(slab).expect("take on empty queue");
        let wire = slab[h].wire as u64;
        let p = &mut self.state[g as usize];
        p.queued_wire -= wire;
        p.tx_wire_bytes += wire;
        if matches!(p.kind, PortKind::Channel(_)) {
            p.downstream += wire;
            self.outstanding[q] += wire;
        }
        if let Some(s) = self.sched.get_mut(g as usize) {
            s.on_served(tc, wire, now);
        }
        h
    }

    /// A downstream credit returned for `(tc, vc)` of port `g`. Returning
    /// more bytes than are outstanding is a credit **underflow** (an
    /// accounting bug): the counter saturates at zero instead of wrapping
    /// and `Err` carries the bytes that were actually outstanding, so the
    /// caller can surface a [`crate::SimError::CreditUnderflow`] naming
    /// this port, class and VC.
    pub fn credit_return(&mut self, g: u32, tc: usize, vc: usize, bytes: u32) -> Result<(), u64> {
        let q = self.base(g) + tc * NUM_VCS + vc;
        let before = self.outstanding[q];
        let after = before.saturating_sub(bytes as u64);
        self.outstanding[q] = after;
        self.state[g as usize].downstream -= before - after;
        if before >= bytes as u64 {
            Ok(())
        } else {
            Err(before)
        }
    }

    /// Enqueue packet `h` into its class/VC queue of port `g`.
    #[inline]
    pub fn enqueue(&mut self, g: u32, h: u32, slab: &mut PacketSlab) {
        let pkt = &slab[h];
        let q = self.base(g) + pkt.tc as usize * NUM_VCS + vc_of(pkt.route.hops);
        self.state[g as usize].queued_wire += pkt.wire as u64;
        self.voqs[q].push_back(h, slab);
    }

    /// Dequeue the next handle of port `g` in queue order (class, then
    /// VC, then FIFO), bypassing arbitration and credits: a dead port's
    /// buffers drain into the void one packet at a time.
    pub fn flush_next(&mut self, g: u32, slab: &PacketSlab) -> Option<u32> {
        let b = self.base(g);
        let h = self.voqs[b..b + self.n_q]
            .iter_mut()
            .find_map(|q| q.pop_front(slab))?;
        self.state[g as usize].queued_wire -= slab[h].wire as u64;
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{InSource, MessageId, Packet};
    use slingshot_des::DetRng;
    use slingshot_routing::{RouteState, Via};
    use slingshot_topology::SwitchId;
    use std::collections::VecDeque;

    fn test_packet(wire: u32, tc: u8, hops: u8) -> Packet {
        let mut route = RouteState::new(SwitchId(0), Via::Direct);
        route.hops = hops;
        Packet {
            msg: MessageId(0),
            src: NodeId(0),
            dst: NodeId(1),
            payload: wire.saturating_sub(62),
            wire,
            tc,
            routed: true,
            route,
            cur_source: InSource::Node(NodeId(0)),
            path_delay: SimDuration::ZERO,
            ep_depth: 0,
            born: SimTime::ZERO,
            chunk: 0,
            copy: 0,
            llr: 0,
            traced: false,
        }
    }

    fn classes(n_tc: usize) -> TrafficClassSet {
        match n_tc {
            1 => TrafficClassSet::single(),
            2 => TrafficClassSet::fig14(),
            _ => unreachable!("tests use one or two classes"),
        }
    }

    /// A table holding one port of `kind` (port 0).
    fn one_port(n_tc: usize, pool: u64, kind: PortKind) -> Ports {
        let mut ports = Ports::new(&classes(n_tc), pool, 25e9, 25e9, 1);
        ports.push(kind, SimDuration::from_ns(13));
        ports
    }

    fn port(n_tc: usize, pool: u64) -> Ports {
        one_port(n_tc, pool, PortKind::Channel(ChannelId(0)))
    }

    fn enqueue(p: &mut Ports, slab: &mut PacketSlab, pkt: Packet) -> u32 {
        let h = slab.insert(pkt);
        p.enqueue(0, h, slab);
        h
    }

    #[test]
    fn vc_assignment_clamps() {
        assert_eq!(vc_of(0), 0);
        assert_eq!(vc_of(4), 4);
        assert_eq!(vc_of(9), NUM_VCS - 1);
    }

    #[test]
    fn serialization_time() {
        let p = port(1, 1 << 20);
        // 25 GB/s → 40 ps per byte.
        assert_eq!(p.serialization(0, 1000).as_ps(), 40_000);
    }

    #[test]
    fn ports_own_no_heap_allocation_of_their_own() {
        // Growth is amortized over the whole table, and a single-class
        // fabric builds no schedulers.
        let mut p = Ports::new(&classes(1), 1 << 20, 25e9, 12.5e9, 3);
        for i in 0..3 {
            p.push(PortKind::Eject(NodeId(i)), SimDuration::ZERO);
        }
        assert_eq!((p.len(), p.sched.len()), (3, 0));
        assert_eq!(p.voqs.capacity(), 3 * NUM_VCS, "pre-sized VOQ array regrew");
        assert_eq!(p.rate(2), 12.5e9, "ejection rate comes from the kind");
    }

    #[test]
    fn buffer_exhaustion_gates_transmission() {
        // Pool: per-VC reserves plus a shared region of ~1.2 packets.
        let mut p = port(1, NUM_VCS as u64 * VC_RESERVE + 5000);
        let mut slab = PacketSlab::default();
        for _ in 0..3 {
            enqueue(&mut p, &mut slab, test_packet(4158, 0, 0));
        }
        // First packet fits the reserve, second spills into shared.
        let _ = p.take(0, 0, 0, SimTime::ZERO, &slab);
        let _ = p.take(0, 0, 0, SimTime::ZERO, &slab);
        // Third would need 4158 more shared bytes on top of 4092 used.
        assert_eq!(p.pick(0, SimTime::ZERO, &slab), None, "pool exhausted");
        p.credit_return(0, 0, 0, 4158).unwrap();
        assert!(
            p.pick(0, SimTime::ZERO, &slab).is_some(),
            "credit frees the head"
        );
    }

    #[test]
    fn reserve_guarantees_every_vc_progress() {
        // Saturate the shared pool entirely from vc1; vc0 must still be
        // admissible within its reserve (the escape buffer).
        let mut p = port(1, NUM_VCS as u64 * VC_RESERVE + 100_000);
        let mut slab = PacketSlab::default();
        for _ in 0..30 {
            enqueue(&mut p, &mut slab, test_packet(4158, 0, 1));
        }
        while let Some((tc, vc)) = p.pick(0, SimTime::ZERO, &slab) {
            let _ = p.take(0, tc, vc, SimTime::ZERO, &slab);
        }
        assert!(p.port(0).downstream > 100_000, "pool not saturated");
        enqueue(&mut p, &mut slab, test_packet(4158, 0, 0));
        assert_eq!(
            p.pick(0, SimTime::ZERO, &slab),
            Some((0, 0)),
            "escape reserve"
        );
    }

    #[test]
    fn oldest_eligible_head_wins_across_vcs() {
        let mut p = port(1, 1 << 20);
        let mut slab = PacketSlab::default();
        let mut old = test_packet(100, 0, 3);
        old.born = SimTime::from_ns(10);
        let mut young = test_packet(100, 0, 0);
        young.born = SimTime::from_ns(20);
        enqueue(&mut p, &mut slab, young);
        enqueue(&mut p, &mut slab, old);
        assert_eq!(
            p.pick(0, SimTime::ZERO, &slab),
            Some((0, 3)),
            "older vc3 head first"
        );
        let _ = p.take(0, 0, 3, SimTime::ZERO, &slab);
        assert_eq!(p.pick(0, SimTime::ZERO, &slab), Some((0, 0)));
    }

    #[test]
    fn blocked_old_vc_does_not_block_young_eligible_vc() {
        let mut p = port(1, NUM_VCS as u64 * VC_RESERVE);
        let mut slab = PacketSlab::default();
        let mut old = test_packet(4158, 0, 2);
        old.born = SimTime::from_ns(10);
        let mut young = test_packet(100, 0, 0);
        young.born = SimTime::from_ns(20);
        enqueue(&mut p, &mut slab, old);
        enqueue(&mut p, &mut slab, young);
        // Exhaust vc2's reserve; the shared region is zero-sized here.
        p.outstanding[2] = VC_RESERVE;
        assert_eq!(
            p.pick(0, SimTime::ZERO, &slab),
            Some((0, 0)),
            "work conservation"
        );
    }

    #[test]
    fn blocked_vc_does_not_starve_others() {
        // Zero shared region: each VC has only its reserve.
        let mut p = port(1, NUM_VCS as u64 * VC_RESERVE);
        let mut slab = PacketSlab::default();
        enqueue(&mut p, &mut slab, test_packet(100, 0, 2));
        enqueue(&mut p, &mut slab, test_packet(100, 0, 0));
        p.outstanding[2] = VC_RESERVE; // vc2 blocked downstream
        assert_eq!(p.pick(0, SimTime::ZERO, &slab), Some((0, 0)));
    }

    #[test]
    fn take_maintains_accounting() {
        let mut p = port(1, 1 << 20);
        let mut slab = PacketSlab::default();
        let first = enqueue(&mut p, &mut slab, test_packet(500, 0, 1));
        enqueue(&mut p, &mut slab, test_packet(300, 0, 1));
        assert_eq!(p.port(0).queued_wire, 800);
        assert_eq!(p.take(0, 0, 1, SimTime::ZERO, &slab), first);
        assert_eq!(p.port(0).queued_wire, 300);
        assert_eq!((p.outstanding(0)[1], p.port(0).downstream), (500, 500));
        p.credit_return(0, 0, 1, 500).unwrap();
        assert_eq!((p.outstanding(0)[1], p.port(0).downstream), (0, 0));
    }

    #[test]
    fn credit_underflow_reports_and_saturates() {
        let mut p = port(1, 1 << 20);
        let mut slab = PacketSlab::default();
        enqueue(&mut p, &mut slab, test_packet(500, 0, 1));
        let _ = p.take(0, 0, 1, SimTime::ZERO, &slab);
        // Returning more than is outstanding is an underflow: the counter
        // saturates at zero and the prior outstanding comes back in `Err`.
        assert_eq!(p.credit_return(0, 0, 1, 600), Err(500));
        assert_eq!((p.outstanding(0)[1], p.port(0).downstream), (0, 0));
        assert_eq!(p.credit_return(0, 0, 1, 1), Err(0));
    }

    #[test]
    fn load_estimate_includes_downstream() {
        let mut p = port(1, 1000);
        let mut slab = PacketSlab::default();
        assert_eq!(p.load_estimate(0), 0);
        enqueue(&mut p, &mut slab, test_packet(100, 0, 0));
        assert_eq!(p.load_estimate(0), 100);
        let _ = p.take(0, 0, 0, SimTime::ZERO, &slab);
        // Packet gone from the queue but its bytes are "downstream".
        assert_eq!(p.load_estimate(0), 100);
    }

    #[test]
    fn eject_port_has_no_downstream_pressure() {
        let mut p = one_port(1, 0, PortKind::Eject(NodeId(0)));
        let mut slab = PacketSlab::default();
        enqueue(&mut p, &mut slab, test_packet(100, 0, 3));
        assert_eq!(p.pick(0, SimTime::ZERO, &slab), Some((0, 3)));
        let _ = p.take(0, 0, 3, SimTime::ZERO, &slab);
        assert_eq!(p.port(0).downstream, 0);
        assert!(p.outstanding(0).iter().all(|&o| o == 0));
    }

    #[test]
    fn head_blocked_tracks_credit_starvation() {
        let mut p = port(1, NUM_VCS as u64 * VC_RESERVE);
        let mut slab = PacketSlab::default();
        enqueue(&mut p, &mut slab, test_packet(4158, 0, 2));
        assert!(!p.head_blocked(0, 0, 2, &slab));
        p.outstanding[2] = VC_RESERVE; // reserve gone, shared region is zero
        assert!(p.head_blocked(0, 0, 2, &slab));
        assert!(
            !p.head_blocked(0, 0, 0, &slab),
            "empty queue is not blocked"
        );
    }

    #[test]
    fn multi_tc_indexing() {
        let mut p = port(2, 1 << 20);
        let mut slab = PacketSlab::default();
        enqueue(&mut p, &mut slab, test_packet(100, 1, 2));
        assert_eq!(p.voq_len(0, 1, 2, &slab), 1);
        assert_eq!(p.pick(0, SimTime::ZERO, &slab), Some((1, 2)));
    }

    #[test]
    fn flush_drains_in_queue_order() {
        let mut p = port(2, 1 << 20);
        let mut slab = PacketSlab::default();
        let a = enqueue(&mut p, &mut slab, test_packet(100, 1, 0));
        let b = enqueue(&mut p, &mut slab, test_packet(200, 0, 2));
        let c = enqueue(&mut p, &mut slab, test_packet(300, 0, 2));
        let flushed: Vec<u32> = std::iter::from_fn(|| p.flush_next(0, &slab)).collect();
        assert_eq!(flushed, [b, c, a]);
        assert_eq!(p.port(0).queued_wire, 0);
        assert!(p.voqs_empty(0));
    }

    /// The port as it was before the handle VOQs: packets by value in one
    /// `VecDeque` per (class, VC), outstanding summed on demand (and, on an
    /// ejection port, counted but never read).
    struct RefPort {
        eject: bool,
        pool: u64,
        queues: Vec<VecDeque<Packet>>,
        outstanding: Vec<u64>,
        queued_wire: u64,
        sched: Option<QosScheduler>,
    }

    impl RefPort {
        fn admissible(&self, tc: usize, vc: usize, wire: u64) -> bool {
            if self.pool == 0 {
                return true;
            }
            let o = self.outstanding[tc * NUM_VCS + vc];
            if o + wire <= VC_RESERVE {
                return true;
            }
            let shared_cap = self.pool.saturating_sub(NUM_VCS as u64 * VC_RESERVE);
            let shared_used: u64 = (0..NUM_VCS)
                .map(|u| self.outstanding[tc * NUM_VCS + u].saturating_sub(VC_RESERVE))
                .sum();
            let extra = (o + wire).saturating_sub(VC_RESERVE) - o.saturating_sub(VC_RESERVE);
            shared_used + extra <= shared_cap
        }

        fn head_eligible(&self, tc: usize, vc: usize) -> bool {
            self.queues[tc * NUM_VCS + vc]
                .front()
                .is_some_and(|p| self.admissible(tc, vc, p.wire as u64))
        }

        fn head_blocked(&self, tc: usize, vc: usize) -> bool {
            self.queues[tc * NUM_VCS + vc]
                .front()
                .is_some_and(|p| !self.admissible(tc, vc, p.wire as u64))
        }

        fn load_estimate(&self) -> u64 {
            let held: u64 = if self.eject {
                0
            } else {
                self.outstanding.iter().sum()
            };
            self.queued_wire + held
        }

        fn pick(&mut self, now: SimTime) -> Option<(usize, usize)> {
            let pick_vc = |port: &RefPort, tc: usize| {
                (0..NUM_VCS)
                    .filter(|&vc| port.head_eligible(tc, vc))
                    .min_by_key(|&vc| port.queues[tc * NUM_VCS + vc].front().unwrap().born)
            };
            let n_tc = self.queues.len() / NUM_VCS;
            match self.sched.is_some() {
                false => pick_vc(self, 0).map(|vc| (0, vc)),
                true => {
                    let backlog = (0..n_tc)
                        .filter(|&tc| (0..NUM_VCS).any(|vc| self.head_eligible(tc, vc)))
                        .fold(0u64, |mask, tc| mask | 1 << tc);
                    let tc = self.sched.as_mut().unwrap().pick(backlog, now)?;
                    pick_vc(self, tc).map(|vc| (tc, vc))
                }
            }
        }

        fn take(&mut self, tc: usize, vc: usize, now: SimTime) -> Packet {
            let q = tc * NUM_VCS + vc;
            let pkt = self.queues[q].pop_front().unwrap();
            self.queued_wire -= pkt.wire as u64;
            self.outstanding[q] += pkt.wire as u64;
            if let Some(s) = &mut self.sched {
                s.on_served(tc, pkt.wire as u64, now);
            }
            pkt
        }

        fn credit_return(&mut self, tc: usize, vc: usize, bytes: u32) -> Result<(), u64> {
            let q = tc * NUM_VCS + vc;
            let before = self.outstanding[q];
            self.outstanding[q] = before.saturating_sub(bytes as u64);
            if before >= bytes as u64 {
                Ok(())
            } else {
                Err(before)
            }
        }

        fn enqueue(&mut self, pkt: Packet) {
            self.queued_wire += pkt.wire as u64;
            self.queues[pkt.tc as usize * NUM_VCS + vc_of(pkt.route.hops)].push_back(pkt);
        }
    }

    /// Drive one handle-VOQ port and one reference port through the same
    /// random enqueue / pick+take / credit sequence and compare every
    /// observable after each step.
    fn model_check(n_tc: usize, eject: bool, seed: u64) {
        let pool = if eject {
            0
        } else {
            NUM_VCS as u64 * VC_RESERVE + 3 * 4158
        };
        let kind = if eject {
            PortKind::Eject(NodeId(0))
        } else {
            PortKind::Channel(ChannelId(0))
        };
        let mut ports = one_port(n_tc, pool, kind);
        let mut slab = PacketSlab::default();
        let mut model = RefPort {
            eject,
            pool,
            queues: vec![VecDeque::new(); n_tc * NUM_VCS],
            outstanding: vec![0; n_tc * NUM_VCS],
            queued_wire: 0,
            sched: (n_tc > 1).then(|| QosScheduler::new(classes(n_tc), 25e9)),
        };
        let mut rng = DetRng::seed_from(seed);
        // Bytes in flight downstream per (class, VC), returned in chunks.
        let mut unreturned = vec![0u32; n_tc * NUM_VCS];
        let mut now = SimTime::ZERO;
        let mut next_msg = 0;
        for step in 0..4000 {
            now += SimDuration::from_ns(1 + rng.below(200));
            match rng.below(10) {
                0..=3 => {
                    let wire = [64, 126, 1100, 4158][rng.below(4) as usize];
                    let mut pkt = test_packet(wire, rng.below(n_tc as u64) as u8, 0);
                    pkt.route.hops = rng.below(7) as u8;
                    pkt.born = SimTime::from_ps(rng.below(now.as_ps() + 1));
                    pkt.msg = MessageId(next_msg);
                    next_msg += 1;
                    model.enqueue(pkt);
                    let h = slab.insert(pkt);
                    ports.enqueue(0, h, &mut slab);
                }
                4..=6 => {
                    let want = model.pick(now);
                    assert_eq!(ports.pick(0, now, &slab), want, "pick at step {step}");
                    if let Some((tc, vc)) = want {
                        let expect = model.take(tc, vc, now);
                        let h = ports.take(0, tc, vc, now, &slab);
                        assert_eq!(slab.remove(h).msg, expect.msg, "take at step {step}");
                        if !eject {
                            unreturned[tc * NUM_VCS + vc] += expect.wire;
                        }
                    }
                }
                _ => {
                    let q = rng.below((n_tc * NUM_VCS) as u64) as usize;
                    let bytes = unreturned[q].min(1 + rng.below(6000) as u32);
                    unreturned[q] -= bytes;
                    let (tc, vc) = (q / NUM_VCS, q % NUM_VCS);
                    assert_eq!(
                        ports.credit_return(0, tc, vc, bytes),
                        model.credit_return(tc, vc, bytes)
                    );
                }
            }
            assert_eq!(ports.load_estimate(0), model.load_estimate(), "step {step}");
            assert_eq!(ports.port(0).queued_wire, model.queued_wire);
            if !eject {
                assert_eq!(ports.outstanding(0), &model.outstanding[..]);
            }
            for tc in 0..n_tc {
                for vc in 0..NUM_VCS {
                    let q = tc * NUM_VCS + vc;
                    assert_eq!(ports.voq_len(0, tc, vc, &slab), model.queues[q].len());
                    assert_eq!(
                        ports.head_blocked(0, tc, vc, &slab),
                        model.head_blocked(tc, vc)
                    );
                }
            }
        }
        assert_eq!(slab.live(), model.queues.iter().map(VecDeque::len).sum());
    }

    #[test]
    fn handle_voqs_match_packet_deques_one_class() {
        for seed in 1..=4 {
            model_check(1, false, seed);
        }
        model_check(1, true, 5);
    }

    #[test]
    fn handle_voqs_match_packet_deques_two_classes() {
        for seed in 11..=14 {
            model_check(2, false, seed);
        }
        model_check(2, true, 15);
    }
}
