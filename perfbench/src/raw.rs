//! The raw-network workloads (`shift_1024`, `hyperscale_random`): plain
//! `Network::send` traffic in rounds, each run to quiescence, no MPI.

use crate::layers::{self, StepProfile};
use crate::report::{Digest, Metrics, Outcome};
use crate::Bench;
use slingshot::ethernet::message_wire_bytes;
use slingshot::{Network, Notification, Profile, System, SystemBuilder};
use slingshot_des::{mix64, DetRng};
use slingshot_topology::{largest_slingshot, DragonflyParams, NodeId};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Event budget per round: far above what any round needs, so only a
/// livelock exhausts it.
const EVENT_BUDGET: u64 = 2_000_000_000;

/// `shift_1024`: rounds of Shandy-wide shifts.
const SHIFT_ROUNDS: usize = 2;

/// `hyperscale_random`'s machine: the largest Slingshot dragonfly cut to
/// 136 of its 545 groups (69 632 endpoints).
const HYPERSCALE_GROUPS: u32 = 136;
const HYPERSCALE_MESSAGES: u32 = 16_384;

/// One round: `(src, dst)` pairs, all sent at once, then run to quiescence.
type Round = Vec<(u32, u32)>;

pub struct RawBench {
    builder: SystemBuilder,
    rounds: fn(nodes: u32, seed: u64) -> Vec<Round>,
    seed: u64,
    bytes: u64,
}

/// Shandy; each round every node sends 64 KiB to `(src + offset) mod n`,
/// with offsets and the network seed drawn from `seed`.
pub fn shift_1024(seed: u64) -> RawBench {
    RawBench {
        builder: SystemBuilder::new(System::Shandy, Profile::Slingshot).seed(mix64(seed ^ 0x5A1F7)),
        rounds: |n, seed| {
            let mut rng = DetRng::seed_from(mix64(seed ^ 0x0FF5E7));
            (0..SHIFT_ROUNDS)
                .map(|_| {
                    let off = 1 + rng.below(n as u64 - 1) as u32;
                    (0..n).map(|s| (s, (s + off) % n)).collect()
                })
                .collect()
        },
        seed,
        bytes: 64 << 10,
    }
}

/// 69 632 endpoints, one round of random-pair 4 KiB messages, with the
/// pairs and the network seed drawn from `seed`.
pub fn hyperscale_random(seed: u64) -> RawBench {
    let params = DragonflyParams {
        groups: HYPERSCALE_GROUPS,
        ..largest_slingshot()
    };
    RawBench {
        builder: SystemBuilder::new(System::Custom(params), Profile::Slingshot)
            .seed(mix64(seed ^ 0x4E7)),
        rounds: |n, seed| {
            let mut rng = DetRng::seed_from(mix64(seed ^ 0x9A1));
            let pairs = (0..HYPERSCALE_MESSAGES)
                .map(|_| {
                    let src = rng.below(n as u64) as u32;
                    let dst = (src + 1 + rng.below(n as u64 - 1) as u32) % n;
                    (src, dst)
                })
                .collect();
            vec![pairs]
        },
        seed,
        bytes: 4 << 10,
    }
}

impl RawBench {
    /// Send every round and run it to quiescence, checking each round's
    /// outputs between rounds (untimed). With a profile, every send and
    /// every step is timed.
    fn run_rounds(
        &self,
        net: &mut Network,
        rounds: &[Round],
        mut profile: Option<&mut StepProfile>,
    ) -> (Outcome, f64) {
        let n = net.node_count() as usize;
        let (wire, inj_bps) = {
            let cfg = net.config();
            let wire = message_wire_bytes(self.bytes, cfg.frame, cfg.stack);
            (wire, cfg.injection_bytes_per_sec())
        };
        let mut expected_payload = vec![0u64; n];
        let mut digest = Digest::default();
        let mut run_s = 0.0;
        let mut send_ns = 0.0;
        let mut failed = 0u64;
        let mut correct = true;
        let attempted = rounds.iter().map(|r| r.len() as u64).sum();
        for (ri, round) in rounds.iter().enumerate() {
            let sim_start = net.now();
            let delivered_before = net.stats().messages_delivered;
            let t = Instant::now();
            let mut first_id = None;
            for &(src, dst) in round {
                let ts = profile.is_some().then(Instant::now);
                let id = net.send(NodeId(src), NodeId(dst), self.bytes, 0, 0);
                if let Some(ts) = ts {
                    send_ns += ts.elapsed().as_nanos() as f64;
                }
                first_id.get_or_insert(id.0);
            }
            let res = match profile.as_deref_mut() {
                Some(p) => p.run_to_quiescence(net, EVENT_BUDGET),
                None => net.run_to_quiescence(EVENT_BUDGET).map(drop),
            };
            run_s += t.elapsed().as_secs_f64();

            if let Err(e) = res {
                eprintln!("error: round {ri}: {e}");
                failed += rounds[ri..].iter().map(|r| r.len() as u64).sum::<u64>();
                correct = false;
                break;
            }
            // Per message: exactly one delivery and one sender-side ack,
            // with the submitted endpoints and size.
            let first = first_id.expect("rounds are non-empty");
            let mut delivered = vec![false; round.len()];
            let mut acked = vec![false; round.len()];
            let mut round_ok = true;
            for note in net.take_notifications() {
                match note {
                    Notification::Delivered {
                        msg,
                        src,
                        dst,
                        bytes,
                        delivered_at,
                        ..
                    } => {
                        let i = msg.0.wrapping_sub(first) as usize;
                        let ok = round.get(i) == Some(&(src.0, dst.0))
                            && bytes == self.bytes
                            && !delivered[i];
                        round_ok &= ok;
                        if ok {
                            delivered[i] = true;
                        }
                        digest.add(msg.0);
                        digest.add(delivered_at.as_ps());
                    }
                    Notification::SendAcked { msg, at } => {
                        let i = msg.0.wrapping_sub(first) as usize;
                        round_ok &= i < round.len() && !acked[i];
                        if i < round.len() {
                            acked[i] = true;
                        }
                        digest.add(at.as_ps());
                    }
                    Notification::Wakeup { .. } => round_ok = false,
                }
            }
            round_ok &= net.stats().messages_delivered - delivered_before == round.len() as u64;
            // Conservation per node, and the closed-form bound: no node can
            // inject or eject its wire bytes faster than its link rate.
            let mut sent_wire = vec![0u64; n];
            let mut recv_wire = vec![0u64; n];
            for &(src, dst) in round {
                expected_payload[dst as usize] += self.bytes;
                sent_wire[src as usize] += wire;
                recv_wire[dst as usize] += wire;
            }
            round_ok &=
                (0..n).all(|i| net.delivered_payload(NodeId(i as u32)) == expected_payload[i]);
            let busiest = sent_wire
                .iter()
                .chain(&recv_wire)
                .copied()
                .max()
                .unwrap_or(0);
            let bound_s = busiest as f64 / inj_bps;
            let sim_s = net.now().since(sim_start).as_secs_f64();
            if sim_s < bound_s * (1.0 - 1e-9) {
                eprintln!("error: round {ri} finished in {sim_s} s, under the {bound_s} s serialization bound");
                round_ok = false;
            }
            if catch_unwind(AssertUnwindSafe(|| net.assert_quiescent_invariants())).is_err() {
                eprintln!("error: round {ri}: quiescent invariants violated");
                round_ok = false;
            }
            failed += if round_ok {
                (0..round.len())
                    .filter(|&i| !(delivered[i] && acked[i]))
                    .count() as u64
            } else {
                round.len() as u64
            };
            digest.add(net.now().as_ps());
        }
        let k = net.kernel_stats();
        for x in [
            k.events_total(),
            k.routing_decisions,
            k.adaptive_nonminimal,
            k.next_hop_lookups,
            k.queue_hwm,
            net.stats().packets_delivered,
            net.stats().payload_delivered,
        ] {
            digest.add(x);
        }
        let outcome = Outcome {
            run_s,
            attempted,
            failed,
            correct,
            digest: digest.value(),
        };
        (outcome, send_ns)
    }
}

impl Bench for RawBench {
    type Prepared = (Network, Vec<Round>);

    fn setup(&self) -> Self::Prepared {
        let net = self.builder.build();
        let rounds = (self.rounds)(net.node_count(), self.seed);
        (net, rounds)
    }

    fn run(&self, (mut net, rounds): Self::Prepared) -> Outcome {
        self.run_rounds(&mut net, &rounds, None).0
    }

    fn traced(&self, untraced_run_s: f64) -> (Outcome, Metrics) {
        let mut m = layers::zeroed();
        let t = Instant::now();
        drop(black_box(self.builder.config().topology.build()));
        let topology_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut net = self.builder.build();
        let build_s = t.elapsed().as_secs_f64();
        let rounds = (self.rounds)(net.node_count(), self.seed);
        m.set("topology.build_s", topology_s, "s");
        m.set("network.build_s", (build_s - topology_s).max(0.0), "s");

        let mut profile = StepProfile::default();
        let (outcome, send_ns) = self.run_rounds(&mut net, &rounds, Some(&mut profile));
        let sends: usize = rounds.iter().map(Vec::len).sum();
        profile.record(&mut m);
        m.set("network.send_ns", send_ns / sends as f64, "ns");
        m.set("network.messages", sends as f64, "count");
        layers::record_kernel(&mut m, &net.kernel_stats());
        layers::finish(
            &mut m,
            &net,
            untraced_run_s,
            outcome.run_s,
            net.now().as_secs_f64(),
        );
        eprintln!("stepped host time by event type: {}", profile.shares());
        (outcome, m)
    }
}
