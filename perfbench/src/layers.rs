//! Per-layer measurement from outside the simulator: step attribution
//! by kernel counters, standalone layer probes, and the metric list.

use crate::report::Metrics;
use slingshot_des::{DetRng, EventQueue, SimTime};
use slingshot_network::{KernelStats, Network, SimError};
use slingshot_routing::{QuietView, Router};
use slingshot_topology::SwitchId;
use std::hint::black_box;
use std::time::Instant;

/// Event types whose steps are timed, named as in the metrics.
pub const EVENT_TYPES: [&str; 9] = [
    "nic_tx",
    "arrive_switch",
    "enqueue_out",
    "tx_done",
    "credit",
    "arrive_nic",
    "ack",
    "loopback",
    "wakeup",
];

fn event_counts(k: &KernelStats) -> [u64; 9] {
    [
        k.events_nic_tx,
        k.events_arrive_switch,
        k.events_enqueue_out,
        k.events_tx_done,
        k.events_credit,
        k.events_arrive_nic,
        k.events_ack,
        k.events_loopback,
        k.events_wakeup,
    ]
}

/// Names of the mpi/experiments cells, `<victim>-<aggressor>-<profile>`.
pub const CELL_NAMES: [&str; 11] = [
    "lammps-none-slingshot",
    "lammps-incast-slingshot",
    "lammps-alltoall-slingshot",
    "alltoall128k-none-slingshot",
    "alltoall128k-incast-slingshot",
    "alltoall128k-alltoall-slingshot",
    "silo-none-slingshot",
    "silo-incast-slingshot",
    "silo-alltoall-slingshot",
    "lammps-none-aries",
    "lammps-incast-aries",
];

/// Every per-layer metric with its unit, as listed in `BENCHMARK.json`.
/// A layer a workload does not pass through reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("topology.build_s", "s"),
        ("network.build_s", "s"),
        ("des.events", "count"),
        ("des.queue_hwm", "count"),
        ("des.events_per_s", "1/s"),
        ("des.hold_ns_at_hwm", "ns"),
        ("network.send_ns", "ns"),
        ("network.messages", "count"),
        ("routing.decisions", "count"),
        ("routing.detours", "count"),
        ("routing.nonminimal_ratio", "ratio"),
        ("routing.next_hop_lookups", "count"),
        ("routing.decide_ns", "ns"),
        ("congestion.acks", "count"),
        ("workloads.scripts_s", "s"),
        ("mpi.add_job_s", "s"),
        ("mpi.run_ns_per_event", "ns"),
        ("trace.overhead_ratio", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for t in EVENT_TYPES {
        names.push((format!("network.step_ns.{t}"), "ns"));
        names.push((format!("network.events.{t}"), "count"));
    }
    for c in CELL_NAMES {
        names.push((format!("experiments.cell_s.{c}"), "s"));
    }
    names
}

/// Metrics with every per-layer name present at 0.
pub fn zeroed() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in per_layer_names() {
        m.set(&name, 0.0, unit);
    }
    m
}

/// Host time of network steps, attributed to the event type each step
/// dispatched (read from the kernel counters around the step).
#[derive(Default)]
pub struct StepProfile {
    ns: [f64; 9],
    count: [u64; 9],
}

impl StepProfile {
    /// [`Network::run_to_quiescence`] one step at a time, with the same
    /// budget and fatal-error semantics, timing every step.
    pub fn run_to_quiescence(
        &mut self,
        net: &mut Network,
        max_events: u64,
    ) -> Result<(), SimError> {
        let start = net.events_processed();
        loop {
            let before = event_counts(&net.kernel_stats());
            let t = Instant::now();
            let more = net.step();
            let dt = t.elapsed().as_nanos() as f64;
            if !more {
                return Ok(());
            }
            let after = event_counts(&net.kernel_stats());
            // Fault-machinery steps (fault injection is off) match no type.
            if let Some(i) = (0..9).find(|&i| after[i] != before[i]) {
                self.ns[i] += dt;
                self.count[i] += 1;
            }
            if let Some(err) = net.take_fatal() {
                return Err(err);
            }
            let consumed = net.events_processed() - start;
            if consumed > max_events {
                return Err(SimError::Stalled(Box::new(
                    net.stall_report(max_events, consumed),
                )));
            }
        }
    }

    pub fn record(&self, m: &mut Metrics) {
        for (i, t) in EVENT_TYPES.iter().enumerate() {
            let mean = if self.count[i] > 0 {
                self.ns[i] / self.count[i] as f64
            } else {
                0.0
            };
            m.set(&format!("network.step_ns.{t}"), mean, "ns");
        }
    }

    /// Share of stepped host time per event type, for the summary.
    pub fn shares(&self) -> String {
        let total: f64 = self.ns.iter().sum();
        EVENT_TYPES
            .iter()
            .zip(self.ns)
            .filter(|(_, ns)| *ns > 0.0)
            .map(|(t, ns)| format!("{t} {:.1}%", 100.0 * ns / total))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Counter-derived metrics of one network's [`KernelStats`] (summed over
/// networks by the caller via [`Metrics::add`]; the high-water is a max).
pub fn record_kernel(m: &mut Metrics, k: &KernelStats) {
    m.add("des.events", k.events_total() as f64, "count");
    m.set(
        "des.queue_hwm",
        m.get("des.queue_hwm").max(k.queue_hwm as f64),
        "count",
    );
    for (t, c) in EVENT_TYPES.iter().zip(event_counts(k)) {
        m.add(&format!("network.events.{t}"), c as f64, "count");
    }
    m.add("routing.decisions", k.routing_decisions as f64, "count");
    m.add("routing.detours", k.adaptive_nonminimal as f64, "count");
    m.add(
        "routing.next_hop_lookups",
        k.next_hop_lookups as f64,
        "count",
    );
    m.add("congestion.acks", k.events_ack as f64, "count");
}

/// Derived metrics once all counters are in: rates, ratios and the
/// standalone probes at the workload's own sizes.
pub fn finish(m: &mut Metrics, net: &Network, untraced_run_s: f64, traced_run_s: f64, sim_s: f64) {
    let events = m.get("des.events");
    let hwm = m.get("des.queue_hwm") as usize;
    m.set("des.events_per_s", events / untraced_run_s, "1/s");
    // Little's law: an event waits on average (population × sim time /
    // events) in the queue; the hold model draws increments around that.
    let mean_wait_ps = (hwm as f64 * sim_s * 1e12 / events.max(1.0)).max(1.0) as u64;
    m.set(
        "des.hold_ns_at_hwm",
        hold_ns(hwm.max(1), mean_wait_ps),
        "ns",
    );
    let ratio = m.get("routing.detours") / m.get("routing.decisions").max(1.0);
    m.set("routing.nonminimal_ratio", ratio, "ratio");
    m.set("routing.decide_ns", decide_ns(net), "ns");
    m.set(
        "trace.overhead_ratio",
        traced_run_s / untraced_run_s,
        "ratio",
    );
}

/// Hold-model cost of a standalone [`EventQueue`] at population `pop`:
/// ns per pop-then-push, increments uniform in `[0, 2 × mean_ps)`.
pub fn hold_ns(pop: usize, mean_ps: u64) -> f64 {
    let mut rng = DetRng::seed_from(0x401D);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..pop {
        q.push(SimTime(rng.below(2 * mean_ps)), i as u64);
    }
    let mut hold = |n: usize| {
        for _ in 0..n {
            let (t, e) = q.pop().expect("population stays constant");
            q.push(SimTime(t.0 + rng.below(2 * mean_ps)), black_box(e));
        }
    };
    hold(pop.max(10_000));
    let ops = 1_000_000;
    let t = Instant::now();
    hold(ops);
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// Cost of the source-switch routing decision on `net`'s topology with
/// its routing configuration, over seeded random switch pairs.
pub fn decide_ns(net: &Network) -> f64 {
    let topo = net.topology();
    let cfg = net.config();
    let router = Router::new(topo, cfg.routing, cfg.adaptive);
    let mut rng = DetRng::seed_from(0xDEC1DE);
    let switches = topo.switch_count() as u64;
    let pairs: Vec<(SwitchId, SwitchId)> = (0..4096)
        .map(|_| {
            (
                SwitchId(rng.below(switches) as u32),
                SwitchId(rng.below(switches) as u32),
            )
        })
        .collect();
    let ops = 1_000_000;
    let t = Instant::now();
    for i in 0..ops {
        let (s, d) = pairs[i % pairs.len()];
        black_box(router.decide(s, d, &QuietView, &mut rng));
    }
    t.elapsed().as_nanos() as f64 / ops as f64
}
