//! Machine-readable kernel performance snapshot: `BENCH_kernel.json`.
//!
//! Times the simulator's hot kernels — next-hop table lookups, adaptive
//! routing decisions, NIC in-flight accounting, multi-class port
//! arbitration, the event queue — two end-to-end simulations (16 and 1024
//! nodes) for events/sec figures, the topology build at two sizes for its
//! cost per unit of output, and the heap cost of building a whole
//! 136-group network. A counting allocator wraps the system allocator so
//! every record carries allocs/op next to ns/op: the routing fast path's
//! zero-allocation claim is measured here on every run, not asserted once
//! in review. The 1024-node rung repeats its round, and the repeat's
//! allocations per event show whether a warmed simulation still allocates
//! per packet.
//!
//! Options: `--quick` (CI-sized iteration counts), `--out PATH` (default
//! `BENCH_kernel.json`), `--strict` (non-zero exit if a kernel expected
//! to be allocation-free allocates, if the 1024-node rung's events/sec
//! falls below [`MIN_RUNG_RATIO`] of the 16-node rung's, if its warmed
//! round allocates more than [`MAX_WARM_ALLOCS_PER_EVENT`] times per
//! event, if the large topology build costs more than
//! [`MAX_BUILD_RATIO`] times Shandy's per unit of output, or if the
//! network build allocates more than [`MAX_BUILD_ALLOCS_PER_PORT`] times
//! per output port).

use serde::Serialize;
use slingshot::des::{DetRng, EventQueue, SimDuration, SimTime};
use slingshot::network::{InFlightMap, InSource, MessageId, Packet, PacketSlab, PortKind, Ports};
use slingshot::qos::TrafficClassSet;
use slingshot::routing::{AdaptiveParams, QuietView, RouteState, Router, RoutingAlgorithm, Via};
use slingshot::telemetry::{HopKind, TelemetryConfig, TelemetryHub};
use slingshot::topology::{
    largest_slingshot, shandy, ChannelId, DragonflyParams, Liveness, NodeId, SwitchId,
};
use slingshot::{Profile, System, SystemBuilder};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// System allocator wrapper that counts allocation calls (alloc and
/// realloc; frees are not interesting for the per-op budget) and the
/// bytes they request (a realloc counts its growth).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        SystemAlloc.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let growth = new_size.saturating_sub(layout.size());
        ALLOC_BYTES.fetch_add(growth as u64, Ordering::Relaxed);
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[derive(Serialize)]
struct BenchRecord {
    name: String,
    iters: u64,
    ns_per_op: f64,
    allocs_per_op: f64,
    /// Whether this kernel is required to be allocation-free.
    zero_alloc_required: bool,
}

/// Smallest allowed ratio of the 1024-node rung's events/sec to the
/// 16-node rung's. Machine speed cancels out of the ratio, so the gate
/// holds on any host; a per-event cost that grows with system size (such
/// as a queue that degrades at large populations) trips it.
const MIN_RUNG_RATIO: f64 = 0.25;

/// Largest allowed ratio of the large topology build's ns per unit of
/// output to Shandy's. A linear build costs the same per unit at every
/// size, and machine speed cancels out of the ratio; a build step that
/// scans a table once per switch or per pair grows it with system size.
const MAX_BUILD_RATIO: f64 = 4.0;

/// Largest allowed allocations per event over the 1024-node rung's warmed
/// round. Its traffic repeats the first round's, so the event heap, the
/// packet slab and the NIC maps already have the capacity they need, and
/// VOQs are slab-linked lists that never allocate. What is left is
/// amortized growth such as the message log doubling. One allocation per
/// message would be 4.5e-3, one per packet 7e-2.
const MAX_WARM_ALLOCS_PER_EVENT: f64 = 2e-3;

/// Largest allowed heap allocations per output port while building the
/// 136-group network. Port state lives in a few network-wide arrays, so
/// the build allocates a fixed number of tables, not one or more per port
/// (which would read ≥ 1) or per switch (≥ 0.02 at 51 ports a switch).
const MAX_BUILD_ALLOCS_PER_PORT: f64 = 0.01;

/// One topology-build rung: the median of `builds` timed constructions.
#[derive(Serialize)]
struct BuildRung {
    name: &'static str,
    groups: u32,
    switches: u32,
    channels: u64,
    /// Output size: channels plus switch × group table rows.
    units: u64,
    builds: u32,
    wall_ns: u64,
    ns_per_unit: f64,
}

/// One end-to-end rung: a whole simulation run to quiescence.
#[derive(Serialize)]
struct EndToEnd {
    name: &'static str,
    nodes: u32,
    messages: u64,
    events: u64,
    wall_ns: u64,
    events_per_sec: f64,
    /// Events of the last round.
    last_round_events: u64,
    /// Allocations per event over the last round.
    last_round_allocs_per_event: f64,
    /// Packet-slab slots at the end: the peak number of packets in
    /// flight between injection and ack.
    packet_slab_len: usize,
}

/// The heap cost of building one whole network (topology included).
#[derive(Serialize)]
struct NetworkBuild {
    name: &'static str,
    ports: u64,
    nics: u64,
    allocs: u64,
    bytes: u64,
    allocs_per_port: f64,
    bytes_per_port: f64,
    allocs_per_nic: f64,
    bytes_per_nic: f64,
    wall_ns: u64,
}

#[derive(Serialize)]
struct Report {
    schema: u32,
    mode: String,
    benches: Vec<BenchRecord>,
    end_to_end: Vec<EndToEnd>,
    topology_build: Vec<BuildRung>,
    network_build: NetworkBuild,
}

/// Time `iters` calls of `f` after a 1/10 warmup, reading the allocation
/// counter across the timed region.
fn bench<F: FnMut()>(name: &str, iters: u64, zero_alloc_required: bool, mut f: F) -> BenchRecord {
    for _ in 0..iters / 10 {
        f();
    }
    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let wall = start.elapsed();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let rec = BenchRecord {
        name: name.to_string(),
        iters,
        ns_per_op: wall.as_nanos() as f64 / iters as f64,
        allocs_per_op: allocs as f64 / iters as f64,
        zero_alloc_required,
    };
    eprintln!(
        "{:<32} {:>10.1} ns/op  {:>8.3} allocs/op",
        rec.name, rec.ns_per_op, rec.allocs_per_op
    );
    rec
}

/// Run `offsets.len()` rounds on `system`: each round every node sends
/// 64 KiB to `(src + offset) mod n`, then the network runs to quiescence
/// and its notifications are drained into a reused buffer.
fn end_to_end(name: &'static str, system: System, offsets: &[u32]) -> EndToEnd {
    let mut net = SystemBuilder::new(system, Profile::Slingshot)
        .seed(7)
        .build();
    let n = net.node_count();
    let mut messages = 0u64;
    let mut notes = Vec::new();
    let (mut last_round_events, mut last_round_allocs) = (0, 0);
    let start = Instant::now();
    for &offset in offsets {
        let events_before = net.events_processed();
        let allocs_before = ALLOCS.load(Ordering::Relaxed);
        for src in 0..n {
            let dst = (src + offset) % n;
            if src == dst {
                continue;
            }
            net.send(NodeId(src), NodeId(dst), 64 << 10, 0, 0);
            messages += 1;
        }
        net.run_to_quiescence(u64::MAX)
            .expect("quiesces within budget");
        net.drain_notifications_into(&mut notes);
        notes.clear();
        last_round_events = net.events_processed() - events_before;
        last_round_allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    }
    let wall = start.elapsed();
    let events = net.kernel_stats().events_total();
    let rec = EndToEnd {
        name,
        nodes: n,
        messages,
        events,
        wall_ns: wall.as_nanos() as u64,
        events_per_sec: events as f64 / wall.as_secs_f64(),
        last_round_events,
        // An offset that is a multiple of `n` makes an empty round.
        last_round_allocs_per_event: last_round_allocs as f64 / last_round_events.max(1) as f64,
        packet_slab_len: net.packet_slab_len(),
    };
    eprintln!(
        "{:<32} {:>10.0} events/sec ({} events, {} messages; last round {:.2e} allocs/event, \
         slab {} packets)",
        rec.name,
        rec.events_per_sec,
        rec.events,
        rec.messages,
        rec.last_round_allocs_per_event,
        rec.packet_slab_len
    );
    rec
}

/// A one-port table whose channel port serves the Fig. 14 class pair,
/// holding eight MTU packets in each class.
fn two_class_port() -> (Ports, PacketSlab) {
    let classes = TrafficClassSet::fig14();
    let n_tc = classes.len();
    let mut ports = Ports::new(&classes, 1 << 30, 25e9, 25e9, 1);
    let port = ports.push(PortKind::Channel(ChannelId(0)), SimDuration::from_ns(13));
    let mut slab = PacketSlab::default();
    for i in 0..8 * n_tc as u32 {
        let h = slab.insert(Packet {
            msg: MessageId(i as u64),
            src: NodeId(0),
            dst: NodeId(1),
            payload: 4096,
            wire: 4158,
            tc: (i % n_tc as u32) as u8,
            routed: true,
            route: RouteState::new(SwitchId(0), Via::Direct),
            cur_source: InSource::Node(NodeId(0)),
            path_delay: SimDuration::ZERO,
            ep_depth: 0,
            born: SimTime::ZERO,
            chunk: 0,
            copy: 0,
            llr: 0,
            traced: false,
        });
        ports.enqueue(port, h, &mut slab);
    }
    (ports, slab)
}

/// Build the 136-group cut of the paper's largest system through
/// [`SystemBuilder::build`] and count the heap allocations and bytes it
/// takes, per output port and per NIC.
fn network_build_136g() -> NetworkBuild {
    let params = DragonflyParams {
        groups: 136,
        ..largest_slingshot()
    };
    let builder = SystemBuilder::new(System::Custom(params), Profile::Slingshot);
    let (allocs_before, bytes_before) = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    let start = Instant::now();
    let net = builder.build();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes_before;
    let topo = net.topology();
    let nics = topo.node_count() as u64;
    // One output port per directed channel and per attached node.
    let ports = topo.channels().len() as u64 + nics;
    let rec = NetworkBuild {
        name: "network_build_136g",
        ports,
        nics,
        allocs,
        bytes,
        allocs_per_port: allocs as f64 / ports as f64,
        bytes_per_port: bytes as f64 / ports as f64,
        allocs_per_nic: allocs as f64 / nics as f64,
        bytes_per_nic: bytes as f64 / nics as f64,
        wall_ns,
    };
    eprintln!(
        "{:<32} {:>10.4} allocs/port ({} allocs, {:.1} MB; {:.0} B/port, {:.0} B/NIC over \
         {} ports, {} NICs)",
        rec.name,
        rec.allocs_per_port,
        rec.allocs,
        rec.bytes as f64 / (1 << 20) as f64,
        rec.bytes_per_port,
        rec.bytes_per_nic,
        rec.ports,
        rec.nics
    );
    rec
}

/// Build `params` `builds` times and record the median build time, and
/// that time per unit of output.
fn topology_build(name: &'static str, params: DragonflyParams, builds: u32) -> BuildRung {
    let mut walls = Vec::with_capacity(builds as usize);
    let mut channels = 0;
    for _ in 0..builds {
        let start = Instant::now();
        let topo = params.build();
        walls.push(start.elapsed().as_nanos() as u64);
        channels = topo.channels().len() as u64;
    }
    walls.sort_unstable();
    let wall_ns = walls[walls.len() / 2];
    let switches = params.total_switches();
    let units = channels + switches as u64 * params.groups as u64;
    let rec = BuildRung {
        name,
        groups: params.groups,
        switches,
        channels,
        units,
        builds,
        wall_ns,
        ns_per_unit: wall_ns as f64 / units as f64,
    };
    eprintln!(
        "{:<32} {:>10.1} ns/unit ({:.3} ms, {} units)",
        rec.name,
        rec.ns_per_unit,
        rec.wall_ns as f64 / 1e6,
        rec.units
    );
    rec
}

fn main() {
    let mut quick = false;
    let mut strict = false;
    let mut out = String::from("BENCH_kernel.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--strict" => strict = true,
            "--out" => out = args.next().expect("--out expects a path"),
            other => {
                eprintln!("unrecognized option {other:?}");
                eprintln!("options: --quick | --strict | --out PATH");
                std::process::exit(2);
            }
        }
    }
    let scale: u64 = if quick { 1 } else { 10 };

    let topo = shandy().build();
    let switches = topo.switch_count() as u64;
    let router = Router::new(&topo, RoutingAlgorithm::Adaptive, AdaptiveParams::default());

    let mut benches = Vec::new();

    let mut rng = DetRng::seed_from(1);
    benches.push(bench(
        "routing_next_hop_shandy",
        200_000 * scale,
        true,
        || {
            let s = SwitchId(rng.below(switches) as u32);
            let d = SwitchId(rng.below(switches) as u32);
            black_box(topo.next_hops_toward_switch(s, d));
        },
    ));

    let mut rng = DetRng::seed_from(2);
    benches.push(bench(
        "topology_min_hops_shandy",
        200_000 * scale,
        true,
        || {
            let s = SwitchId(rng.below(switches) as u32);
            let d = SwitchId(rng.below(switches) as u32);
            black_box(topo.min_hops(s, d));
        },
    ));

    let mut rng = DetRng::seed_from(3);
    benches.push(bench(
        "routing_adaptive_decide_shandy",
        100_000 * scale,
        true,
        || {
            let s = SwitchId(rng.below(switches) as u32);
            let d = SwitchId(rng.below(switches) as u32);
            black_box(router.decide(s, d, &QuietView, &mut rng));
        },
    ));

    // Liveness-mask consultation on the routing fast path, measured in the
    // degraded state (some entries down) so the per-candidate bit tests run
    // rather than the all-up early-out.
    let channels = topo.channels().len() as u64;
    let mut live = Liveness::for_topology(&topo);
    let mut rng = DetRng::seed_from(5);
    for _ in 0..8 {
        live.set_channel(ChannelId(rng.below(channels) as u32), false);
    }
    for _ in 0..2 {
        live.set_switch(SwitchId(rng.below(switches) as u32), false);
    }
    benches.push(bench(
        "liveness_channel_usable_shandy",
        200_000 * scale,
        true,
        || {
            let ch = ChannelId(rng.below(channels) as u32);
            black_box(live.channel_usable(&topo, ch));
        },
    ));

    // Steady-state NIC accounting: the map is pre-grown by the warmup, so
    // the timed region exercises probe/insert/backward-shift only.
    let mut inflight = InFlightMap::new();
    let mut rng = DetRng::seed_from(4);
    benches.push(bench(
        "nic_inflight_add_get_sub",
        100_000 * scale,
        true,
        || {
            let key = rng.below(256) as u32;
            inflight.add(key, 4096);
            black_box(inflight.get(key));
            inflight.sub(key, 4096);
        },
    ));

    // Multi-class arbitration (Fig. 13/14 ports): pick a class and VC,
    // serve the head, return its credit and requeue it, one MTU time per
    // pick so the scheduler's token buckets see a saturated link.
    let (mut ports, mut slab) = two_class_port();
    let mut at = SimTime::ZERO;
    let mtu_time = ports.serialization(0, 4158);
    benches.push(bench(
        "switch_pick_two_class",
        200_000 * scale,
        true,
        || {
            let (tc, vc) = ports.pick(0, at, &slab).expect("both classes backlogged");
            let h = ports.take(0, tc, vc, at, &slab);
            ports
                .credit_return(0, tc, vc, slab[h].wire)
                .expect("credit was outstanding");
            ports.enqueue(0, black_box(h), &mut slab);
            at += mtu_time;
        },
    ));

    // Hold model: a 32k standing population where every pop reschedules
    // one event a bounded jitter ahead, timing the binary heap at a depth
    // of ~15 levels. Spread-out synthetic times like these flatter bucketed
    // queues; the end-to-end rungs below are the real-traffic check.
    let mut queue = EventQueue::with_capacity(32_768);
    for i in 0..32_768u64 {
        queue.push(SimTime::from_ps(i * 997 % 1_000_000), i);
    }
    let mut jitter: u64 = 0x2545_F491_4F6C_DD1D;
    benches.push(bench(
        "event_queue_hold_32k",
        200_000 * scale,
        false,
        || {
            let (t, v) = queue.pop().expect("standing population");
            jitter ^= jitter << 13;
            jitter ^= jitter >> 7;
            jitter ^= jitter << 17;
            queue.push(SimTime::from_ps(t.as_ps() + 1_000 + jitter % 20_000), v);
            black_box(t);
        },
    ));

    // Telemetry instrumentation sites. Disabled is the shipping default:
    // every site in the simulator reduces to this one Option discriminant
    // check, which must stay free (≤ a couple ns, no allocations) for the
    // disabled run to remain byte-identical *and* cost-identical to an
    // uninstrumented build. The enabled paths bound what `--telemetry`
    // adds per event: a pure sampling hash and a bucket bump.
    let mut sink: Option<Box<TelemetryHub>> = None;
    benches.push(bench(
        "telemetry_disabled_gate",
        200_000 * scale,
        true,
        || {
            if let Some(hub) = black_box(&mut sink).as_deref_mut() {
                hub.on_port_tx(0, 0, 0, 0);
            }
        },
    ));

    let mut rng = DetRng::seed_from(6);
    let hub = TelemetryHub::new(TelemetryConfig::sampled(16), 64, 2, 4);
    benches.push(bench(
        "telemetry_sampling_hash",
        200_000 * scale,
        true,
        || {
            let msg = rng.below(1 << 48);
            black_box(hub.sampled(msg, (msg % 64) as u32));
        },
    ));

    // Bucket bump with the sink enabled. Time cycles inside a fixed 1 ms
    // window so the series stops growing after warmup and the record
    // captures the steady-state bump, not one-off bucket growth.
    let mut hub = TelemetryHub::new(TelemetryConfig::sampled(16), 64, 2, 4);
    let mut at: u64 = 0;
    benches.push(bench(
        "telemetry_port_tx_bump",
        200_000 * scale,
        false,
        || {
            at = (at + 7_919_333) % 1_000_000_000;
            hub.on_port_tx((at % 64) as u32, (at % 2) as u8, at, 4096);
        },
    ));

    // Flight-recorder append into the bounded ring (wraps after warmup,
    // so the timed region never grows the buffer).
    let mut rec_hub = TelemetryHub::new(TelemetryConfig::sampled(1), 4, 1, 1);
    let mut rec_at: u64 = 0;
    benches.push(bench(
        "telemetry_record_event",
        200_000 * scale,
        false,
        || {
            rec_at += 1_000;
            rec_hub.record_event(
                rec_at,
                rec_at % 512,
                0,
                0,
                0,
                HopKind::VoqEnqueue {
                    sw: 1,
                    port: 2,
                    vc: 0,
                },
            );
        },
    ));

    // Stall-diagnosis snapshot on a loaded network. Off the hot path (it
    // runs once, when a sweep cell dies), but it walks every port, NIC
    // and credit pool — this bench bounds that walk so the diagnosis
    // stays cheap enough to attach to every failure row.
    let mut net = SystemBuilder::new(System::Tiny, Profile::Slingshot)
        .seed(9)
        .build();
    let n = net.node_count();
    for src in 0..n {
        net.send(NodeId(src), NodeId((src + 3) % n), 256 << 10, 0, 0);
    }
    for _ in 0..50_000 {
        if !net.step() {
            break;
        }
    }
    benches.push(bench(
        "stall_report_tiny_loaded",
        2_000 * scale,
        false,
        || {
            black_box(net.stall_report(50_000, 50_000));
        },
    ));

    // Build rungs: Shandy, and the paper's largest system (cut to 136 of
    // its 545 groups in quick mode), timed per unit of output.
    let small_build = topology_build("topology_build_shandy", shandy(), 200 * scale as u32);
    let large_build = if quick {
        let params = DragonflyParams {
            groups: 136,
            ..largest_slingshot()
        };
        topology_build("topology_build_136g", params, 5)
    } else {
        topology_build("topology_build_545g", largest_slingshot(), 3)
    };
    let build_ratio = large_build.ns_per_unit / small_build.ns_per_unit;
    eprintln!(
        "{:<32} {build_ratio:>10.3} (gate <= {MAX_BUILD_RATIO})",
        "build_ratio_large_vs_shandy"
    );

    let network_build = network_build_136g();

    // Scale rungs: a 16-node neighbour exchange and two identical
    // 1024-node Shandy shift rounds, whose pending-event population peaks
    // in the thousands; the second round runs on warmed buffers. Tiny
    // offsets skip multiples of its 16 nodes, which would send nothing.
    let tiny_rounds: Vec<u32> = (1..)
        .filter(|o| o % 16 != 0)
        .take(if quick { 4 } else { 32 })
        .collect();
    let tiny = end_to_end("end_to_end_tiny", System::Tiny, &tiny_rounds);
    let shandy = end_to_end("end_to_end_shandy_1024", System::Shandy, &[257, 257]);
    let rung_ratio = shandy.events_per_sec / tiny.events_per_sec;
    eprintln!(
        "{:<32} {rung_ratio:>10.3} (gate >= {MIN_RUNG_RATIO})",
        "rung_ratio_1024_vs_16"
    );
    let warm_allocs = shandy.last_round_allocs_per_event;

    let build_allocs = network_build.allocs_per_port;

    let report = Report {
        schema: 5,
        mode: if quick { "quick" } else { "full" }.to_string(),
        benches,
        end_to_end: vec![tiny, shandy],
        topology_build: vec![small_build, large_build],
        network_build,
    };

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json).expect("write BENCH_kernel.json");
    eprintln!("report written to {out}");

    let leaky: Vec<&BenchRecord> = report
        .benches
        .iter()
        .filter(|b| b.zero_alloc_required && b.allocs_per_op > 0.0)
        .collect();
    for b in &leaky {
        eprintln!(
            "warning: {} allocates {:.3} times per op on a zero-allocation path",
            b.name, b.allocs_per_op
        );
    }
    let cliff = rung_ratio < MIN_RUNG_RATIO;
    if cliff {
        eprintln!(
            "warning: 1024-node events/sec is {rung_ratio:.3}x the 16-node rate \
             (minimum {MIN_RUNG_RATIO}): per-event cost grows with system size"
        );
    }
    let warm_allocating = warm_allocs > MAX_WARM_ALLOCS_PER_EVENT;
    if warm_allocating {
        eprintln!(
            "warning: the 1024-node rung's warmed round allocates {warm_allocs:.2e} times \
             per event (maximum {MAX_WARM_ALLOCS_PER_EVENT:.0e}): the event path allocates"
        );
    }
    let superlinear = build_ratio > MAX_BUILD_RATIO;
    if superlinear {
        eprintln!(
            "warning: the large topology build costs {build_ratio:.3}x Shandy's per unit \
             of output (maximum {MAX_BUILD_RATIO}): the build is super-linear"
        );
    }
    let build_allocating = build_allocs > MAX_BUILD_ALLOCS_PER_PORT;
    if build_allocating {
        eprintln!(
            "warning: building the 136-group network allocates {build_allocs:.4} times per \
             output port (maximum {MAX_BUILD_ALLOCS_PER_PORT}): per-port state allocates"
        );
    }
    if strict && (!leaky.is_empty() || cliff || warm_allocating || superlinear || build_allocating)
    {
        std::process::exit(1);
    }
}
