//! Component microbenchmarks: the hot paths of the simulator.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use slingshot::des::{DetRng, EventQueue, SimTime};
use slingshot::rosetta::LatencyModel;
use slingshot::routing::{AdaptiveParams, QuietView, Router, RoutingAlgorithm};
use slingshot::topology::{shandy, SwitchId};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            for i in 0..1024u64 {
                q.push(SimTime::from_ps(i * 37 % 5000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    // The hold model is the queue's steady state in a running simulation:
    // a large standing event population where every pop reschedules a new
    // event a bounded jitter ahead. Both sizes time the binary heap's
    // O(log n) push and pop at depth (~15 and ~18 levels), while
    // `push_pop_1k` times a fill-and-drain at a small population.
    for &n in &[32_768u64, 262_144] {
        c.bench_function(format!("event_queue_hold_{}k", n >> 10), |b| {
            let mut q = EventQueue::with_capacity(n as usize);
            let mut jitter: u64 = 0x2545_F491_4F6C_DD1D;
            for i in 0..n {
                q.push(SimTime::from_ps(i * 997 % 1_000_000), i);
            }
            b.iter(|| {
                let (t, v) = q.pop().expect("population is standing");
                // xorshift keeps the reschedule offsets cheap and
                // deterministic without an RNG in the timed loop.
                jitter ^= jitter << 13;
                jitter ^= jitter >> 7;
                jitter ^= jitter << 17;
                q.push(SimTime::from_ps(t.as_ps() + 1_000 + jitter % 20_000), v);
                black_box(t)
            })
        });
    }
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("det_rng_below_1k", |b| {
        let mut rng = DetRng::seed_from(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.below(64));
            }
            black_box(acc)
        })
    });
}

fn bench_latency_model(c: &mut Criterion) {
    c.bench_function("rosetta_latency_sample", |b| {
        let model = LatencyModel::rosetta();
        let mut rng = DetRng::seed_from(2);
        b.iter(|| black_box(model.sample(&mut rng, 19, 56)))
    });
}

fn bench_routing_decision(c: &mut Criterion) {
    let topo = shandy().build();
    let router = Router::new(&topo, RoutingAlgorithm::Adaptive, AdaptiveParams::default());
    let mut rng = DetRng::seed_from(3);
    c.bench_function("adaptive_route_decide_shandy", |b| {
        b.iter(|| {
            let s = SwitchId(rng.below(64) as u32);
            let d = SwitchId(rng.below(64) as u32);
            black_box(router.decide(s, d, &QuietView, &mut rng))
        })
    });
}

fn bench_next_hop_lookup(c: &mut Criterion) {
    // The precomputed-table fast path: a borrowed candidate slice per
    // (cur, dst) pair, no hashing, no allocation.
    let topo = shandy().build();
    let n = topo.switch_count() as u64;
    let mut rng = DetRng::seed_from(5);
    c.bench_function("next_hop_lookup_shandy", |b| {
        b.iter(|| {
            let s = SwitchId(rng.below(n) as u32);
            let d = SwitchId(rng.below(n) as u32);
            black_box(topo.next_hops_toward_switch(s, d))
        })
    });
    let mut rng = DetRng::seed_from(6);
    c.bench_function("min_hops_shandy", |b| {
        b.iter(|| {
            let s = SwitchId(rng.below(n) as u32);
            let d = SwitchId(rng.below(n) as u32);
            black_box(topo.min_hops(s, d))
        })
    });
}

fn bench_inflight_map(c: &mut Criterion) {
    // Per-packet NIC accounting: one add at launch, one sub at ack.
    use slingshot::network::InFlightMap;
    let mut map = InFlightMap::new();
    let mut rng = DetRng::seed_from(7);
    c.bench_function("nic_inflight_add_get_sub", |b| {
        b.iter(|| {
            let key = rng.below(256) as u32;
            map.add(key, 4096);
            let v = black_box(map.get(key));
            map.sub(key, 4096);
            v
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_rng,
    bench_latency_model,
    bench_routing_decision,
    bench_next_hop_lookup,
    bench_inflight_map
);
criterion_main!(benches);
