//! Property-based tests for the event queue and time arithmetic.

use proptest::prelude::*;
use slingshot_des::{serialization_time, DetRng, EventQueue, SimDuration, SimTime};

proptest! {
    /// Popping returns events in nondecreasing time order, and equal times
    /// preserve insertion order (stable priority queue).
    #[test]
    fn pop_order_is_stable_sort(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ps(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, idx)) = q.pop() {
            popped.push((t.as_ps(), idx));
        }
        // Expected: stable sort of (time, insertion index).
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort_by_key(|&(t, _)| t); // sort_by_key is stable
        prop_assert_eq!(popped, expected);
    }

    /// `now()` never decreases, whatever interleaving of pushes and pops.
    #[test]
    fn now_is_monotone(ops in proptest::collection::vec((0u64..100, any::<bool>()), 1..200)) {
        let mut q = EventQueue::new();
        let mut last_now = SimTime::ZERO;
        for (delta, do_pop) in ops {
            if do_pop {
                if q.pop().is_some() {
                    prop_assert!(q.now() >= last_now);
                    last_now = q.now();
                }
            } else {
                q.push(q.now() + SimDuration::from_ps(delta), ());
            }
        }
    }

    /// Time arithmetic: (t + d) - d == t and (t + d) - t == d.
    #[test]
    fn time_arith_inverse(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_ps(t);
        let d = SimDuration::from_ps(d);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
    }

    /// Serialization time is monotone in size and additive across splits.
    #[test]
    fn serialization_monotone_additive(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let ta = serialization_time(a, 200.0);
        let tb = serialization_time(b, 200.0);
        let tab = serialization_time(a + b, 200.0);
        prop_assert!(tab >= ta);
        prop_assert!(tab >= tb);
        // Exact at 200 Gb/s (40 ps/byte divides exactly).
        prop_assert_eq!(tab, ta + tb);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Order at simulation-sized populations: up to ~20 000 pending events,
    /// pushes and pops interleaved, times relative to `now()`, and bursts
    /// of hundreds of events at one instant (as when MPI ranks start
    /// together). Every push lands at or after `now()` with a fresh
    /// insertion index, so the whole popped stream must equal the stable
    /// `(time, insertion)` sort of everything pushed.
    #[test]
    fn large_bursty_populations_pop_in_stable_order(
        peak in 1usize..20_000,
        burst in 100u64..600,
        burst_one_in in 1u64..200,
        spread_ps in 1u64..2_000_000,
        seed in any::<u64>(),
    ) {
        let mut rng = DetRng::seed_from(seed);
        let mut q = EventQueue::new();
        let mut pushed: Vec<(u64, usize)> = Vec::new();
        let mut popped: Vec<(u64, usize)> = Vec::new();
        // Fill to `peak` (three pushes per pop on average, some of them
        // bursts), then drain to empty (three pops per single push).
        for filling in [true, false] {
            while if filling { q.len() < peak } else { !q.is_empty() } {
                let one_in_four = rng.below(4) == 0;
                if filling != one_in_four || q.is_empty() {
                    let now = q.now().as_ps();
                    let (t, n) = if filling && rng.below(burst_one_in) == 0 {
                        // Half the bursts land at the current instant.
                        (now + rng.below(2) * rng.below(spread_ps), burst)
                    } else {
                        (now + rng.below(spread_ps), 1)
                    };
                    for _ in 0..n {
                        q.push(SimTime::from_ps(t), pushed.len());
                        pushed.push((t, pushed.len()));
                    }
                } else {
                    let next = q.peek_time();
                    let (t, idx) = q.pop().expect("queue is non-empty");
                    prop_assert_eq!(Some(t), next);
                    popped.push((t.as_ps(), idx));
                }
                prop_assert_eq!(q.len(), pushed.len() - popped.len());
            }
        }
        prop_assert_eq!(q.events_processed(), popped.len() as u64);
        pushed.sort_by_key(|&(t, _)| t); // stable: ties keep insertion order
        prop_assert_eq!(popped, pushed);
    }
}
