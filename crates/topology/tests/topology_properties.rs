//! Property-based tests for dragonfly invariants.

use proptest::prelude::*;
use slingshot_topology::{
    crystal, malbec, shandy, tiny, Allocation, AllocationPolicy, ChannelId, Dragonfly,
    DragonflyParams, GroupId, LinkClass, NodeId, SwitchId,
};
use std::collections::BTreeMap;

fn arb_params() -> impl Strategy<Value = DragonflyParams> {
    (1u32..6, 1u32..6, 1u32..5, 1u32..4, 1u32..3).prop_map(|(g, a, p, m, intra)| DragonflyParams {
        groups: g,
        switches_per_group: a,
        endpoints_per_switch: p,
        global_links_per_pair: if g > 1 { m } else { 0 },
        intra_links_per_pair: intra,
    })
}

proptest! {
    /// Every channel has a reverse, no self loops, and counts match the
    /// closed-form formulas.
    #[test]
    fn channel_structure(params in arb_params()) {
        let d = params.build();
        let g = params.groups as u64;
        let a = params.switches_per_group as u64;
        let intra_expected = g * (a * (a - 1) / 2) * params.intra_links_per_pair as u64 * 2;
        let global_expected = params.total_global_cables() * 2;
        let intra = d.channels().iter().filter(|c| c.class == LinkClass::LocalCopper).count() as u64;
        let global = d.global_channel_count() as u64;
        prop_assert_eq!(intra, intra_expected);
        prop_assert_eq!(global, global_expected);
        for ch in d.channels() {
            prop_assert_ne!(ch.from, ch.to);
            prop_assert!(!d.channels_between(ch.to, ch.from).is_empty());
        }
    }

    /// The diameter never exceeds 3 switch-to-switch hops.
    #[test]
    fn diameter_at_most_three(params in arb_params()) {
        let d = params.build();
        let n = d.switch_count();
        for s in 0..n {
            for t in 0..n {
                let h = d.min_hops(SwitchId(s), SwitchId(t));
                prop_assert!(h <= 3, "{s}->{t} = {h} hops");
            }
        }
    }

    /// Global link slots are balanced: switch global-port counts differ by
    /// at most... the round-robin guarantees ceil/floor balance.
    #[test]
    fn global_ports_balanced(params in arb_params()) {
        prop_assume!(params.groups > 1);
        let d = params.build();
        let mut per_switch = vec![0u32; d.switch_count() as usize];
        for ch in d.channels() {
            if ch.class == LinkClass::GlobalOptical {
                per_switch[ch.from.index()] += 1;
            }
        }
        let min = per_switch.iter().min().unwrap();
        let max = per_switch.iter().max().unwrap();
        prop_assert!(max - min <= 1, "imbalance {min}..{max}");
        prop_assert!(*max <= params.global_ports_per_switch());
    }

    /// Node/switch/group membership maps are consistent.
    #[test]
    fn membership_consistency(params in arb_params()) {
        let d = params.build();
        for n in 0..d.node_count() {
            let node = NodeId(n);
            let sw = d.switch_of_node(node);
            prop_assert!(d.nodes_of_switch(sw).any(|m| m == node));
            prop_assert_eq!(d.group_of_node(node), d.group_of(sw));
        }
        for g in 0..params.groups {
            for sw in d.switches_of_group(GroupId(g)) {
                prop_assert_eq!(d.group_of(sw), GroupId(g));
            }
        }
    }

    /// Every allocation policy yields an exact partition with the requested
    /// sizes.
    #[test]
    fn allocations_partition(
        total in 1u32..300,
        frac in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let n_victim = (total as f64 * frac) as u32;
        for policy in AllocationPolicy::ALL {
            let alloc = Allocation::split(total, n_victim, policy, seed);
            prop_assert_eq!(alloc.victim.len() as u32, n_victim);
            prop_assert_eq!(alloc.aggressor.len() as u32, total - n_victim);
            let mut all: Vec<u32> = alloc
                .victim
                .iter()
                .chain(alloc.aggressor.iter())
                .map(|n| n.0)
                .collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..total).collect::<Vec<_>>());
        }
    }

    /// Next-hop candidate sets are non-empty whenever progress is needed
    /// and stay within the diameter bound when followed greedily.
    #[test]
    fn greedy_next_hop_terminates(params in arb_params(), src in 0u32..36, dst in 0u32..36) {
        let d = params.build();
        let n = d.switch_count();
        let src = SwitchId(src % n);
        let dst = SwitchId(dst % n);
        let mut cur = src;
        let mut hops = 0;
        while cur != dst {
            let options = d.next_hops_toward_switch(cur, dst);
            prop_assert!(!options.is_empty(), "stuck at {cur:?} toward {dst:?}");
            // Follow the first candidate deterministically.
            cur = d.channel(options[0]).to;
            hops += 1;
            prop_assert!(hops <= 4, "looping: {src:?}->{dst:?}");
        }
        prop_assert!(hops <= 3);
    }

    /// The precomputed route tables hold exactly what the channel list
    /// implies, in the same order, for every query the routers make.
    #[test]
    fn precomputed_tables_match_channel_oracle(params in arb_params()) {
        assert_tables_match_channels(&params.build());
    }
}

/// The same oracle over the paper's named systems (all but the 279 040-node
/// `largest_slingshot`, whose S² pair checks would take minutes).
#[test]
fn named_systems_match_channel_oracle() {
    for params in [tiny(), shandy(), malbec(), crystal()] {
        assert_tables_match_channels(&params.build());
    }
}

/// Check every precomputed table of `d` against expectations derived from
/// `d.channels()` and `d.params()` alone, never from the tables under test:
///
/// * `channels_between(x, y)`: the ids with `from == x && to == y`;
/// * `global_channels(s, t)`: `s`'s optical channels into group `t`;
/// * `gateways(f, t)`: switches of `f` with an optical channel into `t`,
///   in order of first appearance;
/// * toward group `t`: the direct global channels, or else the local hops
///   to `t`'s gateways (other than the switch itself) in gateway order;
/// * `min_hops`: a BFS over local channels inside the source and
///   destination groups plus the global channels between them.
///
/// Every list is in channel-id order unless stated otherwise: candidate
/// order feeds the routers' RNG tie-breaks, so it is checked too.
fn assert_tables_match_channels(d: &Dragonfly) {
    let p = *d.params();
    let a = p.switches_per_group;
    let group = |s: SwitchId| s.0 / a;
    let mut between: BTreeMap<(SwitchId, SwitchId), Vec<ChannelId>> = BTreeMap::new();
    let mut global: BTreeMap<(SwitchId, u32), Vec<ChannelId>> = BTreeMap::new();
    let mut gateways: BTreeMap<(u32, u32), Vec<SwitchId>> = BTreeMap::new();
    for (i, ch) in d.channels().iter().enumerate() {
        assert_eq!(ch.id.index(), i, "channels() out of id order");
        between.entry((ch.from, ch.to)).or_default().push(ch.id);
        if ch.class == LinkClass::GlobalOptical {
            global
                .entry((ch.from, group(ch.to)))
                .or_default()
                .push(ch.id);
            let gws = gateways.entry((group(ch.from), group(ch.to))).or_default();
            if !gws.contains(&ch.from) {
                gws.push(ch.from);
            }
        }
    }
    let toward_group = |cur: SwitchId, t: u32| -> Vec<ChannelId> {
        if group(cur) == t {
            return Vec::new();
        }
        if let Some(direct) = global.get(&(cur, t)) {
            return direct.clone();
        }
        entry(&gateways, (group(cur), t))
            .iter()
            .filter(|&&gw| gw != cur)
            .flat_map(|&gw| entry(&between, (cur, gw)).iter().copied())
            .collect()
    };
    // Hop counts from `src` along minimal dragonfly routes into group `t`,
    // one BFS level per pass over the channels.
    let min_route_hops = |src: SwitchId, t: u32| -> Vec<Option<u32>> {
        let s = group(src);
        let mut hops = vec![None; p.total_switches() as usize];
        hops[src.index()] = Some(0);
        for depth in 1.. {
            let mut reached = false;
            for ch in d.channels() {
                let (f, to) = (group(ch.from), group(ch.to));
                let allowed = (f == to && (f == s || f == t)) || (f == s && to == t);
                if allowed
                    && hops[ch.from.index()] == Some(depth - 1)
                    && hops[ch.to.index()].is_none()
                {
                    hops[ch.to.index()] = Some(depth);
                    reached = true;
                }
            }
            if !reached {
                break;
            }
        }
        hops
    };

    for cur in (0..p.total_switches()).map(SwitchId) {
        for t in 0..p.groups {
            let grp = GroupId(t);
            assert_eq!(
                d.global_channels(cur, grp),
                entry(&global, (cur, t)),
                "global channels of {cur:?} into {grp:?}"
            );
            let toward = toward_group(cur, t);
            assert_eq!(
                d.next_hops_toward_group(cur, grp),
                toward.as_slice(),
                "{cur:?} toward {grp:?}"
            );
            let hops = min_route_hops(cur, t);
            for dst in (t * a..(t + 1) * a).map(SwitchId) {
                assert_eq!(
                    d.channels_between(cur, dst),
                    entry(&between, (cur, dst)),
                    "channels {cur:?}->{dst:?}"
                );
                let expected = if cur == dst {
                    &[][..]
                } else if group(cur) == t {
                    entry(&between, (cur, dst))
                } else {
                    toward.as_slice()
                };
                assert_eq!(
                    d.next_hops_toward_switch(cur, dst),
                    expected,
                    "{cur:?} toward {dst:?}"
                );
                assert_eq!(
                    Some(d.min_hops(cur, dst)),
                    hops[dst.index()],
                    "min hops {cur:?}->{dst:?}"
                );
            }
        }
    }
    for f in 0..p.groups {
        for t in 0..p.groups {
            assert_eq!(
                d.gateways(GroupId(f), GroupId(t)),
                entry(&gateways, (f, t)),
                "gateways of group {f} into {t}"
            );
        }
    }
}

/// The list stored under `key`, or an empty one.
fn entry<K: Ord, V>(map: &BTreeMap<K, Vec<V>>, key: K) -> &[V] {
    map.get(&key).map_or(&[], Vec::as_slice)
}
