//! Open-addressing per-destination in-flight byte accounting.
//!
//! Every packet launch and every ack hashes the destination node id —
//! with `HashMap<u32, u64>` that was a SipHash round plus a heap-heavy
//! control structure on the simulator's hottest NIC path. [`InFlightMap`]
//! replaces it with a flat linear-probing table: Fibonacci (Fx-style)
//! hashing of the key's high bits, parallel key/value arrays, and
//! backward-shift deletion (no tombstones), so lookups are one multiply
//! and a short linear scan over two cache lines.
//!
//! Semantics match the accounting the NIC needs: `get` of an absent key is
//! 0, `sub` removes the entry when it reaches exactly 0 (so
//! `is_empty` witnesses full quiescence), and underflow or acks for
//! unknown destinations fail loudly.

/// Key sentinel for an empty slot. Node ids are dense from 0 and bounded
/// by the node count, so `u32::MAX` can never collide with a real key.
const EMPTY: u32 = u32::MAX;

/// Table capacity at the first insert (power of two). An empty map owns
/// no allocation, so a NIC that never sends costs nothing here.
const MIN_CAP: usize = 8;

/// Flat open-addressing map from destination node id to in-flight wire
/// bytes. See the module docs for the design.
#[derive(Clone, Debug)]
pub struct InFlightMap {
    keys: Vec<u32>,
    vals: Vec<u64>,
    len: usize,
    /// `64 - log2(capacity)`: Fibonacci hashing keeps the entropy in the
    /// high bits, so the slot index is a right shift, not a low-bit mask.
    shift: u32,
}

impl Default for InFlightMap {
    fn default() -> Self {
        Self::new()
    }
}

impl InFlightMap {
    /// An empty map; allocates nothing until the first insert.
    pub const fn new() -> Self {
        InFlightMap {
            keys: Vec::new(),
            vals: Vec::new(),
            len: 0,
            shift: 64,
        }
    }

    #[inline]
    fn capacity(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn ideal_slot(&self, key: u32) -> usize {
        (fxhash::hash64(key as u64) >> self.shift) as usize
    }

    /// Number of destinations with non-zero in-flight bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bytes are in flight toward any destination.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u32) -> Option<usize> {
        debug_assert_ne!(key, EMPTY, "reserved key");
        if self.len == 0 {
            return None;
        }
        let mask = self.capacity() - 1;
        let mut i = self.ideal_slot(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// In-flight bytes toward `key` (0 when absent).
    #[inline]
    pub fn get(&self, key: u32) -> u64 {
        match self.find(key) {
            Some(i) => self.vals[i],
            None => 0,
        }
    }

    /// Account `delta` more bytes in flight toward `key`.
    pub fn add(&mut self, key: u32, delta: u64) {
        debug_assert_ne!(key, EMPTY, "reserved key");
        if delta == 0 {
            return;
        }
        // Grow at 3/4 load to keep probe runs short.
        if (self.len + 1) * 4 > self.capacity() * 3 {
            self.grow();
        }
        let mask = self.capacity() - 1;
        let mut i = self.ideal_slot(key);
        loop {
            let k = self.keys[i];
            if k == key {
                self.vals[i] += delta;
                return;
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = delta;
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Account `delta` bytes acknowledged from `key`; the entry is removed
    /// when it reaches exactly zero.
    ///
    /// # Panics
    /// Panics when `key` is absent; debug-asserts on underflow.
    pub fn sub(&mut self, key: u32, delta: u64) {
        let i = self.find(key).expect("ack for unknown destination");
        debug_assert!(self.vals[i] >= delta, "in-flight underflow");
        self.vals[i] -= delta;
        if self.vals[i] == 0 {
            self.remove_at(i);
        }
    }

    /// Iterate `(destination, bytes)` pairs in table order (deterministic
    /// for a given insertion history; diagnostics only).
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, &v)| (k, v))
    }

    /// Backward-shift deletion: close the hole at `i` by walking the
    /// probe chain and moving back every entry whose ideal slot does not
    /// lie strictly inside the cyclic range `(hole, entry]`.
    fn remove_at(&mut self, mut i: usize) {
        let mask = self.capacity() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            let ideal = self.ideal_slot(k);
            // `ideal` within cyclic (i, j] means the entry's probe chain
            // starts after the hole — it cannot move into it.
            let unreachable_from_hole = if i <= j {
                ideal > i && ideal <= j
            } else {
                ideal > i || ideal <= j
            };
            if !unreachable_from_hole {
                self.keys[i] = k;
                self.vals[i] = self.vals[j];
                i = j;
            }
        }
        self.keys[i] = EMPTY;
        self.vals[i] = 0;
        self.len -= 1;
    }

    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.capacity() * 2).max(MIN_CAP);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_cap]);
        self.shift = 64 - new_cap.trailing_zeros();
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.add(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_key_reads_zero() {
        let m = InFlightMap::new();
        assert_eq!(m.get(7), 0);
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn allocates_on_first_insert_only() {
        let mut m = InFlightMap::new();
        assert_eq!(m.capacity(), 0, "an empty map allocated");
        m.add(3, 0);
        assert_eq!(m.capacity(), 0, "a zero add allocated");
        m.add(3, 10);
        assert_eq!(m.capacity(), MIN_CAP);
        m.sub(3, 10);
        assert!(m.is_empty());
        assert_eq!(m.get(3), 0);
    }

    #[test]
    fn add_accumulates_and_sub_removes_at_zero() {
        let mut m = InFlightMap::new();
        m.add(3, 1000);
        m.add(3, 500);
        assert_eq!(m.get(3), 1500);
        assert_eq!(m.len(), 1);
        m.sub(3, 400);
        assert_eq!(m.get(3), 1100);
        assert_eq!(m.len(), 1, "partial ack keeps the entry");
        m.sub(3, 1100);
        assert_eq!(m.get(3), 0);
        assert!(m.is_empty(), "entry removed at exactly zero");
    }

    #[test]
    #[should_panic(expected = "ack for unknown destination")]
    fn sub_of_absent_key_panics() {
        let mut m = InFlightMap::new();
        m.sub(1, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "in-flight underflow")]
    fn underflow_debug_asserts() {
        let mut m = InFlightMap::new();
        m.add(1, 10);
        m.sub(1, 11);
    }

    #[test]
    fn zero_add_is_a_noop() {
        let mut m = InFlightMap::new();
        m.add(5, 0);
        assert!(m.is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = InFlightMap::new();
        for k in 0..1000u32 {
            m.add(k, (k as u64) + 1);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u32 {
            assert_eq!(m.get(k), (k as u64) + 1, "key {k}");
        }
        for k in 0..1000u32 {
            m.sub(k, (k as u64) + 1);
        }
        assert!(m.is_empty());
    }

    #[test]
    fn backward_shift_keeps_probe_chains_reachable() {
        // Exercise collision chains and deletion in every order against a
        // model map.
        use std::collections::HashMap;
        let mut model: HashMap<u32, u64> = HashMap::new();
        let mut m = InFlightMap::new();
        let mut x: u64 = 0x1234_5678_9abc_def0;
        let mut keys: Vec<u32> = Vec::new();
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 257) as u32;
            if step % 3 == 2 && model.contains_key(&key) {
                let v = model[&key];
                let take = 1 + x % v;
                m.sub(key, take);
                if v == take {
                    model.remove(&key);
                } else {
                    *model.get_mut(&key).expect("present") -= take;
                }
            } else {
                let v = 1 + (x >> 32) % 1000;
                m.add(key, v);
                *model.entry(key).or_insert(0) += v;
                keys.push(key);
            }
            if step % 1000 == 0 {
                for (&k, &v) in &model {
                    assert_eq!(m.get(k), v, "key {k} at step {step}");
                }
                assert_eq!(m.len(), model.len());
            }
        }
        let mut got: Vec<(u32, u64)> = m.iter().collect();
        got.sort_unstable();
        let mut want: Vec<(u32, u64)> = model.into_iter().collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
