//! Exact-order least-recently-used map behind the session caches and
//! the serving shards' stored artifacts.
//!
//! [`Lru`] is the standard hash map plus doubly linked list: the map
//! sends each key to its node's slot in a dense slab, and the nodes are
//! linked newest to oldest. A hit moves its node to the newest end, an
//! insert links a fresh node there, and eviction unlinks the oldest node,
//! so every operation costs O(1) however full the map is. The victim is
//! always the entry whose last refresh (an insert or a [`Lru::get`]) is
//! the oldest — the same order a per-entry clock with a minimum scan
//! picks, which the tests below check against exactly that model.
//!
//! A [`CompileSession`](crate::CompileSession) keeps its compiled chains
//! in one; the `gmc-serve` service keeps the artifacts a shard rendered
//! for each shape in another per shard, bounded like its chain cache.
//!
//! ```
//! use gmc_core::lru::Lru;
//!
//! let mut lru: Lru<&str, u32> = Lru::new(2);
//! lru.insert("a", 1);
//! lru.insert("b", 2);
//! assert_eq!(lru.get(&"a"), Some(&1)); // "a" is now the newest
//! assert_eq!(lru.insert("c", 3), 1); // evicts "b", the oldest
//! assert_eq!(lru.peek(&"b"), None);
//! assert_eq!(lru.len(), 2);
//! ```

use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;

/// Link terminator: no newer (at the newest end) or no older neighbour.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    newer: usize,
    older: usize,
}

/// A capacity-bounded map that evicts its least-recently-used entries.
#[derive(Debug)]
pub struct Lru<K, V> {
    slots: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    newest: usize,
    oldest: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Lru {
            slots: HashMap::new(),
            nodes: Vec::new(),
            newest: NIL,
            oldest: NIL,
            capacity,
        }
    }

    /// Maximum number of entries retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The value under `key`, refreshed to most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.slots.get(key)?;
        self.unlink(slot);
        self.link_newest(slot);
        Some(&self.nodes[slot].value)
    }

    /// The value under `key`, leaving its recency as it is.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.slots.get(key).map(|&slot| &self.nodes[slot].value)
    }

    /// Store `value` under `key` as the most recently used entry, then
    /// evict the oldest entries down to the capacity; returns how many
    /// were evicted. A no-op at capacity 0.
    pub fn insert(&mut self, key: K, value: V) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let slot = match self.slots.entry(key) {
            Entry::Occupied(e) => {
                let slot = *e.get();
                self.nodes[slot].value = value;
                self.unlink(slot);
                slot
            }
            Entry::Vacant(e) => {
                let slot = self.nodes.len();
                self.nodes.push(Node {
                    key: e.key().clone(),
                    value,
                    newer: NIL,
                    older: NIL,
                });
                e.insert(slot);
                slot
            }
        };
        self.link_newest(slot);
        self.evict_excess()
    }

    /// Change the bound, evicting the oldest entries down to it; returns
    /// how many were evicted.
    pub fn set_capacity(&mut self, capacity: usize) -> usize {
        self.capacity = capacity;
        self.evict_excess()
    }

    /// Drop every entry (not an eviction: nothing is counted).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.nodes.clear();
        self.newest = NIL;
        self.oldest = NIL;
    }

    /// Resident entries, oldest first (the tests' view of the order).
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut slot = self.oldest;
        std::iter::from_fn(move || {
            let node = self.nodes.get(slot)?;
            slot = node.newer;
            Some((&node.key, &node.value))
        })
    }

    fn evict_excess(&mut self) -> usize {
        let mut evicted = 0;
        while self.nodes.len() > self.capacity {
            self.remove(self.oldest);
            evicted += 1;
        }
        evicted
    }

    /// Remove the node in `slot`. The slab stays dense: its last node
    /// moves into the hole, and its neighbours and map entry follow it.
    fn remove(&mut self, slot: usize) {
        self.unlink(slot);
        let node = self.nodes.swap_remove(slot);
        self.slots.remove(&node.key);
        if slot == self.nodes.len() {
            return;
        }
        let Node { newer, older, .. } = self.nodes[slot];
        match newer {
            NIL => self.newest = slot,
            n => self.nodes[n].older = slot,
        }
        match older {
            NIL => self.oldest = slot,
            o => self.nodes[o].newer = slot,
        }
        *self
            .slots
            .get_mut(&self.nodes[slot].key)
            .expect("every node's key maps to its slot") = slot;
    }

    fn unlink(&mut self, slot: usize) {
        let Node { newer, older, .. } = self.nodes[slot];
        match newer {
            NIL => self.newest = older,
            n => self.nodes[n].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.nodes[o].newer = newer,
        }
    }

    fn link_newest(&mut self, slot: usize) {
        self.nodes[slot].newer = NIL;
        self.nodes[slot].older = self.newest;
        match self.newest {
            NIL => self.oldest = slot,
            n => self.nodes[n].newer = slot,
        }
        self.newest = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The eviction policy both session caches ran before [`Lru`]: a
    /// clock reading per entry, refreshed by a hit or an insert, and the
    /// minimum reading evicted by a scan over every entry.
    struct TickModel {
        map: HashMap<u8, (u32, u64)>,
        tick: u64,
        capacity: usize,
    }

    impl TickModel {
        fn new(capacity: usize) -> Self {
            TickModel {
                map: HashMap::new(),
                tick: 0,
                capacity,
            }
        }

        fn get(&mut self, key: u8) -> Option<u32> {
            self.tick += 1;
            let entry = self.map.get_mut(&key)?;
            entry.1 = self.tick;
            Some(entry.0)
        }

        fn peek(&self, key: u8) -> Option<u32> {
            self.map.get(&key).map(|e| e.0)
        }

        fn insert(&mut self, key: u8, value: u32) -> usize {
            if self.capacity == 0 {
                return 0;
            }
            self.tick += 1;
            self.map.insert(key, (value, self.tick));
            self.evict_down_to(self.capacity)
        }

        fn set_capacity(&mut self, capacity: usize) -> usize {
            self.capacity = capacity;
            self.evict_down_to(capacity)
        }

        fn evict_down_to(&mut self, bound: usize) -> usize {
            let mut evicted = 0;
            while self.map.len() > bound {
                let (&oldest, _) = self
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.1)
                    .expect("over a bound, so non-empty");
                self.map.remove(&oldest);
                evicted += 1;
            }
            evicted
        }

        fn oldest_first(&self) -> Vec<(u8, u32)> {
            let mut entries: Vec<(u8, u32, u64)> =
                self.map.iter().map(|(&k, &(v, t))| (k, v, t)).collect();
            entries.sort_by_key(|e| e.2);
            entries.into_iter().map(|(k, v, _)| (k, v)).collect()
        }
    }

    fn oldest_first(lru: &Lru<u8, u32>) -> Vec<(u8, u32)> {
        lru.iter().map(|(&k, &v)| (k, v)).collect()
    }

    #[test]
    fn hits_refresh_and_peeks_do_not() {
        let mut lru: Lru<u8, u32> = Lru::new(2);
        assert_eq!(lru.insert(1, 10), 0);
        assert_eq!(lru.insert(2, 20), 0);
        assert_eq!(lru.peek(&1), Some(&10));
        assert_eq!(lru.insert(3, 30), 1, "the peek left 1 oldest");
        assert_eq!(oldest_first(&lru), [(2, 20), (3, 30)]);
        assert_eq!(lru.get(&2), Some(&20));
        assert_eq!(lru.insert(4, 40), 1, "the hit left 3 oldest");
        assert_eq!(oldest_first(&lru), [(2, 20), (4, 40)]);
        assert_eq!(lru.insert(2, 21), 0, "a re-insert replaces in place");
        assert_eq!(oldest_first(&lru), [(4, 40), (2, 21)]);
        assert_eq!(lru.set_capacity(0), 2);
        assert_eq!(lru.insert(5, 50), 0);
        assert_eq!(lru.len(), 0, "capacity 0 retains nothing");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random get / peek / insert / re-insert / `set_capacity` /
        /// `clear` sequences evict the same victims as the tick model and
        /// leave the same entries in the same oldest-first order.
        #[test]
        fn eviction_order_matches_the_tick_model(
            cap_sel in 0usize..4,
            ops in proptest::collection::vec((0u8..16, 0u8..10, any::<u32>()), 0..300),
        ) {
            let capacity = [0usize, 1, 2, 7][cap_sel];
            let mut lru: Lru<u8, u32> = Lru::new(capacity);
            let mut model = TickModel::new(capacity);
            for (step, &(op, key, value)) in ops.iter().enumerate() {
                let before = model.oldest_first();
                let (got, want) = match op {
                    0..=5 => (lru.insert(key, value), model.insert(key, value)),
                    6..=10 => {
                        prop_assert_eq!(lru.get(&key).copied(), model.get(key));
                        (0, 0)
                    }
                    11..=13 => {
                        prop_assert_eq!(lru.peek(&key).copied(), model.peek(key));
                        (0, 0)
                    }
                    14 => {
                        // Grow and shrink around the sampled capacity.
                        let capacity = usize::from(key % 9);
                        (lru.set_capacity(capacity), model.set_capacity(capacity))
                    }
                    _ => {
                        lru.clear();
                        model.map.clear();
                        (0, 0)
                    }
                };
                let gone = |after: &[(u8, u32)]| -> Vec<u8> {
                    before
                        .iter()
                        .map(|&(k, _)| k)
                        .filter(|k| after.iter().all(|&(a, _)| a != *k))
                        .collect()
                };
                let after = oldest_first(&lru);
                let model_after = model.oldest_first();
                prop_assert_eq!(got, want, "eviction count at step {}", step);
                prop_assert_eq!(gone(&after), gone(&model_after), "victims at step {}", step);
                prop_assert_eq!(&after, &model_after, "order at step {}", step);
                prop_assert_eq!(lru.len(), after.len());
                prop_assert!(lru.len() <= lru.capacity());
            }
        }
    }
}
