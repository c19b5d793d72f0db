//! Fully-associative cache: one recency list spanning the whole capacity.
//!
//! A fully-associative cache is a [`crate::SetAssociative`] cache with one
//! set, but simulating it that way costs a scan of every way (and a memmove
//! to keep recency order) per reference — 8192 ways for the paper's 32KB,
//! 4-byte-line headline cache. LRU only needs to know whether a line is among
//! the `capacity` most recently used, so this type keeps recency as an
//! intrusive doubly linked list over `capacity` slots and finds a line's slot
//! through a [`LineTable`]: every hit, fill and eviction is O(1).

use crate::line_table::LineTable;
use crate::{AccessOutcome, CacheConfig, CacheSim, CacheStats, Geometry};

/// "No slot": the table value of a line that is not resident, and the link
/// past either end of the recency list.
const NIL: u32 = u32::MAX;

/// A fully-associative LRU cache (one set).
///
/// Used as the conflict-free reference point: any extra misses a
/// direct-mapped cache of the same capacity takes are conflict misses, the
/// quantity dynamic exclusion attacks.
///
/// Hits, misses and victims are exactly those of
/// `SetAssociative::new(CacheConfig::fully_associative(..))`.
///
/// # Examples
///
/// ```
/// use dynex_cache::{CacheSim, FullyAssociative};
///
/// let mut cache = FullyAssociative::new(64, 4)?;
/// cache.access(0x0);
/// cache.access(0x4000); // would conflict in a direct-mapped cache
/// assert!(cache.access(0x0).is_hit());
/// # Ok::<(), dynex_cache::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FullyAssociative {
    config: CacheConfig,
    geometry: Geometry,
    /// Line address → the slot holding it, or [`NIL`] when not resident.
    slot_of: LineTable,
    /// Slot → the line it holds. Cold misses fill slots 0, 1, 2, ...; once
    /// the cache is full, the incoming line takes over the victim's slot.
    lines: Vec<u32>,
    /// Per slot, the neighbour toward the newest end of the recency list.
    prev: Vec<u32>,
    /// Per slot, the neighbour toward the oldest end of the recency list.
    next: Vec<u32>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot, the victim.
    tail: u32,
    stats: CacheStats,
}

impl FullyAssociative {
    /// Creates an empty fully-associative cache.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::ConfigError`] for invalid size/line parameters.
    pub fn new(size_bytes: u32, line_bytes: u32) -> Result<FullyAssociative, crate::ConfigError> {
        let config = CacheConfig::fully_associative(size_bytes, line_bytes)?;
        Ok(FullyAssociative {
            config,
            geometry: config.geometry(),
            slot_of: LineTable::new(NIL),
            lines: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::new(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Whether the block containing `addr` is resident (no state change).
    pub fn contains(&self, addr: u32) -> bool {
        self.slot_of.get(self.geometry.line_addr(addr)) != NIL
    }

    /// Removes `slot` from the recency list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let (prev, next) = (self.prev[slot as usize], self.next[slot as usize]);
        if prev == NIL {
            self.head = next;
        } else {
            self.next[prev as usize] = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.prev[next as usize] = prev;
        }
    }

    /// Links `slot` in as the newest entry.
    #[inline]
    fn push_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = self.head;
        if self.head == NIL {
            self.tail = slot;
        } else {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
    }
}

impl CacheSim for FullyAssociative {
    fn access(&mut self, addr: u32) -> AccessOutcome {
        let line = self.geometry.line_addr(addr);
        let slot = *self.slot_of.slot(line);
        let outcome = if slot != NIL {
            if slot != self.head {
                self.unlink(slot);
                self.push_front(slot);
            }
            AccessOutcome::Hit
        } else {
            let capacity = self.config.associativity() as usize;
            let slot = if self.lines.len() < capacity {
                self.lines.push(line);
                self.prev.push(NIL);
                self.next.push(NIL);
                (self.lines.len() - 1) as u32
            } else {
                let victim = self.tail;
                self.unlink(victim);
                *self.slot_of.slot(self.lines[victim as usize]) = NIL;
                self.lines[victim as usize] = line;
                victim
            };
            *self.slot_of.slot(line) = slot;
            self.push_front(slot);
            AccessOutcome::Miss
        };
        self.stats.record(outcome);
        outcome
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn label(&self) -> String {
        format!(
            "{} fully-associative, {}B lines (LRU)",
            self.config.size_label(),
            self.config.line_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_addrs, SetAssociative};

    #[test]
    fn no_conflict_misses() {
        // 16 lines; 8 distinct blocks that all map to one DM set coexist here.
        let mut c = FullyAssociative::new(64, 4).unwrap();
        let addrs: Vec<u32> = (0..8).map(|i| i * 64).collect();
        let stats = run_addrs(&mut c, addrs.iter().copied().chain(addrs.iter().copied()));
        assert_eq!(stats.misses(), 8); // cold only
    }

    #[test]
    fn capacity_misses_still_occur() {
        // 4 lines, 5-block cyclic working set under LRU: always misses.
        let mut c = FullyAssociative::new(16, 4).unwrap();
        let stats = run_addrs(&mut c, (0..25).map(|i| (i % 5) * 16));
        assert_eq!(stats.misses(), 25);
    }

    #[test]
    fn single_set_geometry() {
        let c = FullyAssociative::new(128, 8).unwrap();
        assert_eq!(c.config().n_sets(), 1);
        assert_eq!(c.config().associativity(), 16);
    }

    #[test]
    fn invalid_parameters_error() {
        assert!(FullyAssociative::new(100, 4).is_err());
    }

    #[test]
    fn label_is_descriptive() {
        let c = FullyAssociative::new(1024, 16).unwrap();
        assert_eq!(c.label(), "1KB fully-associative, 16B lines (LRU)");
        let small = FullyAssociative::new(512, 16).unwrap();
        assert_eq!(small.label(), "512B fully-associative, 16B lines (LRU)");
    }

    /// A seeded stream over about twice `capacity` lines (so the cache
    /// evicts), mixed with a few far-apart lines on other table pages.
    fn evicting_stream(seed: u64, capacity: u32, len: usize) -> Vec<u32> {
        let mut rng = crate::SplitMix64::new(seed);
        (0..len)
            .map(|_| {
                let line = if rng.below(8) == 0 {
                    0x3fff_0000 | rng.below(4) as u32
                } else {
                    rng.below(2 * capacity as u64) as u32
                };
                // Any byte within the line.
                (line << 2) | rng.below(4) as u32
            })
            .collect()
    }

    #[test]
    fn matches_one_set_set_associative() {
        for capacity in [1u32, 16, 8192] {
            let config = CacheConfig::fully_associative(capacity * 4, 4).unwrap();
            let mut fast = FullyAssociative::new(capacity * 4, 4).unwrap();
            let mut reference = SetAssociative::new(config);
            let len = 4 * capacity as usize + 2_000;
            for (i, addr) in evicting_stream(capacity as u64, capacity, len)
                .into_iter()
                .enumerate()
            {
                assert_eq!(fast.access(addr), reference.access(addr), "{capacity}, {i}");
                // The neighbouring line may or may not be resident.
                for probe in [addr, addr ^ 4] {
                    assert_eq!(
                        fast.contains(probe),
                        reference.contains(probe),
                        "{capacity}, {i}"
                    );
                }
            }
            assert_eq!(fast.stats(), reference.stats(), "{capacity}");
            assert!(
                fast.stats().misses() > capacity as u64,
                "{capacity}: the stream must force evictions"
            );
        }
    }
}
