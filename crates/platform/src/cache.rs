//! Timing-only set-associative cache model.
//!
//! The SoC keeps a single functional copy of all memory contents, so caches
//! here track only *presence* (tags + true-LRU), not data. This makes the
//! model trivially coherent with DMA and PCP traffic while still producing
//! the exact hit/miss event streams the profiling methodology measures.
//! Semantically this corresponds to a write-through, no-write-allocate
//! data cache — which is what AUDO-class devices use for safety reasons.

use audo_common::Addr;

use crate::config::CacheConfig;

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u32,
    valid: bool,
    lru: u64,
}

/// A set-associative, true-LRU, timing-only cache.
///
/// # Examples
///
/// ```
/// use audo_common::{Addr, ByteSize};
/// use audo_platform::cache::Cache;
/// use audo_platform::config::CacheConfig;
///
/// let mut c = Cache::new(&CacheConfig {
///     size: ByteSize::kib(1),
///     ways: 2,
///     line: 32,
///     enabled: true,
/// });
/// assert!(!c.lookup(Addr(0x1000)));
/// c.fill(Addr(0x1000));
/// assert!(c.lookup(Addr(0x1010)), "same line hits");
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<Line>>,
    line_shift: u32,
    set_mask: u32,
    enabled: bool,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache from its geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible into
    /// `ways × line`-sized sets, or non-power-of-two line/set count).
    #[must_use]
    pub fn new(cfg: &CacheConfig) -> Cache {
        assert!(
            cfg.line.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.ways >= 1);
        let lines_total = (cfg.size.bytes() / u64::from(cfg.line)) as usize;
        assert!(lines_total >= cfg.ways, "cache smaller than one set");
        let n_sets = lines_total / cfg.ways;
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            sets: vec![vec![Line::default(); cfg.ways]; n_sets],
            line_shift: cfg.line.trailing_zeros(),
            set_mask: (n_sets - 1) as u32,
            enabled: cfg.enabled,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn index(&self, addr: Addr) -> (usize, u32) {
        let line = addr.0 >> self.line_shift;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    /// Looks up `addr`, updating LRU on hit. Returns `true` on hit.
    pub fn lookup(&mut self, addr: Addr) -> bool {
        if !self.enabled {
            return false;
        }
        self.tick += 1;
        let (set, tag) = self.index(addr);
        for l in &mut self.sets[set] {
            if l.valid && l.tag == tag {
                l.lru = self.tick;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Installs the line containing `addr`, evicting the LRU way.
    pub fn fill(&mut self, addr: Addr) {
        if !self.enabled {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        let way = self.sets[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("at least one way");
        self.sets[set][way] = Line {
            tag,
            valid: true,
            lru: tick,
        };
    }

    /// Lifetime (hits, misses) counters — simulator-internal ground truth.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audo_common::ByteSize;

    fn small() -> Cache {
        // 4 sets × 2 ways × 32 B = 256 B.
        Cache::new(&CacheConfig {
            size: ByteSize(256),
            ways: 2,
            line: 32,
            enabled: true,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.lookup(Addr(0x8000_0000)));
        c.fill(Addr(0x8000_0000));
        assert!(c.lookup(Addr(0x8000_0000)));
        assert!(c.lookup(Addr(0x8000_001F)), "whole line present");
        assert!(!c.lookup(Addr(0x8000_0020)), "next line absent");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 lines × 32 B).
        let a = Addr(0x0000);
        let b = Addr(0x0080); // 4 lines later -> same set 0
        let d = Addr(0x0100);
        c.fill(a);
        c.fill(b);
        assert!(c.lookup(a));
        // Fill a third line: evicts b (LRU since a was just touched).
        c.fill(d);
        assert!(c.lookup(a), "recently used survives");
        assert!(!c.lookup(b), "LRU way evicted");
        assert!(c.lookup(d));
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut c = Cache::new(&CacheConfig::disabled());
        c.fill(Addr(0x100));
        assert!(!c.lookup(Addr(0x100)));
        assert_eq!(c.stats(), (0, 0), "disabled cache counts nothing");
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = small();
        c.lookup(Addr(0)); // miss
        c.fill(Addr(0));
        c.lookup(Addr(0)); // hit
        c.lookup(Addr(4)); // hit (same line)
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        for i in 0..4u32 {
            c.fill(Addr(i * 32));
        }
        for i in 0..4u32 {
            assert!(c.lookup(Addr(i * 32)), "line {i} in its own set");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(&CacheConfig {
            size: ByteSize(96),
            ways: 1,
            line: 32,
            enabled: true,
        });
    }
}
