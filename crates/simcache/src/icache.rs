//! Set-associative instruction cache simulation.

use crate::Addr;

/// Geometry of an [`Icache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IcacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Cache line size in bytes (power of two).
    pub line_size: usize,
    /// Ways per set.
    pub assoc: usize,
}

impl IcacheConfig {
    /// The Celeron-800's L1 I-cache: 16 KB, 32-byte lines, 4-way (paper §6.2).
    pub fn celeron_l1i() -> Self {
        Self { capacity: 16 * 1024, line_size: 32, assoc: 4 }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`Icache::new`]).
    pub fn sets(&self) -> usize {
        assert!(self.line_size.is_power_of_two(), "line size must be a power of two");
        assert!(self.assoc > 0 && self.capacity > 0, "degenerate cache");
        let lines = self.capacity / self.line_size;
        assert!(lines.is_multiple_of(self.assoc), "ways must divide line count");
        let sets = lines / self.assoc;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Anything that can service instruction fetches and count misses.
///
/// Both the conventional [`Icache`] and the Pentium 4 [`crate::TraceCache`]
/// implement this, so the interpreter engine is generic over fetch-path
/// style.
pub trait FetchCache {
    /// Fetches `len` bytes of instructions starting at `addr`, returning the
    /// number of misses incurred (one per missing line).
    fn fetch(&mut self, addr: Addr, len: u32) -> u64;

    /// Total misses since construction or [`FetchCache::reset`].
    fn misses(&self) -> u64;

    /// Total fetch accesses (line touches).
    fn accesses(&self) -> u64;

    /// Clears contents and counters.
    fn reset(&mut self);

    /// Short human-readable description.
    fn describe(&self) -> String;

    /// Fraction of accesses that missed, `0.0` when nothing was fetched
    /// yet (never NaN).
    fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses() as f64
        }
    }

    /// Misses per cache set, for conflict heatmaps. Empty for fetch paths
    /// without per-set counters.
    fn set_misses(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Resident lines per cache set, for occupancy heatmaps. Empty for
    /// fetch paths without per-set state.
    fn set_occupancy(&self) -> Vec<u32> {
        Vec::new()
    }
}

/// A set-associative instruction cache with true-LRU replacement.
///
/// The ways of all sets live in two flat arrays, `sets × assoc` long and
/// set-major: a line tag and the tick of its last touch per way. Ticks
/// start at 1, so a stamp of 0 marks an empty way. A miss fills the way
/// with the smallest stamp, the first one on ties: the first empty way
/// while the set has one, the least recently used way once it is full.
///
/// # Examples
///
/// ```
/// use ivm_cache::{Icache, IcacheConfig, FetchCache};
///
/// let mut ic = Icache::new(IcacheConfig::celeron_l1i());
/// assert_eq!(ic.fetch(0x1000, 64), 2); // two cold lines
/// assert_eq!(ic.fetch(0x1000, 64), 0); // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Icache {
    config: IcacheConfig,
    /// Line tag per way (meaningless where the stamp is 0).
    tags: Vec<Addr>,
    /// Last-touch tick per way; 0 = empty.
    stamps: Vec<u64>,
    line_bits: u32,
    set_mask: usize,
    accesses: u64,
    misses: u64,
    /// `set_misses[i]` counts the misses charged to set `i`.
    set_misses: Vec<u64>,
    tick: u64,
}

impl Icache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two, ways do not divide the
    /// line count, or the set count is not a power of two.
    pub fn new(config: IcacheConfig) -> Self {
        let sets = config.sets();
        Self {
            config,
            tags: vec![0; sets * config.assoc],
            stamps: vec![0; sets * config.assoc],
            line_bits: config.line_size.trailing_zeros(),
            set_mask: sets - 1,
            accesses: 0,
            misses: 0,
            set_misses: vec![0; sets],
            tick: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> IcacheConfig {
        self.config
    }

    #[inline]
    fn touch_line(&mut self, line: Addr) -> bool {
        self.tick += 1;
        self.accesses += 1;
        let set = (line as usize) & self.set_mask;
        let ways = set * self.config.assoc..(set + 1) * self.config.assoc;
        let tags = &mut self.tags[ways.clone()];
        let stamps = &mut self.stamps[ways];
        for way in 0..tags.len() {
            if tags[way] == line && stamps[way] != 0 {
                stamps[way] = self.tick;
                return false;
            }
        }
        // The first way with the smallest stamp: the first empty way, or
        // the least recently used one.
        let mut victim = 0;
        for way in 1..stamps.len() {
            if stamps[way] < stamps[victim] {
                victim = way;
            }
        }
        self.misses += 1;
        self.set_misses[set] += 1;
        tags[victim] = line;
        stamps[victim] = self.tick;
        true
    }
}

impl FetchCache for Icache {
    fn fetch(&mut self, addr: Addr, len: u32) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = addr >> self.line_bits;
        let last = (addr + u64::from(len) - 1) >> self.line_bits;
        let mut new_misses = 0;
        for line in first..=last {
            if self.touch_line(line) {
                new_misses += 1;
            }
        }
        new_misses
    }

    fn misses(&self) -> u64 {
        self.misses
    }

    fn accesses(&self) -> u64 {
        self.accesses
    }

    fn reset(&mut self) {
        self.stamps.fill(0);
        self.accesses = 0;
        self.misses = 0;
        self.set_misses.fill(0);
        self.tick = 0;
    }

    fn describe(&self) -> String {
        format!(
            "icache-{}KB-{}B-{}way",
            self.config.capacity / 1024,
            self.config.line_size,
            self.config.assoc
        )
    }

    fn set_misses(&self) -> Vec<u64> {
        self.set_misses.clone()
    }

    fn set_occupancy(&self) -> Vec<u32> {
        self.stamps
            .chunks(self.config.assoc)
            .map(|ways| ways.iter().filter(|&&stamp| stamp != 0).count() as u32)
            .collect()
    }
}

/// A no-op fetch path: every fetch hits. Used when an experiment wants to
/// isolate branch prediction from cache effects (the simulator-only results
/// of paper §6).
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectIcache {
    accesses: u64,
}

impl FetchCache for PerfectIcache {
    fn fetch(&mut self, _addr: Addr, _len: u32) -> u64 {
        self.accesses += 1;
        0
    }

    fn misses(&self) -> u64 {
        0
    }

    fn accesses(&self) -> u64 {
        self.accesses
    }

    fn reset(&mut self) {
        self.accesses = 0;
    }

    fn describe(&self) -> String {
        "perfect-icache".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Icache {
        // 4 lines of 32 bytes, 2-way: 2 sets.
        Icache::new(IcacheConfig { capacity: 128, line_size: 32, assoc: 2 })
    }

    #[test]
    fn cold_fetch_misses_once_per_line() {
        let mut ic = tiny();
        assert_eq!(ic.fetch(0, 32), 1);
        assert_eq!(ic.fetch(32, 32), 1);
        assert_eq!(ic.fetch(0, 64), 0);
    }

    #[test]
    fn fetch_spanning_lines_counts_each() {
        let mut ic = tiny();
        // 40 bytes starting at offset 24 touches lines 0 and 1.
        assert_eq!(ic.fetch(24, 40), 2);
    }

    #[test]
    fn zero_length_fetch_is_free() {
        let mut ic = tiny();
        assert_eq!(ic.fetch(100, 0), 0);
        assert_eq!(ic.accesses(), 0);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut ic = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        ic.fetch(0, 1); // line 0
        ic.fetch(64, 1); // line 2
        ic.fetch(128, 1); // line 4: evicts line 0 (LRU)
        assert_eq!(ic.fetch(64, 1), 0); // line 2 still resident
        assert_eq!(ic.fetch(0, 1), 1); // line 0 was evicted
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut ic = Icache::new(IcacheConfig::celeron_l1i());
        let code_size = 64 * 1024u64; // 4x the capacity
                                      // Stream through the code twice; second pass should still miss a lot.
        for _ in 0..2 {
            for addr in (0..code_size).step_by(32) {
                ic.fetch(addr, 32);
            }
        }
        let total = ic.accesses();
        assert_eq!(ic.misses(), total, "pure streaming over 4x capacity never hits");
    }

    #[test]
    fn working_set_within_cache_stops_missing() {
        let mut ic = Icache::new(IcacheConfig::celeron_l1i());
        for _ in 0..3 {
            for addr in (0..8 * 1024u64).step_by(32) {
                ic.fetch(addr, 32);
            }
        }
        let misses_before = ic.misses();
        for addr in (0..8 * 1024u64).step_by(32) {
            ic.fetch(addr, 32);
        }
        assert_eq!(ic.misses(), misses_before);
    }

    #[test]
    fn reset_clears_contents() {
        let mut ic = tiny();
        ic.fetch(0, 32);
        ic.reset();
        assert_eq!(ic.misses(), 0);
        assert_eq!(ic.set_misses(), vec![0, 0]);
        assert_eq!(ic.fetch(0, 32), 1);
    }

    #[test]
    fn miss_rate_is_zero_before_any_fetch() {
        let ic = tiny();
        assert_eq!(ic.miss_rate(), 0.0, "no accesses must not produce NaN");
        let mut ic = tiny();
        ic.fetch(0, 32); // 1 access, 1 miss
        ic.fetch(0, 32); // hit
        assert!((ic.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_set_misses_pinpoint_the_conflicting_set() {
        let mut ic = tiny();
        // Lines 0, 2, 4 all land in set 0 of the 2-set cache; line 1 in set 1.
        ic.fetch(0, 1); // line 0: set 0 miss
        ic.fetch(32, 1); // line 1: set 1 miss
        ic.fetch(64, 1); // line 2: set 0 miss
        ic.fetch(128, 1); // line 4: set 0 miss, evicts line 0
        ic.fetch(0, 1); // line 0 again: set 0 conflict miss
        assert_eq!(ic.set_misses(), vec![4, 1]);
        assert_eq!(ic.misses(), 5, "per-set misses sum to the total");
        assert_eq!(ic.set_occupancy(), vec![2, 1]);
    }

    #[test]
    fn default_per_set_views_are_empty_for_perfect_icache() {
        let mut p = PerfectIcache::default();
        p.fetch(0, 64);
        assert!(p.set_misses().is_empty());
        assert!(p.set_occupancy().is_empty());
        assert_eq!(p.miss_rate(), 0.0);
    }

    #[test]
    fn perfect_icache_never_misses() {
        let mut p = PerfectIcache::default();
        assert_eq!(p.fetch(0, 1 << 20), 0);
        assert_eq!(p.misses(), 0);
        assert_eq!(p.accesses(), 1);
    }

    #[test]
    fn celeron_geometry() {
        let cfg = IcacheConfig::celeron_l1i();
        assert_eq!(cfg.sets(), 128);
        assert_eq!(Icache::new(cfg).describe(), "icache-16KB-32B-4way");
    }
}
