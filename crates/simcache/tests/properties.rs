//! Property tests for the fetch-cache simulators and cost model.

use ivm_harness::prop::{self, Source};
use ivm_harness::{prop_assert, prop_assert_eq};

use ivm_cache::{CycleCosts, FetchCache, Icache, IcacheConfig, PerfCounters, TraceCache};

fn accesses(src: &mut Source) -> Vec<(u64, u32)> {
    src.vec_of(1..300, |s| (s.int_in(0u64..1 << 16), s.int_in(1u32..96)))
}

fn caches() -> Vec<Box<dyn FetchCache>> {
    vec![
        Box::new(Icache::new(IcacheConfig::celeron_l1i())),
        Box::new(Icache::new(IcacheConfig { capacity: 1024, line_size: 32, assoc: 2 })),
        Box::new(TraceCache::pentium4()),
    ]
}

/// Misses are monotone and bounded by line touches.
#[test]
fn misses_bounded_by_touches() {
    prop::check("misses_bounded_by_touches", prop::Config::from_env(), |src| {
        let accesses = accesses(src);
        for mut c in caches() {
            let mut total_touches = 0u64;
            for &(addr, len) in &accesses {
                let misses = c.fetch(addr, len);
                // A fetch of len bytes touches at most len/line + 1 lines;
                // use a generous bound independent of geometry.
                prop_assert!(misses <= u64::from(len) + 1, "{}", c.describe());
                total_touches += u64::from(len / 8) + 2;
            }
            prop_assert!(c.misses() <= total_touches);
        }
        Ok(())
    });
}

/// Repeating the same access immediately always hits.
#[test]
fn immediate_repeat_hits() {
    prop::check("immediate_repeat_hits", prop::Config::from_env(), |src| {
        let addr = src.int_in(0u64..1 << 20);
        let len = src.int_in(1u32..64);
        for mut c in caches() {
            c.fetch(addr, len);
            prop_assert_eq!(c.fetch(addr, len), 0, "{}", c.describe());
        }
        Ok(())
    });
}

/// Reset restores cold-start behaviour exactly.
#[test]
fn reset_restores_cold_start() {
    prop::check("reset_restores_cold_start", prop::Config::from_env(), |src| {
        let accesses = accesses(src);
        for mut c in caches() {
            let first: Vec<u64> = accesses.iter().map(|&(a, l)| c.fetch(a, l)).collect();
            c.reset();
            prop_assert_eq!(c.misses(), 0);
            let second: Vec<u64> = accesses.iter().map(|&(a, l)| c.fetch(a, l)).collect();
            prop_assert_eq!(&first, &second, "{}", c.describe());
        }
        Ok(())
    });
}

/// A strictly larger cache of the same shape never misses more on the
/// same trace (LRU inclusion-style property for same assoc scaling).
#[test]
fn bigger_cache_never_worse() {
    prop::check("bigger_cache_never_worse", prop::Config::from_env(), |src| {
        let accesses = accesses(src);
        let mut small = Icache::new(IcacheConfig { capacity: 2048, line_size: 32, assoc: 64 });
        let mut big = Icache::new(IcacheConfig { capacity: 4096, line_size: 32, assoc: 128 });
        for &(a, l) in &accesses {
            small.fetch(a, l);
            big.fetch(a, l);
        }
        // Fully-associative LRU caches obey inclusion: more capacity can
        // only help.
        prop_assert!(big.misses() <= small.misses());
        Ok(())
    });
}

/// Cycle model is linear and non-negative.
#[test]
fn cycles_linear() {
    prop::check("cycles_linear", prop::Config::from_env(), |src| {
        let instr = src.int_in(0u64..1 << 40);
        let mis = src.int_in(0u64..1 << 30);
        let miss = src.int_in(0u64..1 << 20);
        let c = PerfCounters {
            instructions: instr,
            indirect_mispredicted: mis,
            icache_misses: miss,
            ..Default::default()
        };
        let costs = CycleCosts::pentium4_northwood();
        let total = c.cycles(&costs);
        prop_assert!(total >= 0.0);
        let parts = instr as f64 * costs.cpi + c.mispredict_cycles(&costs) + c.miss_cycles(&costs);
        prop_assert!((total - parts).abs() < 1e-6 * total.max(1.0));
        Ok(())
    });
}

/// The nested-`Vec` true-LRU I-cache that [`Icache`]'s flat tag and
/// stamp arrays replaced, kept as the reference model.
struct ReferenceIcache {
    sets: Vec<Vec<(u64, u64)>>,
    assoc: usize,
    line_bits: u32,
    accesses: u64,
    misses: u64,
    set_misses: Vec<u64>,
    tick: u64,
}

impl ReferenceIcache {
    fn new(config: IcacheConfig) -> Self {
        let sets = config.sets();
        Self {
            sets: vec![Vec::new(); sets],
            assoc: config.assoc,
            line_bits: config.line_size.trailing_zeros(),
            accesses: 0,
            misses: 0,
            set_misses: vec![0; sets],
            tick: 0,
        }
    }

    fn fetch(&mut self, addr: u64, len: u32) -> u64 {
        if len == 0 {
            return 0;
        }
        let mut misses = 0;
        for line in addr >> self.line_bits..=(addr + u64::from(len) - 1) >> self.line_bits {
            self.tick += 1;
            self.accesses += 1;
            let idx = line as usize & (self.sets.len() - 1);
            let set = &mut self.sets[idx];
            if let Some(entry) = set.iter_mut().find(|(tag, _)| *tag == line) {
                entry.1 = self.tick;
                continue;
            }
            misses += 1;
            self.set_misses[idx] += 1;
            if set.len() == self.assoc {
                let lru = (0..set.len()).min_by_key(|&i| set[i].1).expect("full set");
                set.swap_remove(lru);
            }
            set.push((line, self.tick));
        }
        self.misses += misses;
        misses
    }
}

/// The flat [`Icache`] (and the trace cache built on it) agrees with the
/// nested-`Vec` true-LRU reference after every fetch: per-fetch misses,
/// totals, per-set misses and per-set occupancy.
#[test]
fn icache_matches_reference_lru() {
    prop::check("icache_matches_reference_lru", prop::Config::from_env(), |src| {
        // Fetches over 4x the largest capacity, half of them revisiting an
        // earlier address, so the stream mixes hits, cold and conflict
        // misses.
        let mut stream: Vec<(u64, u32)> = Vec::new();
        for _ in 0..src.int_in(1usize..600) {
            let fetch = if !stream.is_empty() && src.bool() {
                src.pick(&stream)
            } else {
                (src.int_in(0u64..192 * 1024), src.int_in(0u32..96))
            };
            stream.push(fetch);
        }
        let tiny = IcacheConfig { capacity: 1024, line_size: 32, assoc: 2 };
        let p4 = IcacheConfig { capacity: 48 * 1024, line_size: 32, assoc: 6 };
        let cases: [(Box<dyn FetchCache>, IcacheConfig); 3] = [
            (Box::new(Icache::new(IcacheConfig::celeron_l1i())), IcacheConfig::celeron_l1i()),
            (Box::new(TraceCache::pentium4()), p4),
            (Box::new(Icache::new(tiny)), tiny),
        ];
        for (mut cache, config) in cases {
            let mut reference = ReferenceIcache::new(config);
            for (i, &(addr, len)) in stream.iter().enumerate() {
                let what = format!("{} fetch {i} ({addr:#x}, {len})", cache.describe());
                prop_assert_eq!(cache.fetch(addr, len), reference.fetch(addr, len), "{}", what);
                prop_assert_eq!(cache.misses(), reference.misses, "{}", what);
                prop_assert_eq!(cache.accesses(), reference.accesses, "{}", what);
                prop_assert_eq!(cache.set_misses(), reference.set_misses.clone(), "{}", what);
                let occupancy: Vec<u32> =
                    reference.sets.iter().map(|set| set.len() as u32).collect();
                prop_assert_eq!(cache.set_occupancy(), occupancy, "{}", what);
            }
        }
        Ok(())
    });
}
