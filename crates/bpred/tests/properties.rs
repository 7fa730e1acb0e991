//! Property tests for the predictor simulators.

use ivm_harness::prop::{self, Source};
use ivm_harness::{prop_assert, prop_assert_eq};

use ivm_bpred::{
    hash_words, Btb, BtbConfig, FoldedHistory, GlobalHistory, HashPrefix, IdealBtb,
    IndirectPredictor, Ittage, IttageConfig, PathHybrid, PathHybridConfig, PredictorStats,
    TwoBitBtb, TwoLevelConfig, TwoLevelPredictor,
};

/// A random dispatch stream: branch/target pairs drawn from small pools so
/// that re-use (the interesting case) actually happens.
fn stream(src: &mut Source) -> Vec<(u64, u64)> {
    src.vec_of(1..300, |s| (0x1000 + s.int_in(0u64..24) * 16, 0x9000 + s.int_in(0u64..24) * 16))
}

fn predictors() -> Vec<Box<dyn IndirectPredictor>> {
    vec![
        Box::new(IdealBtb::new()),
        Box::new(Btb::new(BtbConfig::new(16, 1))),
        Box::new(Btb::new(BtbConfig::new(16, 4))),
        Box::new(Btb::new(BtbConfig::new(16, 1).tagless())),
        Box::new(Btb::new(BtbConfig::celeron())),
        Box::new(TwoBitBtb::new()),
        Box::new(TwoLevelPredictor::new(TwoLevelConfig::pentium_m())),
        Box::new(PathHybrid::new(PathHybridConfig::classic())),
        Box::new(Ittage::new(IttageConfig::small())),
        Box::new(Ittage::new(IttageConfig::firestorm())),
    ]
}

/// Predictors are deterministic: replaying a stream after reset gives
/// identical outcomes.
#[test]
fn deterministic_after_reset() {
    prop::check("deterministic_after_reset", prop::Config::from_env(), |src| {
        let stream = stream(src);
        for mut p in predictors() {
            let first: Vec<bool> =
                stream.iter().map(|&(b, t)| p.predict_and_update(b, t)).collect();
            p.reset();
            let second: Vec<bool> =
                stream.iter().map(|&(b, t)| p.predict_and_update(b, t)).collect();
            prop_assert_eq!(&first, &second, "{} diverged after reset", p.describe());
        }
        Ok(())
    });
}

/// A monomorphic branch is predicted by every BTB-family predictor
/// after one execution, regardless of interleaved other branches that
/// do not alias it away (ideal/2-bit have no aliasing at all).
#[test]
fn monomorphic_branches_hit_on_unbounded_predictors() {
    prop::check(
        "monomorphic_branches_hit_on_unbounded_predictors",
        prop::Config::from_env(),
        |src| {
            let target = 0x5000 + src.int_in(0u64..1000) * 8;
            for mut p in [
                Box::new(IdealBtb::new()) as Box<dyn IndirectPredictor>,
                Box::new(TwoBitBtb::new()),
            ] {
                p.predict_and_update(0x42, target);
                for _ in 0..10 {
                    prop_assert!(p.predict_and_update(0x42, target), "{}", p.describe());
                }
            }
            Ok(())
        },
    );
}

/// The ideal BTB is an upper bound for any finite tagged BTB on the
/// same stream (finite ones only add capacity/conflict misses).
#[test]
fn ideal_upper_bounds_finite_tagged() {
    prop::check("ideal_upper_bounds_finite_tagged", prop::Config::from_env(), |src| {
        let stream = stream(src);
        let mut ideal = PredictorStats::new(IdealBtb::new());
        let mut finite = PredictorStats::new(Btb::new(BtbConfig::new(8, 1)));
        for &(b, t) in &stream {
            ideal.predict_and_update(b, t);
            finite.predict_and_update(b, t);
        }
        prop_assert!(ideal.mispredicted() <= finite.mispredicted());
        Ok(())
    });
}

/// Statistics wrapper counts every execution.
#[test]
fn stats_count_everything() {
    prop::check("stats_count_everything", prop::Config::from_env(), |src| {
        let stream = stream(src);
        let mut p = PredictorStats::new(IdealBtb::new());
        for &(b, t) in &stream {
            p.predict_and_update(b, t);
        }
        prop_assert_eq!(p.executed(), stream.len() as u64);
        prop_assert!(p.mispredicted() <= p.executed());
        let rate = p.misprediction_rate();
        prop_assert!((0.0..=1.0).contains(&rate));
        Ok(())
    });
}

/// BTB occupancy never exceeds capacity.
#[test]
fn occupancy_bounded() {
    prop::check("occupancy_bounded", prop::Config::from_env(), |src| {
        let stream = stream(src);
        let cfg = BtbConfig::new(16, 4);
        let mut btb = Btb::new(cfg);
        for &(b, t) in &stream {
            btb.predict_and_update(b, t);
            prop_assert!(btb.occupancy() <= cfg.entries());
        }
        Ok(())
    });
}

/// The O(1) circular-shift fold equals the O(L) from-scratch fold of
/// the raw history ring after every push, for arbitrary (length, width)
/// geometries and bit streams.
#[test]
fn folded_history_matches_reference_recompute() {
    prop::check("folded_history_matches_reference_recompute", prop::Config::from_env(), |src| {
        let width = src.int_in(1usize..16);
        let length = src.int_in(1usize..64);
        let mut hist = GlobalHistory::new(length.max(1));
        let mut fold = FoldedHistory::new(length, width);
        let bits = src.vec_of(1..200, |s| s.bool());
        for &bit in &bits {
            let outgoing = hist.bit(length - 1);
            hist.push(bit);
            fold.update(bit, outgoing);
            prop_assert_eq!(
                fold.value(),
                FoldedHistory::recompute(&hist, length, width),
                "fold (len {}, width {}) diverged from reference",
                length,
                width
            );
            prop_assert!(fold.value() < (1 << width), "fold exceeded its width");
        }
        Ok(())
    });
}

/// Checks one (length, width) geometry over a stream of bit pairs: the
/// two-bit update must equal two single updates and the recompute.
fn check_two_bit_fold(length: usize, width: usize, pairs: &[(bool, bool)]) -> Result<(), String> {
    let mut hist = GlobalHistory::new(length);
    let mut single = FoldedHistory::new(length, width);
    let mut double = FoldedHistory::new(length, width);
    for (i, &(first, second)) in pairs.iter().enumerate() {
        double.update2(hist.step2(length, first, second));
        for bit in [first, second] {
            let outgoing = hist.bit(length - 1);
            hist.push(bit);
            single.update(bit, outgoing);
        }
        if double.value() != single.value() {
            return Err(format!(
                "len {length} width {width} pair {i}: update2 {} != two updates {}",
                double.value(),
                single.value()
            ));
        }
        let reference = FoldedHistory::recompute(&hist, length, width);
        if double.value() != reference {
            return Err(format!(
                "len {length} width {width} pair {i}: update2 {} != recompute {reference}",
                double.value()
            ));
        }
    }
    Ok(())
}

/// The two-bit fold update equals two single updates and the positional
/// recompute, for random bit streams over widths 1..=16 and lengths
/// 1..=64. Both ranges shrink toward the edge cases: length 1 (the second
/// outgoing bit is the first new bit) and widths 1 and 2 (where a
/// two-column rotation is the identity).
#[test]
fn two_bit_fold_update_equals_two_single_updates() {
    prop::check("two_bit_fold_update_equals_two_single_updates", prop::Config::from_env(), |src| {
        let width = src.int_in(1usize..17);
        let length = src.int_in(1usize..65);
        let pairs = src.vec_of(1..100, |s| (s.bool(), s.bool()));
        check_two_bit_fold(length, width, &pairs)
    });
}

/// The same equivalence on every geometry in the tested ranges, with one
/// fixed irregular stream, so no (length, width) pair is left to chance.
#[test]
fn two_bit_fold_update_holds_on_every_small_geometry() {
    let pairs: Vec<(bool, bool)> = (0..150u32).map(|i| ((i * i + i) % 7 < 3, i % 5 < 2)).collect();
    for width in 1..=16 {
        for length in 1..=64 {
            check_two_bit_fold(length, width, &pairs).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// A history whose capacity is not a power of two (its ring is rounded
/// up) still reads every age at or past the capacity as zero, including
/// the ring slots between the capacity and the ring size.
#[test]
fn global_history_reads_zero_past_its_capacity() {
    // The 24-bit capacity on a 32-slot ring, filled with ones.
    let mut hist = GlobalHistory::new(24);
    for _ in 0..64 {
        hist.push(true);
    }
    assert_eq!(hist.capacity(), 24);
    assert!((0..24).all(|age| hist.bit(age)), "ages below the capacity hold the pushed ones");
    assert!((24..96).all(|age| !hist.bit(age)), "ages 24.. must read zero on a 32-slot ring");

    prop::check("global_history_reads_zero_past_its_capacity", prop::Config::from_env(), |src| {
        let capacity = src.int_in(1usize..70);
        let pushed = src.vec_of(0..200, |s| s.bool());
        let mut hist = GlobalHistory::new(capacity);
        for &bit in &pushed {
            hist.push(bit);
        }
        for age in 0..2 * capacity.next_power_of_two() {
            let want = age < capacity && age < pushed.len() && pushed[pushed.len() - 1 - age];
            prop_assert_eq!(hist.bit(age), want, "capacity {} age {}", capacity, age);
        }
        Ok(())
    });
}

/// Resuming a saved [`HashPrefix`] gives exactly `hash_words` over the
/// whole tuple, wherever the tuple is split.
#[test]
fn hash_prefix_resumes_hash_words() {
    prop::check("hash_prefix_resumes_hash_words", prop::Config::from_env(), |src| {
        let words = src.vec_of(0..6, |s| s.pick(&[0, 1, 0x100, u64::MAX]) ^ s.below(1 << 40));
        let split = src.int_in(0..words.len() + 1);
        let (head, tail) = words.split_at(split);
        prop_assert_eq!(
            HashPrefix::new(head).hash(tail),
            hash_words(&words),
            "split {} of {:?}",
            split,
            words
        );
        Ok(())
    });
}

/// ITTAGE's provider/alternate breakdown accounts for every event, and
/// its realised history lengths stay within the configured bounds
/// (table-index safety: folds and ring sizes derive from these).
#[test]
fn ittage_breakdown_accounts_every_event() {
    prop::check("ittage_breakdown_accounts_every_event", prop::Config::from_env(), |src| {
        let stream = stream(src);
        let cfg =
            src.pick(&[IttageConfig::small(), IttageConfig::medium(), IttageConfig::firestorm()]);
        let mut p = Ittage::new(cfg);
        let lengths = p.history_lengths().to_vec();
        prop_assert_eq!(lengths.len(), cfg.tables);
        prop_assert!(lengths.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(*lengths.last().unwrap() <= cfg.max_history.max(cfg.tables));
        let mut mispredicted = 0u64;
        for &(b, t) in &stream {
            if !p.predict_and_update(b, t) {
                mispredicted += 1;
            }
        }
        let bd = p.breakdown();
        prop_assert_eq!(bd.total(), stream.len() as u64, "every event must be attributed");
        prop_assert_eq!(
            bd.base_misses + bd.alt_misses + bd.provider_misses.iter().sum::<u64>(),
            mispredicted,
            "attributed misses must equal observed mispredictions"
        );
        Ok(())
    });
}

/// Tag aliasing: two branches whose streams are interleaved never make
/// ITTAGE's verdicts depend on *untracked* state — replaying the exact
/// stream after reset is bit-identical even when tags alias (the
/// aliasing itself must be a deterministic function of the stream).
#[test]
fn ittage_aliasing_is_deterministic() {
    prop::check("ittage_aliasing_is_deterministic", prop::Config::from_env(), |src| {
        // A tiny table forces tag/index aliasing between the pools.
        let cfg = IttageConfig {
            base_bits: 3,
            table_bits: 2,
            tag_bits: 3,
            min_history: 2,
            max_history: 8,
            tables: 2,
            useful_reset_period: 64,
        };
        let stream = stream(src);
        let mut p = Ittage::new(cfg);
        let first: Vec<bool> = stream.iter().map(|&(b, t)| p.predict_and_update(b, t)).collect();
        let bd_first = p.breakdown().clone();
        p.reset();
        let second: Vec<bool> = stream.iter().map(|&(b, t)| p.predict_and_update(b, t)).collect();
        prop_assert_eq!(&first, &second, "aliased ittage diverged after reset");
        prop_assert_eq!(&bd_first, p.breakdown(), "breakdown must replay identically");
        Ok(())
    });
}
