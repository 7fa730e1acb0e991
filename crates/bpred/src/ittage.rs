//! ITTAGE-style tagged geometric-history indirect prediction.
//!
//! Seznec and Michaud's ITTAGE (the indirect-target member of the TAGE
//! family, and the predictor class shipped in post-2015 high-end cores
//! such as Apple's Firestorm — see arXiv 2411.13900) backs a simple
//! last-target base table with N tagged tables indexed by geometrically
//! increasing global-history lengths. The longest-history table whose
//! partial tag matches *provides* the prediction; the next-longest match
//! (or the base table) is the *alternate*. Mispredictions allocate a new
//! entry in a longer-history table, so hard branches migrate toward the
//! history depth that disambiguates them while easy branches stay cheap.
//!
//! This simulator keeps the published structure (provider/alternate
//! selection, confidence and usefulness counters, allocate-on-mispredict,
//! periodic usefulness aging, folded-history indexing) but replaces every
//! randomized tie-break in the literature with a deterministic rule —
//! first-fit allocation, fixed aging cadence — so replays are bit-exact,
//! matching the repo-wide determinism contract. All index and tag
//! derivation goes through the crate's [`AddrHasher`](crate::AddrHasher)
//! family via one shared helper; there are no ad-hoc hash mixers here.

use crate::folded::{FoldedHistory, GlobalHistory};
use crate::hash::{hash_words, HashPrefix};
use crate::{Addr, IndirectPredictor};

/// How many history bits each dispatch event contributes. Interpreter
/// dispatch branches are unconditional indirects, so instead of a
/// taken/not-taken bit the history absorbs two hashed bits of the
/// *target* — the signal that actually distinguishes occurrences.
const BITS_PER_EVENT: usize = 2;

/// Saturation limits: 2-bit confidence, 2-bit usefulness, 4-bit
/// use-alt-on-newly-allocated counter.
const CTR_MAX: u8 = 3;
const USEFUL_MAX: u8 = 3;
const USE_ALT_MIN: i8 = -8;
const USE_ALT_MAX: i8 = 7;

/// Configuration for [`Ittage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IttageConfig {
    /// log2 of the base (tagless last-target) table size.
    pub base_bits: u32,
    /// log2 of each tagged table's size.
    pub table_bits: u32,
    /// Width of the partial tags stored in tagged entries.
    pub tag_bits: u32,
    /// Shortest tagged-table history length, in bits. Each dispatch
    /// pushes two history bits, so a table covers half as many
    /// dispatches as its length.
    pub min_history: usize,
    /// Longest tagged-table history length, in bits (`max_history / 2`
    /// dispatches). The global history ring holds exactly this many.
    pub max_history: usize,
    /// Number of tagged tables (geometrically spaced histories).
    pub tables: usize,
    /// Usefulness counters age every this-many predictions.
    pub useful_reset_period: u64,
}

impl IttageConfig {
    /// A small budget: 4 tagged tables of 256 entries over histories
    /// 4..32 plus a 512-entry base — roughly the storage of the paper's
    /// Celeron BTB, for like-for-like comparisons.
    pub fn small() -> Self {
        Self {
            base_bits: 9,
            table_bits: 8,
            tag_bits: 9,
            min_history: 4,
            max_history: 32,
            tables: 4,
            useful_reset_period: 1 << 17,
        }
    }

    /// A medium budget: 6 tagged tables of 512 entries over histories
    /// 4..64 plus a 2048-entry base.
    pub fn medium() -> Self {
        Self {
            base_bits: 11,
            table_bits: 9,
            tag_bits: 10,
            min_history: 4,
            max_history: 64,
            tables: 6,
            useful_reset_period: 1 << 18,
        }
    }

    /// A 64KB-class budget after Seznec's championship ITTAGE: 8 tagged
    /// tables of 2048 entries over histories 4..256 plus an 8192-entry
    /// base.
    pub fn seznec_64kb() -> Self {
        Self {
            base_bits: 13,
            table_bits: 11,
            tag_bits: 12,
            min_history: 4,
            max_history: 256,
            tables: 8,
            useful_reset_period: 1 << 19,
        }
    }

    /// A Firestorm/Oryon-inspired point after the reverse-engineering in
    /// arXiv 2411.13900: few tables, moderate capacity, histories long
    /// enough to cover an interpreter's dispatch loop — modelling the
    /// indirect predictors measured in Apple M-series and Qualcomm Oryon
    /// cores rather than a championship configuration.
    pub fn firestorm() -> Self {
        Self {
            base_bits: 11,
            table_bits: 10,
            tag_bits: 11,
            min_history: 8,
            max_history: 96,
            tables: 3,
            useful_reset_period: 1 << 18,
        }
    }

    /// The geometric history length in bits of tagged table `i` (0-based,
    /// shortest first): `min * (max/min)^(i/(tables-1))`, rounded, and
    /// forced strictly increasing.
    pub fn history_lengths(&self) -> Vec<usize> {
        let mut lengths = Vec::with_capacity(self.tables);
        let (min, max) = (self.min_history as f64, self.max_history as f64);
        for i in 0..self.tables {
            let l = if self.tables == 1 {
                max
            } else {
                min * (max / min).powf(i as f64 / (self.tables - 1) as f64)
            };
            let mut l = l.round() as usize;
            if let Some(&prev) = lengths.last() {
                l = l.max(prev + 1);
            }
            lengths.push(l);
        }
        lengths
    }
}

impl Default for IttageConfig {
    fn default() -> Self {
        Self::medium()
    }
}

/// The valid flag folded into a stored tag (tags are at most 32 bits),
/// so an empty slot (stored as 0) never matches a probe.
const VALID: u64 = 1 << 32;

/// Which component supplied the final prediction for one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Component {
    /// The tagless base table (or a cold miss in it).
    Base,
    /// Tagged table `i` as provider.
    Table(usize),
    /// The alternate prediction overrode a weak provider.
    Alt,
}

/// Deterministic accounting of which ITTAGE component predicted, split
/// by outcome. `provider_hits[i]`/`provider_misses[i]` count events
/// where tagged table `i` supplied the final prediction; `base_*` count
/// events the base table supplied (no tag match); `alt_*` count events
/// where the alternate overrode a weak provider. Exposed so the
/// observability layer can attribute accuracy to history depth.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IttageBreakdown {
    /// Final predictions supplied by the base table that hit.
    pub base_hits: u64,
    /// Final predictions supplied by the base table that missed.
    pub base_misses: u64,
    /// Hits per tagged table acting as provider (index 0 = shortest history).
    pub provider_hits: Vec<u64>,
    /// Misses per tagged table acting as provider.
    pub provider_misses: Vec<u64>,
    /// Events where the alternate overrode a newly-allocated provider and hit.
    pub alt_hits: u64,
    /// Events where the alternate overrode a newly-allocated provider and missed.
    pub alt_misses: u64,
    /// Tagged entries allocated on mispredictions.
    pub allocations: u64,
    /// Mispredictions where no allocation slot was free (usefulness decayed instead).
    pub allocation_failures: u64,
}

impl IttageBreakdown {
    fn new(tables: usize) -> Self {
        Self { provider_hits: vec![0; tables], provider_misses: vec![0; tables], ..Self::default() }
    }

    /// Total events accounted for (must equal the executed count).
    pub fn total(&self) -> u64 {
        self.base_hits
            + self.base_misses
            + self.alt_hits
            + self.alt_misses
            + self.provider_hits.iter().sum::<u64>()
            + self.provider_misses.iter().sum::<u64>()
    }
}

/// Per-table folded-history state: one fold for the index and two
/// differently-sized folds for the tag (the standard TAGE trick to keep
/// tag and index decorrelated). All three fold the same number of bits.
#[derive(Debug, Clone)]
struct TableHistory {
    index_fold: FoldedHistory,
    tag_fold_a: FoldedHistory,
    tag_fold_b: FoldedHistory,
}

/// An ITTAGE-style indirect target predictor (see module docs).
///
/// # Examples
///
/// ```
/// use ivm_bpred::{Ittage, IttageConfig, IndirectPredictor};
///
/// let mut p = Ittage::new(IttageConfig::small());
/// // A history-dependent branch a BTB cannot learn: the target after
/// // (A, B) differs from the target after (B, A).
/// for _ in 0..64 {
///     p.predict_and_update(1, 0xA);
///     p.predict_and_update(1, 0xB);
///     p.predict_and_update(1, 0xC);
/// }
/// assert!(p.predict_and_update(1, 0xA));
/// ```
#[derive(Debug, Clone)]
pub struct Ittage {
    config: IttageConfig,
    lengths: Vec<usize>,
    base: Vec<Option<Addr>>,
    /// The tagged tables as flat struct-of-arrays storage: table `t`'s
    /// entry `i` lives at `t << table_bits | i` in every array.
    /// Partial tags with [`VALID`] set; 0 marks an empty slot.
    tags: Vec<u64>,
    targets: Vec<Addr>,
    /// 2-bit confidence counters.
    ctr: Vec<u8>,
    /// 2-bit usefulness counters.
    useful: Vec<u8>,
    history: GlobalHistory,
    folds: Vec<TableHistory>,
    use_alt_on_na: i8,
    /// Predictions left until the next usefulness aging.
    until_aging: u64,
    /// Alternates between clearing the high and low usefulness bit on
    /// successive aging epochs (Seznec's scheme, made deterministic).
    age_phase: bool,
    breakdown: IttageBreakdown,
}

impl Ittage {
    /// Creates an empty predictor with the given geometry.
    pub fn new(config: IttageConfig) -> Self {
        assert!(config.tables > 0, "need at least one tagged table");
        assert!(config.tables <= 16, "{} tagged tables is unreasonable", config.tables);
        assert!(config.base_bits <= 24, "base table of 2^{} entries", config.base_bits);
        assert!(config.table_bits <= 24, "tagged table of 2^{} entries", config.table_bits);
        assert!((1..=32).contains(&config.tag_bits), "tag width must be in 1..=32");
        assert!(config.min_history > 0, "minimum history must be positive");
        assert!(config.max_history >= config.min_history, "max history shorter than min history");
        assert!(config.useful_reset_period > 0, "aging period must be positive");
        let lengths = config.history_lengths();
        let folds = lengths
            .iter()
            .map(|&l| TableHistory {
                index_fold: FoldedHistory::new(l, config.table_bits as usize),
                // Two near-equal widths whose folds drift apart, so tags
                // do not alias the index fold.
                tag_fold_a: FoldedHistory::new(l, config.tag_bits as usize),
                tag_fold_b: FoldedHistory::new(l, (config.tag_bits as usize).max(2) - 1),
            })
            .collect();
        // History lengths count bits, and no fold reads past age
        // `length - 1`, so the longest table's length is all the ring
        // must hold.
        let max_len = *lengths.last().expect("at least one table");
        let entries = config.tables << config.table_bits;
        Self {
            base: vec![None; 1 << config.base_bits],
            tags: vec![0; entries],
            targets: vec![0; entries],
            ctr: vec![0; entries],
            useful: vec![0; entries],
            history: GlobalHistory::new(max_len),
            folds,
            use_alt_on_na: 0,
            until_aging: config.useful_reset_period,
            age_phase: false,
            breakdown: IttageBreakdown::new(config.tables),
            config,
            lengths,
        }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> IttageConfig {
        self.config
    }

    /// The realised geometric history lengths in bits, shortest table
    /// first.
    pub fn history_lengths(&self) -> &[usize] {
        &self.lengths
    }

    /// Deterministic provider/alternate accounting since construction or
    /// the last [`IndirectPredictor::reset`].
    pub fn breakdown(&self) -> &IttageBreakdown {
        &self.breakdown
    }

    /// Pushes one dispatch event into the global history and keeps every
    /// fold in sync. Each event contributes [`BITS_PER_EVENT`] hashed
    /// bits of the observed target, drawn from the hash's *high* end —
    /// a multiply-based hash mixes poorly into its low bits (bit 0 of
    /// `v * K` is bit 0 of `v` for odd `K`), and nearby targets sharing
    /// low hash bits would collapse the history to a constant. Both bits
    /// fold in one step, and a table's three folds share its two
    /// outgoing bits.
    fn push_history(&mut self, target: Addr) {
        let hashed = hash_words(&[target]) >> (64 - BITS_PER_EVENT);
        let (first, second) = (hashed & 1 != 0, hashed & 2 != 0);
        for f in &mut self.folds {
            let step = self.history.step2(f.index_fold.length(), first, second);
            f.index_fold.update2(step);
            f.tag_fold_a.update2(step);
            f.tag_fold_b.update2(step);
        }
        self.history.push(first);
        self.history.push(second);
    }

    /// Periodically ages all usefulness counters by clearing one of the
    /// two bits, alternating which — a fixed-cadence version of Seznec's
    /// scheme that keeps replays bit-exact.
    fn age_usefulness(&mut self) {
        let clear = if self.age_phase { 0b10 } else { 0b01 };
        self.age_phase = !self.age_phase;
        for u in &mut self.useful {
            *u &= !clear;
        }
    }
}

impl IndirectPredictor for Ittage {
    fn predict_and_update(&mut self, branch: Addr, target: Addr) -> bool {
        let cfg = &self.config;
        // Every index and tag hashes a tuple that starts with the branch.
        let prefix = HashPrefix::new(&[branch]);
        let index_mask = (1u64 << cfg.table_bits) - 1;
        let tag_mask = (1u64 << cfg.tag_bits) - 1;

        // --- Predict: find provider (longest matching) and alternate. ---
        // Fixed-size scratch (tables <= 16): no per-event allocation.
        // `slots[t]` is table t's probed entry in the flat arrays and
        // `tags[t]` its expected stored tag.
        let mut slots = [0usize; 16];
        let mut tags = [0u64; 16];
        for (t, ((slot, tag), f)) in slots.iter_mut().zip(&mut tags).zip(&self.folds).enumerate() {
            let t = t as u64;
            let index = prefix.hash(&[f.index_fold.value(), t]) & index_mask;
            *slot = ((t << cfg.table_bits) | index) as usize;
            let folded = f.tag_fold_a.value() ^ (f.tag_fold_b.value() << 1);
            *tag = (prefix.hash(&[folded, 0x100 | t]) & tag_mask) | VALID;
        }
        let tables = cfg.tables;
        let mut provider: Option<usize> = None;
        let mut alt: Option<usize> = None;
        for t in (0..tables).rev() {
            if self.tags[slots[t]] == tags[t] {
                if provider.is_none() {
                    provider = Some(t);
                } else {
                    alt = Some(t);
                    break;
                }
            }
        }
        let bidx = (prefix.hash(&[]) & ((1u64 << cfg.base_bits) - 1)) as usize;
        let base_pred = self.base[bidx];
        let alt_pred = match alt {
            Some(t) => Some(self.targets[slots[t]]),
            None => base_pred,
        };
        let (component, prediction) = match provider {
            Some(t) => {
                let s = slots[t];
                // A newly-allocated (weak) provider defers to the
                // alternate while use_alt_on_na says alternates are
                // winning.
                if self.ctr[s] == 0 && self.use_alt_on_na >= 0 && alt_pred.is_some() {
                    (Component::Alt, alt_pred)
                } else {
                    (Component::Table(t), Some(self.targets[s]))
                }
            }
            None => (Component::Base, base_pred),
        };
        let hit = prediction == Some(target);

        // --- Account. ---
        match component {
            Component::Base => {
                if hit {
                    self.breakdown.base_hits += 1;
                } else {
                    self.breakdown.base_misses += 1;
                }
            }
            Component::Table(t) => {
                if hit {
                    self.breakdown.provider_hits[t] += 1;
                } else {
                    self.breakdown.provider_misses[t] += 1;
                }
            }
            Component::Alt => {
                if hit {
                    self.breakdown.alt_hits += 1;
                } else {
                    self.breakdown.alt_misses += 1;
                }
            }
        }

        // --- Update the provider chain. ---
        if let Some(t) = provider {
            let s = slots[t];
            let provider_target = self.targets[s];
            let provider_correct = provider_target == target;
            let alt_correct = alt_pred == Some(target);
            // Track whether alternates beat weak providers.
            if self.ctr[s] == 0 && provider_correct != alt_correct {
                self.use_alt_on_na = if alt_correct {
                    (self.use_alt_on_na + 1).min(USE_ALT_MAX)
                } else {
                    (self.use_alt_on_na - 1).max(USE_ALT_MIN)
                };
            }
            // Usefulness: the provider proved its worth only when it
            // disagreed with the alternate and was right.
            if provider_target != alt_pred.unwrap_or(u64::MAX) {
                let u = &mut self.useful[s];
                if provider_correct {
                    *u = (*u + 1).min(USEFUL_MAX);
                } else if *u > 0 {
                    *u -= 1;
                }
            }
            // Confidence: strengthen on correct target, weaken on wrong,
            // replace once confidence is exhausted.
            let c = &mut self.ctr[s];
            if provider_correct {
                *c = (*c + 1).min(CTR_MAX);
            } else if *c > 0 {
                *c -= 1;
            } else {
                self.targets[s] = target;
            }
        }

        // --- Allocate on final misprediction. ---
        if !hit {
            let start = provider.map_or(0, |t| t + 1);
            if start < tables {
                // Deterministic first-fit: claim the first not-useful
                // entry in the shortest eligible table.
                let free = (start..tables).find(|&t| {
                    let s = slots[t];
                    self.tags[s] & VALID == 0 || self.useful[s] == 0
                });
                if let Some(t) = free {
                    let s = slots[t];
                    self.tags[s] = tags[t];
                    self.targets[s] = target;
                    self.ctr[s] = 0;
                    self.useful[s] = 0;
                    self.breakdown.allocations += 1;
                } else {
                    // Everything useful: decay so a future mispredict
                    // can get in.
                    for &s in &slots[start..tables] {
                        self.useful[s] -= 1;
                    }
                    self.breakdown.allocation_failures += 1;
                }
            }
        }

        // --- Base table and history always update. ---
        self.base[bidx] = Some(target);
        self.push_history(target);
        self.until_aging -= 1;
        if self.until_aging == 0 {
            self.until_aging = self.config.useful_reset_period;
            self.age_usefulness();
        }
        hit
    }

    fn reset(&mut self) {
        self.base.fill(None);
        self.tags.fill(0);
        self.targets.fill(0);
        self.ctr.fill(0);
        self.useful.fill(0);
        self.history.reset();
        for f in &mut self.folds {
            f.index_fold.reset();
            f.tag_fold_a.reset();
            f.tag_fold_b.reset();
        }
        self.use_alt_on_na = 0;
        self.until_aging = self.config.useful_reset_period;
        self.age_phase = false;
        self.breakdown = IttageBreakdown::new(self.config.tables);
    }

    fn describe(&self) -> String {
        format!(
            "ittage-{}x{}-h{}..{}-base{}",
            self.config.tables,
            1u64 << self.config.table_bits,
            self.config.min_history,
            self.config.max_history,
            1u64 << self.config.base_bits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdealBtb;

    fn drive(p: &mut impl IndirectPredictor, seq: &[(Addr, Addr)], reps: usize) -> usize {
        let mut misses = 0;
        for _ in 0..reps {
            for &(b, t) in seq {
                if !p.predict_and_update(b, t) {
                    misses += 1;
                }
            }
        }
        misses
    }

    /// A shared dispatch branch whose target depends on context — the
    /// interpreter pattern replication exists to fix in software.
    fn polymorphic_loop() -> Vec<(Addr, Addr)> {
        let br = 0x40;
        vec![(br, 0xA00), (0x41, 0x111), (br, 0xB00), (0x41, 0x222), (br, 0xC00), (0x42, 0x333)]
    }

    #[test]
    fn learns_history_dependent_targets() {
        let mut p = Ittage::new(IttageConfig::small());
        drive(&mut p, &polymorphic_loop(), 200); // warm up
        let misses = drive(&mut p, &polymorphic_loop(), 100);
        assert_eq!(misses, 0, "warmed ITTAGE should predict the periodic loop perfectly");
    }

    #[test]
    fn beats_ideal_btb_on_polymorphic_branches() {
        let mut ittage = Ittage::new(IttageConfig::small());
        let mut ideal = IdealBtb::new();
        drive(&mut ittage, &polymorphic_loop(), 200);
        drive(&mut ideal, &polymorphic_loop(), 200);
        let (i_miss, b_miss) = (
            drive(&mut ittage, &polymorphic_loop(), 100),
            drive(&mut ideal, &polymorphic_loop(), 100),
        );
        assert!(
            i_miss < b_miss,
            "ittage {i_miss} misses should beat ideal-btb {b_miss} on a polymorphic loop"
        );
    }

    #[test]
    fn monomorphic_branches_hit_after_warmup() {
        let mut p = Ittage::new(IttageConfig::medium());
        for _ in 0..8 {
            p.predict_and_update(7, 0x700);
        }
        assert!(p.predict_and_update(7, 0x700));
    }

    #[test]
    fn breakdown_accounts_every_event() {
        let mut p = Ittage::new(IttageConfig::small());
        let events = drive(&mut p, &polymorphic_loop(), 50);
        let _ = events;
        assert_eq!(p.breakdown().total(), 50 * polymorphic_loop().len() as u64);
    }

    #[test]
    fn reset_restores_cold_state_bit_exactly() {
        let stream: Vec<(Addr, Addr)> =
            (0..500).map(|i| ((i % 13) * 8, 0x1000 + (i % 7) * 64)).collect();
        let mut fresh = Ittage::new(IttageConfig::small());
        let fresh_verdicts: Vec<bool> =
            stream.iter().map(|&(b, t)| fresh.predict_and_update(b, t)).collect();
        let mut reused = Ittage::new(IttageConfig::small());
        drive(&mut reused, &stream, 1);
        reused.reset();
        let reused_verdicts: Vec<bool> =
            stream.iter().map(|&(b, t)| reused.predict_and_update(b, t)).collect();
        assert_eq!(fresh_verdicts, reused_verdicts, "reset must restore cold behaviour");
        assert_eq!(fresh.breakdown(), reused.breakdown());
    }

    /// History lengths count *bits*, and every dispatch pushes
    /// [`BITS_PER_EVENT`] of them, so the longest table sees exactly
    /// `max_history / 2` dispatches. Two predictors in the same state whose
    /// histories then differ in one pushed target still differ one
    /// dispatch short of that window, and from the window on their folds
    /// and verdicts are identical.
    #[test]
    fn history_window_is_max_history_bits_or_half_as_many_dispatches() {
        let history_bits = |t: Addr| hash_words(&[t]) >> (64 - BITS_PER_EVENT);
        let other = (1..).find(|&t| history_bits(0xA00 + t) != history_bits(0xA00)).unwrap();
        let folds = |p: &Ittage| -> Vec<(u64, u64, u64)> {
            p.folds
                .iter()
                .map(|f| (f.index_fold.value(), f.tag_fold_a.value(), f.tag_fold_b.value()))
                .collect()
        };
        let stream: Vec<(Addr, Addr)> =
            (0..3000).map(|i| ((i % 11) * 8, 0x1000 + (i * i % 13) * 64)).collect();
        for cfg in [
            IttageConfig::small(),
            IttageConfig::medium(),
            IttageConfig::firestorm(),
            IttageConfig::seznec_64kb(),
        ] {
            let window = cfg.max_history / BITS_PER_EVENT;
            let mut a = Ittage::new(cfg);
            assert_eq!(a.history.capacity(), cfg.max_history, "ring holds max_history bits");
            drive(&mut a, &stream[..1000], 1);
            let mut b = a.clone();
            a.push_history(0xA00);
            b.push_history(0xA00 + other);
            for &(_, t) in &stream[..window - 1] {
                a.push_history(t);
                b.push_history(t);
            }
            assert_ne!(folds(&a), folds(&b), "{cfg:?}: target {} dispatches old", window - 1);
            a.push_history(stream[window - 1].1);
            b.push_history(stream[window - 1].1);
            assert_eq!(folds(&a), folds(&b), "{cfg:?}: target {window} dispatches old");
            for &(br, t) in &stream[1000..] {
                assert_eq!(a.predict_and_update(br, t), b.predict_and_update(br, t));
                assert_eq!(folds(&a), folds(&b));
            }
            assert_eq!(a.breakdown(), b.breakdown());
        }
    }

    #[test]
    fn history_lengths_are_geometric_and_increasing() {
        let cfg = IttageConfig::seznec_64kb();
        let lengths = cfg.history_lengths();
        assert_eq!(lengths.len(), cfg.tables);
        assert_eq!(lengths[0], cfg.min_history);
        assert_eq!(*lengths.last().unwrap(), cfg.max_history);
        assert!(lengths.windows(2).all(|w| w[0] < w[1]), "{lengths:?} not increasing");
    }

    #[test]
    fn describe_names_geometry() {
        let p = Ittage::new(IttageConfig::small());
        assert_eq!(p.describe(), "ittage-4x256-h4..32-base512");
    }

    #[test]
    fn named_configs_construct() {
        for cfg in [
            IttageConfig::small(),
            IttageConfig::medium(),
            IttageConfig::seznec_64kb(),
            IttageConfig::firestorm(),
        ] {
            let mut p = Ittage::new(cfg);
            assert!(!p.predict_and_update(1, 2), "cold miss expected");
        }
    }
}
