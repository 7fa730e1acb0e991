//! Folded global history for geometric-history-length predictors.
//!
//! ITTAGE-class predictors index each tagged table with a different
//! number of recent history bits (geometrically spaced lengths). Naively
//! re-hashing an L-bit history on every prediction costs O(L); the
//! standard trick (Michaud/Seznec) keeps a *folded* image of the newest
//! L bits in a w-bit circular-shift register that updates in O(1) per
//! event: shift in the incoming bit, cancel the bit that just aged past
//! L, and wrap the carry back into the low bits.
//!
//! [`GlobalHistory`] owns the raw bit ring (so the outgoing bit is
//! available when it ages out) and [`FoldedHistory`] maintains one
//! folded image per (length, width) pair. Predictors that push two bits
//! per event fold both in one [`FoldedHistory::update2`], with the
//! incoming and outgoing bits packed once per length by
//! [`GlobalHistory::step2`]. `FoldedHistory::recompute`
//! rebuilds the fold from raw bits in O(L) and exists purely so the
//! property tests can check the incremental update against a
//! from-scratch reference.

/// A ring buffer of the most recent global history bits.
///
/// Capacity is fixed at construction; `bit(age)` reads the bit pushed
/// `age` events ago (`age == 0` is the newest). Bits older than the
/// capacity read as zero, matching a predictor whose longest table has
/// simply not seen them. The ring itself is rounded up to a power of two
/// so that advancing and indexing are a mask, not a division; the slots
/// between the capacity and the ring size are never read.
#[derive(Clone, Debug)]
pub struct GlobalHistory {
    bits: Vec<u8>,
    mask: usize,
    capacity: usize,
    head: usize,
}

impl GlobalHistory {
    /// Creates a history ring holding the last `capacity` bits (all zero).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be positive");
        let ring = capacity.next_power_of_two();
        GlobalHistory { bits: vec![0; ring], mask: ring - 1, capacity, head: 0 }
    }

    /// How many of the newest bits this history holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pushes the newest bit, evicting the oldest.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.head = (self.head + 1) & self.mask;
        self.bits[self.head] = u8::from(bit);
    }

    /// Reads the bit pushed `age` events ago (0 = newest). Ages at or
    /// beyond the capacity read as zero.
    #[inline]
    pub fn bit(&self, age: usize) -> bool {
        age < self.capacity && self.bits[self.head.wrapping_sub(age) & self.mask] != 0
    }

    /// The [`FoldStep`] of pushing `first` and then `second` into a
    /// `length`-bit window: the two incoming bits plus the two they age
    /// out, namely the bit now at age `length - 1` (aged out by `first`)
    /// and the one at age `length - 2` (aged out by `second`; when
    /// `length == 1` that is `first` itself). Read it before pushing.
    #[inline]
    pub fn step2(&self, length: usize, first: bool, second: bool) -> FoldStep {
        let out_first = self.bit(length - 1);
        let out_second = if length == 1 { first } else { self.bit(length - 2) };
        FoldStep::new(first, second, out_first, out_second)
    }

    /// Resets all history bits to zero.
    pub fn reset(&mut self) {
        self.bits.fill(0);
        self.head = 0;
    }
}

/// The bits one two-bit history step moves through a fold: two incoming
/// bits and the two they age out. Every fold of the same length sees the
/// same step, so a predictor builds it once per length (see
/// [`GlobalHistory::step2`]) and hands it to each [`FoldedHistory::update2`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FoldStep(u8);

impl FoldStep {
    /// Packs the step that pushes `first` and then `second`, cancelling
    /// `out_first` (the bit `first` ages out) and `out_second` (the bit
    /// `second` ages out).
    #[inline]
    fn new(first: bool, second: bool, out_first: bool, out_second: bool) -> Self {
        FoldStep(
            u8::from(first)
                | u8::from(second) << 1
                | u8::from(out_first) << 2
                | u8::from(out_second) << 3,
        )
    }

    fn bit(self, i: u32) -> u64 {
        u64::from(self.0 >> i & 1)
    }
}

/// A w-bit circular-shift fold of the newest L global history bits.
///
/// Everything the updates need beyond the image itself is derived from
/// `(length, width)` once at construction, so an update is a few shifts,
/// xors and one mask, with no division.
#[derive(Clone, Debug)]
pub struct FoldedHistory {
    /// How many history bits are folded in.
    length: usize,
    /// Width of the folded image in bits (1..=63).
    width: u32,
    /// `(1 << width) - 1`.
    mask: u64,
    /// `length % width`: the column an outgoing bit is cancelled at.
    out_col: u32,
    /// The right shift of a two-column rotation, `width - 2` (0 for
    /// widths 1 and 2, where the rotation is the identity).
    rot_right: u32,
    /// What [`FoldedHistory::update2`] xors in after rotating, for each
    /// of the 16 [`FoldStep`]s.
    step_terms: [u64; 16],
    comp: u64,
}

impl FoldedHistory {
    /// Creates an empty fold of the newest `length` bits into `width` bits.
    pub fn new(length: usize, width: usize) -> Self {
        assert!(length > 0, "fold length must be positive");
        assert!((1..64).contains(&width), "fold width must be in 1..64");
        let w = width as u32;
        let out_col = (length % width) as u32;
        // Two single updates expand to
        //   rotl(c, 2) ^ rotl(first, 1) ^ second
        //     ^ (out_first << (out_col + 1) % w) ^ (out_second << out_col),
        // since the bits of the first update rotate one more column. With
        // every rotation amount taken mod the width this is exact for all
        // widths, including 1 and 2.
        let mut step_terms = [0u64; 16];
        for (i, term) in step_terms.iter_mut().enumerate() {
            let step = FoldStep(i as u8);
            *term = (step.bit(0) << (1 % w))
                ^ step.bit(1)
                ^ (step.bit(2) << ((out_col + 1) % w))
                ^ (step.bit(3) << out_col);
        }
        FoldedHistory {
            length,
            width: w,
            mask: (1u64 << w) - 1,
            out_col,
            rot_right: w.saturating_sub(2),
            step_terms,
            comp: 0,
        }
    }

    /// The number of history bits folded into this image.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Folds in the newest bit and cancels `outgoing`, the bit that was
    /// `length - 1` events old *before* this update (it is now aged out).
    #[inline]
    pub fn update(&mut self, newest: bool, outgoing: bool) {
        self.comp = (self.comp << 1) | u64::from(newest);
        // The evicted bit sits at position `length % width` after having
        // been left-shifted `length` times modulo the fold width.
        self.comp ^= u64::from(outgoing) << self.out_col;
        // Wrap the bit shifted out of the window back into the low end.
        self.comp ^= self.comp >> self.width;
        self.comp &= self.mask;
    }

    /// Folds in both bits of `step` at once: exactly `update(first,
    /// out_first)` followed by `update(second, out_second)`, as one
    /// two-column rotation plus the step's precomputed xor term.
    #[inline]
    pub fn update2(&mut self, step: FoldStep) {
        let c = self.comp;
        // For widths 1 and 2, `c << 2` falls outside the mask and
        // `c >> 0` is `c`: the identity rotation.
        let rotated = ((c << 2) | (c >> self.rot_right)) & self.mask;
        self.comp = rotated ^ self.step_terms[usize::from(step.0 & 0xf)];
    }

    /// The current folded image.
    #[inline]
    pub fn value(&self) -> u64 {
        self.comp
    }

    /// Clears the fold back to the all-zero-history state.
    pub fn reset(&mut self) {
        self.comp = 0;
    }

    /// Rebuilds the fold from the raw history in O(length): a bit enters
    /// the fold at column 0 and advances one column (mod `width`) per
    /// update, so the bit of age `a` sits at column `a % width`.
    /// Reference implementation for the property tests only.
    pub fn recompute(history: &GlobalHistory, length: usize, width: usize) -> u64 {
        let mask = (1u64 << width) - 1;
        let mut comp = 0u64;
        for age in 0..length {
            comp ^= u64::from(history.bit(age)) << (age % width);
        }
        comp & mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_matches_recompute_on_a_fixed_stream() {
        let mut hist = GlobalHistory::new(32);
        let mut fold = FoldedHistory::new(13, 7);
        // A mildly irregular bit stream.
        for i in 0..200u32 {
            let bit = (i * i + 3 * i) % 5 < 2;
            let outgoing = hist.bit(fold.length() - 1);
            hist.push(bit);
            fold.update(bit, outgoing);
            assert_eq!(
                fold.value(),
                FoldedHistory::recompute(&hist, 13, 7),
                "fold diverged from reference at event {i}"
            );
        }
    }

    #[test]
    fn width_bounds_hold() {
        let mut hist = GlobalHistory::new(8);
        let mut fold = FoldedHistory::new(8, 3);
        for i in 0..100u32 {
            let bit = i % 3 == 0;
            let outgoing = hist.bit(7);
            hist.push(bit);
            fold.update(bit, outgoing);
            assert!(fold.value() < 8, "fold exceeded its 3-bit width");
        }
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut hist = GlobalHistory::new(16);
        let mut fold = FoldedHistory::new(10, 5);
        for i in 0..50u32 {
            let outgoing = hist.bit(9);
            hist.push(i % 2 == 0);
            fold.update(i % 2 == 0, outgoing);
        }
        hist.reset();
        fold.reset();
        assert_eq!(fold.value(), 0);
        assert!(!hist.bit(0));
        assert_eq!(FoldedHistory::recompute(&hist, 10, 5), 0);
    }
}
