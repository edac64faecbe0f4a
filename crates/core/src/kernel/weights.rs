//! The padded weight table that makes the inner loop branchless.

use super::limbs::Limbs;

/// A per-distance weight table padded to [`Limbs::SLOTS`] entries: 65
/// for one-limb keys, 129 for two.
///
/// The Hamming distance of two keys is always below `SLOTS`. Algorithm
/// 1 only weighs distances `d < max_d` and the scalar kernel enforces
/// that with a `d < max_d` compare-and-branch whose outcome is close to
/// a coin flip on wide random supports (for 64-bit keys the distance
/// distribution is centered exactly on the usual `max_d = n/2` cutoff),
/// so the branch predictor can do nothing with it.
///
/// Padding the caller's `max_d`-long weight vector with zeros out to
/// every slot removes the cutoff from the instruction stream entirely:
/// the loop indexes `W[d]` unconditionally, and any distance at or
/// beyond the cutoff lands on a `0.0` weight and contributes nothing.
/// The table (520 or 1032 bytes) stays resident in L1 for the whole
/// pass.
pub(crate) struct PaddedWeights<L: Limbs> {
    table: L::Bins,
}

impl<L: Limbs> PaddedWeights<L> {
    /// Pads `weights` (the `max_d`-long vector of Algorithm 1 line 12)
    /// with zeros to every slot.
    ///
    /// Entries beyond the last slot are ignored: no two keys are that
    /// far apart, so dropping those weights is exact, not an
    /// approximation.
    pub(crate) fn new(weights: &[f64]) -> Self {
        let mut table = L::ZERO_BINS;
        for (slot, &w) in table.as_mut().iter_mut().zip(weights) {
            *slot = w;
        }
        Self { table }
    }

    /// The weight of Hamming distance `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= L::SLOTS`. [`Limbs::distance`] never returns
    /// such a value, and LLVM's value-range analysis of `count_ones`
    /// removes the bound check in the hot loop.
    #[inline(always)]
    pub(crate) fn get(&self, d: usize) -> f64 {
        self.table.as_ref()[d]
    }
}

#[cfg(test)]
mod tests {
    use super::super::limbs::TwoLimbs;
    use super::*;

    fn pads<L: Limbs>() {
        let w = PaddedWeights::<L>::new(&[0.5, 0.25]);
        assert_eq!(w.get(0), 0.5);
        assert_eq!(w.get(1), 0.25);
        for d in 2..L::SLOTS {
            assert_eq!(w.get(d), 0.0, "slot {d} must be zero-padded");
        }
    }

    #[test]
    fn pads_with_zeros() {
        pads::<&[u64]>();
        pads::<TwoLimbs>();
    }

    #[test]
    fn empty_weights_are_all_zero() {
        let one = PaddedWeights::<&[u64]>::new(&[]);
        assert!((0..65).all(|d| one.get(d) == 0.0));
        let two = PaddedWeights::<TwoLimbs>::new(&[]);
        assert!((0..129).all(|d| two.get(d) == 0.0));
    }

    #[test]
    fn oversized_weights_are_truncated_exactly() {
        // Distances past the last slot cannot occur, so truncation is
        // lossless.
        let long: Vec<f64> = (0..140).map(f64::from).collect();
        let one = PaddedWeights::<&[u64]>::new(&long);
        assert_eq!(one.get(64), 64.0);
        assert_eq!(one.table.len(), 65);
        let two = PaddedWeights::<TwoLimbs>::new(&long);
        assert_eq!(two.get(128), 128.0);
        assert_eq!(two.table.len(), 129);
    }
}
