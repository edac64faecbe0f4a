//! The one place the kernel knows how wide a key is.
//!
//! An outcome of up to 64 bits is one `u64` limb; a 65–128-bit outcome
//! is two ([`hammer_dist::Distribution::keys`] holds the low limbs,
//! [`hammer_dist::Distribution::keys_hi`] the high ones). The blocked
//! tiles, the padded weight table and the ANN candidate sweeps are
//! written once over [`Limbs`]; each width supplies only how to index
//! and split its keys, its distance function and its constants (65 or
//! 129 distance slots, 4 or 2 score lanes). The trait is implemented
//! directly on the borrowed structure-of-arrays slices, so selecting a
//! width copies no key.

use std::iter::Zip;
use std::ops::Range;
use std::slice::ChunksExact;

/// A borrowed run of keys in structure-of-arrays form.
pub(crate) trait Limbs: Copy + Send + Sync {
    /// One whole key.
    type Key: Copy + PartialEq;
    /// A zeroed table with one slot per possible distance.
    type Bins: Copy + Send + Sync + AsRef<[f64]> + AsMut<[f64]>;
    /// Full-width chunks of this run, each itself a run of keys.
    type Chunks: Iterator<Item = Self>;

    /// Every possible Hamming distance, `0..=bits`: 65 or 129.
    const SLOTS: usize;
    /// Independent score accumulators per outcome, 4 or 2. One limb
    /// needs four to hide the floating-point add latency; two limbs
    /// cost two XOR + POPCNTs per pair, so two lanes already do.
    const LANES: usize;
    /// [`Self::Bins`] with every slot zero.
    const ZERO_BINS: Self::Bins;

    /// The `i`-th key.
    fn key(self, i: usize) -> Self::Key;
    /// The keys in `range`.
    fn slice(self, range: Range<usize>) -> Self;
    /// The run split into `size`-key chunks plus the shorter remainder.
    fn chunks(self, size: usize) -> (Self::Chunks, Self);
    /// The Hamming distance of two keys, always `< SLOTS`.
    fn distance(x: Self::Key, y: Self::Key) -> usize;
}

/// Keys of 65–128-bit registers: the low and the high limbs.
pub(crate) type TwoLimbs<'a> = (&'a [u64], &'a [u64]);

impl<'a> Limbs for &'a [u64] {
    type Key = u64;
    type Bins = [f64; 65];
    type Chunks = ChunksExact<'a, u64>;

    const SLOTS: usize = 65;
    const LANES: usize = 4;
    const ZERO_BINS: Self::Bins = [0.0; 65];

    fn key(self, i: usize) -> u64 {
        self[i]
    }

    fn slice(self, range: Range<usize>) -> Self {
        &self[range]
    }

    fn chunks(self, size: usize) -> (Self::Chunks, Self) {
        let chunks = self.chunks_exact(size);
        let rest = chunks.remainder();
        (chunks, rest)
    }

    #[inline(always)]
    fn distance(x: u64, y: u64) -> usize {
        (x ^ y).count_ones() as usize
    }
}

impl<'a> Limbs for TwoLimbs<'a> {
    type Key = (u64, u64);
    type Bins = [f64; 129];
    type Chunks = Zip<ChunksExact<'a, u64>, ChunksExact<'a, u64>>;

    const SLOTS: usize = 129;
    const LANES: usize = 2;
    const ZERO_BINS: Self::Bins = [0.0; 129];

    fn key(self, i: usize) -> (u64, u64) {
        (self.0[i], self.1[i])
    }

    fn slice(self, range: Range<usize>) -> Self {
        (&self.0[range.clone()], &self.1[range])
    }

    fn chunks(self, size: usize) -> (Self::Chunks, Self) {
        let (lo, hi) = (self.0.chunks_exact(size), self.1.chunks_exact(size));
        let rest = (lo.remainder(), hi.remainder());
        (lo.zip(hi), rest)
    }

    #[inline(always)]
    fn distance((xlo, xhi): (u64, u64), (ylo, yhi): (u64, u64)) -> usize {
        ((xlo ^ ylo).count_ones() + (xhi ^ yhi).count_ones()) as usize
    }
}
