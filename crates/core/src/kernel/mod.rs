//! The `O(N²)` scoring kernel, rebuilt for throughput.
//!
//! Algorithm 1's cost is one all-pairs Hamming pass over the `N` unique
//! observed outcomes — every outcome scores every other outcome. The
//! kernel is therefore where reconstruction time lives (Table 3). It
//! exposes exactly two sweeps, [`chs_sweep`] (the distribution-wide CHS,
//! lines 3–8) and [`scores_sweep`] (every outcome's neighborhood score,
//! lines 16–21), both cancellable, built around five ideas:
//!
//! 1. **Structure-of-arrays layout.** The support arrives as dense key
//!    limbs and a `probs: &[f64]` array
//!    ([`Distribution::keys`](hammer_dist::Distribution::keys),
//!    [`keys_hi`](hammer_dist::Distribution::keys_hi) and
//!    [`probs`](hammer_dist::Distribution::probs), zero-copy) instead
//!    of interleaved `(u128, f64)` pairs. The XOR+POPCNT distance stream
//!    and the probability stream prefetch independently.
//!
//! 2. **One kernel over the limb count.** [`Keys`] names the width: one
//!    `u64` limb for registers of up to 64 bits, two for 65–128. The
//!    tiles are written once over a crate-private limb trait whose two
//!    implementations wrap the borrowed slices and supply only key
//!    access, the distance function and the per-width constants — 65
//!    or 129 distance slots, 4 or 2 score lanes.
//!
//! 3. **Cache-blocked tiles.** Both sweeps walk the support in tiles of
//!    [`KernelTuning::tile_size`] entries (default 512: 4 KiB per key
//!    limb and 4 KiB of probabilities). Each inner tile is reused by
//!    every outcome of the current outer tile while it is L1-resident,
//!    instead of re-streaming the full `N`-entry support from L2/L3
//!    once per outcome.
//!
//! 4. **A branchless inner loop.** The per-distance weight vector is
//!    padded with zeros to one slot per possible distance, so the
//!    `d < max_d` cutoff test disappears: out-of-neighborhood distances
//!    hit a zero weight and contribute nothing. The π-filter compare is
//!    a pure select (`if pass { py } else { 0.0 }`), and each
//!    [`FilterRule`] gets its own monomorphized loop. Both conditions
//!    are near-50/50 coin flips on wide random supports, so replacing
//!    two unpredictable branches per pair with compare-masks is worth
//!    several multiples of throughput on its own.
//!
//! 5. **Work-stealing scheduling.** Above
//!    [`KernelTuning::parallel_threshold`], outer tiles are claimed
//!    dynamically off a shared atomic cursor by crossbeam scoped worker
//!    threads, bounding load imbalance by one tile. Below it, the sweep
//!    runs on the calling thread. The token is checked before every
//!    tile claim, so a fired token stops a sweep within one tile of
//!    work per worker.
//!
//! Scores never depend on the thread count; the CHS is the same at every
//! count ≥ 2 (one thread, or a support below the threshold, sums it in
//! one pass). No result depends on the token unless it fires.
//!
//! The scalar kernel survives in [`reference`](mod@reference) as the
//! correctness oracle (property-tested to `≤ 1e-9` agreement with both
//! widths) and the speedup baseline recorded by `repro bench-kernel`.

use crate::config::{FilterRule, KernelTuning};
use hammer_pool::{CancelToken, Cancelled};

mod blocked;
pub(crate) mod limbs;
pub mod reference;
pub(crate) mod schedule;
pub(crate) mod weights;

use limbs::Limbs;
use weights::PaddedWeights;

/// The key limbs of a support, borrowed in structure-of-arrays form and
/// index-aligned with its probabilities.
#[derive(Debug, Clone, Copy)]
pub enum Keys<'a> {
    /// Registers of at most 64 bits: one `u64` per outcome.
    One(&'a [u64]),
    /// Registers of 65–128 bits: the low limbs, then the high limbs.
    Two(&'a [u64], &'a [u64]),
}

impl Keys<'_> {
    fn assert_aligned(self, probs: &[f64]) {
        let aligned = match self {
            Keys::One(keys) => keys.len() == probs.len(),
            Keys::Two(lo, hi) => lo.len() == probs.len() && hi.len() == probs.len(),
        };
        assert!(
            aligned,
            "SoA key limbs and probabilities must be index-aligned"
        );
    }
}

/// The distribution-wide CHS of Algorithm 1 (lines 3–8) over the SoA
/// support: `chs[d] = Σ_x Σ_y [hamming(x,y) = d] · P(y)` for `d < max_d`
/// (zero-padded past the widest possible distance).
///
/// Below the tuning's parallel threshold, or at `threads <= 1`, the
/// sweep is one accumulator pass on the calling thread that checks the
/// token only before it starts. Above it, per-tile histograms are
/// work-stolen with the token checked before every claim, and summed in
/// tile order.
///
/// # Errors
///
/// Returns [`Cancelled`] when the token fires before the pass finishes.
///
/// # Panics
///
/// Panics if the key limbs and `probs` differ in length.
pub fn chs_sweep(
    keys: Keys<'_>,
    probs: &[f64],
    max_d: usize,
    threads: usize,
    tuning: &KernelTuning,
    cancel: &CancelToken,
) -> Result<Vec<f64>, Cancelled> {
    keys.assert_aligned(probs);
    match keys {
        Keys::One(keys) => chs(keys, probs, max_d, threads, tuning, cancel),
        Keys::Two(lo, hi) => chs((lo, hi), probs, max_d, threads, tuning, cancel),
    }
}

fn chs<L: Limbs>(
    keys: L,
    probs: &[f64],
    max_d: usize,
    threads: usize,
    tuning: &KernelTuning,
    cancel: &CancelToken,
) -> Result<Vec<f64>, Cancelled> {
    let n = probs.len();
    let tile = tuning.tile_size.max(1);
    // Below the threshold the whole support is one outer tile: splitting
    // its single accumulator pass would change the summation order.
    let (outer, threads) = if threads <= 1 || n < tuning.parallel_threshold {
        (n.max(1), 1)
    } else {
        (tile, threads)
    };
    let partials = schedule::run_tiles(n.div_ceil(outer), threads, cancel, |t| {
        blocked::chs_tile(keys, probs, schedule::tile_range(t, outer, n), tile)
    })?;
    let mut sum = vec![0.0; L::SLOTS];
    for partial in partials {
        for (acc, v) in sum.iter_mut().zip(&partial) {
            *acc += v;
        }
    }
    sum.resize(max_d, 0.0);
    Ok(sum)
}

/// Every outcome's neighborhood score (Algorithm 1 lines 16–21) over
/// the SoA support: for each `x`,
/// `score(x) = P(x) + Σ_y [hd(x,y) < max_d ∧ filter(x,y)] · W[d] · P(y)`
/// with `max_d = weights.len()`.
///
/// Outer tiles run on the calling thread below the tuning's parallel
/// threshold (or at `threads <= 1`) and are work-stolen above it; the
/// token is checked before each. Per-outcome sums are independent, so
/// the split never changes a score's bits.
///
/// # Errors
///
/// Returns [`Cancelled`] when the token fires before the pass finishes.
///
/// # Panics
///
/// Panics if the key limbs and `probs` differ in length.
pub fn scores_sweep(
    keys: Keys<'_>,
    probs: &[f64],
    weights: &[f64],
    filter: FilterRule,
    threads: usize,
    tuning: &KernelTuning,
    cancel: &CancelToken,
) -> Result<Vec<f64>, Cancelled> {
    keys.assert_aligned(probs);
    match keys {
        Keys::One(keys) => scores(keys, probs, weights, filter, threads, tuning, cancel),
        Keys::Two(lo, hi) => scores((lo, hi), probs, weights, filter, threads, tuning, cancel),
    }
}

fn scores<L: Limbs>(
    keys: L,
    probs: &[f64],
    weights: &[f64],
    filter: FilterRule,
    threads: usize,
    tuning: &KernelTuning,
    cancel: &CancelToken,
) -> Result<Vec<f64>, Cancelled> {
    let n = probs.len();
    let tile = tuning.tile_size.max(1);
    let threads = if n < tuning.parallel_threshold {
        1
    } else {
        threads
    };
    let padded = PaddedWeights::<L>::new(weights);
    let per_tile = schedule::run_tiles(n.div_ceil(tile), threads, cancel, |t| {
        blocked::scores_tile(
            keys,
            probs,
            schedule::tile_range(t, tile, n),
            &padded,
            filter,
            tile,
        )
    })?;
    Ok(per_tile.concat())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic support over one limb (high limbs all zero) or two,
    /// with ~96 significant bits when two.
    fn synthetic(n: usize, two_limbs: bool) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
        let mut state = 99u64;
        let mut step = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state
        };
        let mut lo = Vec::with_capacity(n);
        let mut hi = Vec::with_capacity(n);
        let mut probs = Vec::with_capacity(n);
        for i in 0..n {
            lo.push(step());
            hi.push(if two_limbs { step() & 0xFFFF_FFFF } else { 0 });
            probs.push(1.0 + (i % 11) as f64);
        }
        (lo, hi, probs)
    }

    fn keys<'a>(lo: &'a [u64], hi: &'a [u64], two_limbs: bool) -> Keys<'a> {
        if two_limbs {
            Keys::Two(lo, hi)
        } else {
            Keys::One(lo)
        }
    }

    fn entries(lo: &[u64], hi: &[u64], probs: &[f64]) -> Vec<(u128, f64)> {
        lo.iter()
            .zip(hi)
            .zip(probs)
            .map(|((&l, &h), &p)| (u128::from(l) | (u128::from(h) << 64), p))
            .collect()
    }

    fn scores(
        keys: Keys<'_>,
        probs: &[f64],
        w: &[f64],
        filter: FilterRule,
        threads: usize,
        tuning: &KernelTuning,
    ) -> Vec<f64> {
        scores_sweep(keys, probs, w, filter, threads, tuning, &CancelToken::new()).unwrap()
    }

    fn chs(
        keys: Keys<'_>,
        probs: &[f64],
        max_d: usize,
        threads: usize,
        tuning: &KernelTuning,
    ) -> Vec<f64> {
        chs_sweep(keys, probs, max_d, threads, tuning, &CancelToken::new()).unwrap()
    }

    #[test]
    fn parallel_scores_match_the_oracle_across_schedules() {
        let (lo, hi, probs) = synthetic(700, false);
        let e = entries(&lo, &hi, &probs);
        let w: Vec<f64> = (0..48).map(|d| 0.5f64.powi(d)).collect();
        // Force the work-stealing path even on this small support, with
        // a tile size that does not divide N evenly.
        let tuning = KernelTuning {
            parallel_threshold: 0,
            tile_size: 37,
            ..KernelTuning::default()
        };
        for filter in [FilterRule::LowerProbabilityOnly, FilterRule::None] {
            let oracle = reference::scores(&e, &w, filter);
            for threads in [1, 2, 7] {
                let got = scores(Keys::One(&lo), &probs, &w, filter, threads, &tuning);
                assert_eq!(got.len(), oracle.len());
                for (a, b) in oracle.iter().zip(&got) {
                    assert!((a - b).abs() < 1e-9, "threads={threads}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn global_chs_matches_the_oracle_and_honors_max_d() {
        let serial = KernelTuning::default();
        let stealing = KernelTuning {
            parallel_threshold: 0,
            tile_size: 33,
            ..KernelTuning::default()
        };
        let (lo, hi, probs) = synthetic(300, false);
        let e = entries(&lo, &hi, &probs);
        for max_d in [0, 1, 7, 32, 65, 80, 129, 140] {
            let oracle = reference::global_chs(&e, max_d);
            let one = chs(Keys::One(&lo), &probs, max_d, 1, &serial);
            let many = chs(Keys::One(&lo), &probs, max_d, 3, &stealing);
            assert_eq!(one.len(), max_d);
            assert_eq!(many.len(), max_d);
            for ((a, b), c) in oracle.iter().zip(&one).zip(&many) {
                assert!((a - b).abs() < 1e-9);
                assert!((a - c).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empty_and_zero_weight_tables_leave_the_seed() {
        let tuning = KernelTuning::default();
        for two_limbs in [false, true] {
            let (lo, hi, probs) = synthetic(64, two_limbs);
            let k = keys(&lo, &hi, two_limbs);
            let empty = scores(k, &probs, &[], FilterRule::LowerProbabilityOnly, 2, &tuning);
            assert_eq!(empty, probs);
            let zeros = scores(k, &probs, &[0.0; 129], FilterRule::None, 2, &tuning);
            for (a, b) in zeros.iter().zip(&probs) {
                assert!((a - b).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn empty_support_is_fine() {
        let tuning = KernelTuning::default();
        let k = Keys::One(&[]);
        assert!(scores(k, &[], &[1.0], FilterRule::None, 2, &tuning).is_empty());
        assert_eq!(chs(k, &[], 3, 2, &tuning), vec![0.0; 3]);
    }
}

/// The two-limb (65–128-bit) inputs of the same sweeps, pinned to the
/// `u128` oracle — including the distance bins above 64 that only two
/// limbs can reach.
#[cfg(test)]
mod wide {
    mod tests {
        use crate::config::{FilterRule, KernelTuning};
        use crate::kernel::{chs_sweep, reference, scores_sweep, Keys};
        use hammer_pool::CancelToken;

        /// A synthetic wide support: ~96 significant bits, both limbs
        /// populated.
        fn support(n: usize) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
            let mut state = 0x5EED_u64;
            let mut step = || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1442695040888963407);
                state
            };
            let mut lo = Vec::with_capacity(n);
            let mut hi = Vec::with_capacity(n);
            let mut probs = Vec::with_capacity(n);
            for i in 0..n {
                lo.push(step());
                hi.push(step() & 0xFFFF_FFFF); // 96-bit registers
                probs.push(1.0 / (1.0 + i as f64));
            }
            (lo, hi, probs)
        }

        fn entries(lo: &[u64], hi: &[u64], probs: &[f64]) -> Vec<(u128, f64)> {
            lo.iter()
                .zip(hi)
                .zip(probs)
                .map(|((&l, &h), &p)| (u128::from(l) | (u128::from(h) << 64), p))
                .collect()
        }

        fn chs(
            lo: &[u64],
            hi: &[u64],
            probs: &[f64],
            max_d: usize,
            threads: usize,
            tuning: &KernelTuning,
        ) -> Vec<f64> {
            let cancel = CancelToken::new();
            chs_sweep(Keys::Two(lo, hi), probs, max_d, threads, tuning, &cancel).unwrap()
        }

        #[test]
        fn wide_scores_match_the_u128_oracle() {
            let (lo, hi, probs) = support(500);
            let e = entries(&lo, &hi, &probs);
            let w: Vec<f64> = (0..48).map(|d| 1.0 / (1.0 + d as f64)).collect();
            let tuning = KernelTuning {
                parallel_threshold: 0,
                tile_size: 37,
                ..KernelTuning::default()
            };
            let cancel = CancelToken::new();
            for filter in [FilterRule::LowerProbabilityOnly, FilterRule::None] {
                let oracle = reference::scores(&e, &w, filter);
                for threads in [1, 2, 7] {
                    let got = scores_sweep(
                        Keys::Two(&lo, &hi),
                        &probs,
                        &w,
                        filter,
                        threads,
                        &tuning,
                        &cancel,
                    )
                    .unwrap();
                    assert_eq!(got.len(), oracle.len());
                    for (a, b) in oracle.iter().zip(&got) {
                        assert!((a - b).abs() < 1e-9, "threads={threads}: {a} vs {b}");
                    }
                }
            }
        }

        #[test]
        fn wide_chs_matches_the_oracle_and_honors_max_d() {
            let (lo, hi, probs) = support(300);
            let e = entries(&lo, &hi, &probs);
            let tuning = KernelTuning {
                parallel_threshold: 0,
                tile_size: 19,
                ..KernelTuning::default()
            };
            for max_d in [0usize, 1, 48, 129, 140] {
                let oracle = reference::global_chs(&e, max_d);
                let serial = chs(&lo, &hi, &probs, max_d, 1, &tuning);
                let parallel = chs(&lo, &hi, &probs, max_d, 3, &tuning);
                assert_eq!(serial.len(), max_d);
                assert_eq!(parallel.len(), max_d);
                for ((a, b), c) in oracle.iter().zip(&serial).zip(&parallel) {
                    assert!((a - b).abs() < 1e-9);
                    assert!((a - c).abs() < 1e-9);
                }
            }
        }

        #[test]
        fn distances_above_64_land_in_high_bins() {
            // Complementary 128-bit keys: distance exactly 128, reachable
            // only through the two-limb bins.
            let lo = vec![0u64, u64::MAX];
            let hi = vec![0u64, u64::MAX];
            let probs = vec![0.5, 0.5];
            let chs = chs(&lo, &hi, &probs, 129, 1, &KernelTuning::default());
            assert!((chs[0] - 1.0).abs() < 1e-12); // the diagonal
            assert!((chs[128] - 1.0).abs() < 1e-12); // the complements
            assert!(chs[1..128].iter().all(|&v| v == 0.0));
        }

        #[test]
        fn empty_support_is_fine() {
            let tuning = KernelTuning::default();
            let cancel = CancelToken::new();
            let scores = scores_sweep(
                Keys::Two(&[], &[]),
                &[],
                &[1.0],
                FilterRule::None,
                1,
                &tuning,
                &cancel,
            );
            assert!(scores.unwrap().is_empty());
            assert_eq!(chs(&[], &[], &[], 3, 1, &tuning), vec![0.0; 3]);
        }
    }
}
