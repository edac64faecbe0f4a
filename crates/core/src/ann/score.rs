//! The approximate scoring/CHS pass: Algorithm 1's neighborhood sums
//! evaluated over the forest's candidate pairs only.
//!
//! Semantically this is the exact kernel restricted to the sparse pair
//! graph the forest surfaces: every visited pair contributes exactly
//! what the blocked kernel would have given it (same per-distance
//! weight gather, same π filter), and unvisited pairs contribute
//! nothing. Because the weight schemes invert the *measured* CHS, using
//! the same candidate sets for both the CHS pass and the scoring pass
//! keeps the two self-consistent: a bin's aggregate contribution stays
//! `≈ N` whether its pairs were fully or partially covered, and the
//! recall loss shows up only as a (measured, bounded) perturbation of
//! the relative scores.
//!
//! Work is tiled over outcomes with the same work-stealing scheduler as
//! the blocked kernel; each tile reuses one candidate buffer. Candidate
//! ids arrive sorted, so per-outcome accumulation order is fixed by the
//! forest alone — results are bit-identical across thread counts.

use crate::config::FilterRule;
use crate::kernel::limbs::{Limbs, TwoLimbs};
use crate::kernel::schedule;
use crate::kernel::weights::PaddedWeights;
use hammer_pool::{CancelToken, Cancelled};

use super::AnnIndex;

/// Approximate [`crate::kernel::scores_sweep`]: every outcome's
/// neighborhood sum over its forest candidates only.
///
/// `probs` must be index-aligned with the support the index was built
/// from; `weights[d]` weighs distance `d` (shorter than 129 entries is
/// zero-padded, the `d < max_d` cutoff). The token is checked before
/// every tile (`threads <= 1`) or tile claim (work stealing).
/// Per-outcome accumulation order is fixed by the forest alone, so
/// neither tiling nor the thread count perturbs a result.
///
/// # Errors
///
/// Returns [`Cancelled`] when the token fires before the pass finishes.
///
/// # Panics
///
/// Panics if `probs` length differs from the indexed support.
pub fn try_scores_with_index(
    index: &AnnIndex,
    probs: &[f64],
    weights: &[f64],
    filter: FilterRule,
    threads: usize,
    tile_size: usize,
    cancel: &CancelToken,
) -> Result<Vec<f64>, Cancelled> {
    let _t = crate::obs_hooks::ann_query_hist().start();
    assert_eq!(
        probs.len(),
        index.len(),
        "probabilities must align with the indexed support"
    );
    let table = PaddedWeights::<TwoLimbs>::new(weights);
    let keys: TwoLimbs = (index.keys(), index.keys_hi());
    let n = probs.len();
    let tile = tile_size.max(1);
    let score_tile = |t: usize| {
        let range = schedule::tile_range(t, tile, n);
        let mut cands: Vec<u32> = Vec::new();
        let mut out = Vec::with_capacity(range.len());
        for i in range {
            index.candidates_of_into(i, &mut cands);
            let (x, px) = (keys.key(i), probs[i]);
            // Seed with the outcome's own probability (line 17), then
            // add every candidate that survives the filter. Candidates
            // include `i` itself: at d = 0 the π filter rejects it
            // (px > px is false) and the unfiltered rule excludes self.
            let mut acc = px;
            match filter {
                FilterRule::LowerProbabilityOnly => {
                    for &id in &cands {
                        let j = id as usize;
                        let d = TwoLimbs::distance(x, keys.key(j));
                        let py = probs[j];
                        acc += table.get(d) * if px > py { py } else { 0.0 };
                    }
                }
                FilterRule::None => {
                    for &id in &cands {
                        let j = id as usize;
                        if j == i {
                            continue;
                        }
                        acc += table.get(TwoLimbs::distance(x, keys.key(j))) * probs[j];
                    }
                }
            }
            out.push(acc);
        }
        out
    };
    schedule::run_tiles(n.div_ceil(tile), threads, cancel, score_tile).map(|tiles| tiles.concat())
}

/// Approximate [`crate::kernel::chs_sweep`]: the Hamming histogram
/// accumulated over forest candidate pairs only, truncated or
/// zero-padded to `max_d` bins. The diagonal (each outcome with itself)
/// is always covered — an outcome's own bucket is always probed — so
/// bin 0 matches the exact kernel exactly. Per-tile bin partials are
/// merged in tile order at any thread count, with the token checked
/// before every tile.
///
/// # Errors
///
/// Returns [`Cancelled`] when the token fires before the pass finishes.
///
/// # Panics
///
/// Panics if `probs` length differs from the indexed support.
pub fn try_global_chs_with_index(
    index: &AnnIndex,
    probs: &[f64],
    max_d: usize,
    threads: usize,
    tile_size: usize,
    cancel: &CancelToken,
) -> Result<Vec<f64>, Cancelled> {
    let _t = crate::obs_hooks::ann_query_hist().start();
    assert_eq!(
        probs.len(),
        index.len(),
        "probabilities must align with the indexed support"
    );
    let keys: TwoLimbs = (index.keys(), index.keys_hi());
    let n = probs.len();
    let tile = tile_size.max(1);
    let chs_tile = |t: usize| {
        let mut cands: Vec<u32> = Vec::new();
        let mut bins = TwoLimbs::ZERO_BINS;
        for i in schedule::tile_range(t, tile, n) {
            index.candidates_of_into(i, &mut cands);
            let x = keys.key(i);
            for &id in &cands {
                let j = id as usize;
                bins[TwoLimbs::distance(x, keys.key(j))] += probs[j];
            }
        }
        bins
    };
    let mut full = vec![0.0f64; TwoLimbs::SLOTS];
    for partial in schedule::run_tiles(n.div_ceil(tile), threads, cancel, chs_tile)? {
        for (acc, v) in full.iter_mut().zip(partial) {
            *acc += v;
        }
    }
    full.resize(max_d, 0.0);
    Ok(full)
}

#[cfg(test)]
mod tests {
    use super::super::{AnnIndex, AnnParams, DEFAULT_SEED};
    use super::*;
    use crate::kernel::reference;
    use hammer_dist::{BitString, Distribution};

    fn scores_with_index(
        index: &AnnIndex,
        probs: &[f64],
        weights: &[f64],
        filter: FilterRule,
        threads: usize,
        tile_size: usize,
    ) -> Vec<f64> {
        let live = CancelToken::new();
        try_scores_with_index(index, probs, weights, filter, threads, tile_size, &live).unwrap()
    }

    fn global_chs_with_index(
        index: &AnnIndex,
        probs: &[f64],
        max_d: usize,
        threads: usize,
        tile_size: usize,
    ) -> Vec<f64> {
        let live = CancelToken::new();
        try_global_chs_with_index(index, probs, max_d, threads, tile_size, &live).unwrap()
    }

    /// A mid-size pseudo-random support (64-bit keys, skewed probs).
    fn support(n: usize, n_bits: usize) -> Distribution {
        let mut state = 0xC0FF_EE11u64;
        let mut step = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        let mask = |v: u128| {
            if n_bits == 128 {
                v
            } else {
                v & ((1u128 << n_bits) - 1)
            }
        };
        let pairs = (0..n).map(|i| {
            let key = mask(u128::from(step()) | (u128::from(step()) << 64));
            (BitString::from_u128(key, n_bits), 1.0 + (i % 17) as f64)
        });
        Distribution::from_probs(n_bits, pairs).expect("positive weights")
    }

    fn exhaustive_params() -> AnnParams {
        // k = 1 + radius 1 probes every bucket: full recall by
        // construction, so the candidate path must match the exact
        // reference oracle.
        AnnParams {
            trees: 1,
            bits_per_hash: 1,
            probe_radius: 1,
            seed: DEFAULT_SEED,
        }
    }

    #[test]
    fn exhaustive_forest_matches_the_reference_oracle() {
        for n_bits in [64usize, 100] {
            let d = support(400, n_bits);
            let index = AnnIndex::build(&d, &exhaustive_params(), 2);
            let weights: Vec<f64> = (0..24).map(|dd| 1.0 / (1.0 + dd as f64)).collect();
            for filter in [FilterRule::LowerProbabilityOnly, FilterRule::None] {
                let oracle = reference::scores(d.as_slice(), &weights, filter);
                for threads in [1usize, 3] {
                    let got = scores_with_index(&index, d.probs(), &weights, filter, threads, 64);
                    for (a, b) in oracle.iter().zip(&got) {
                        assert!((a - b).abs() < 1e-9, "n_bits={n_bits} {a} vs {b}");
                    }
                }
            }
            for max_d in [0usize, 5, 40] {
                let oracle = reference::global_chs(d.as_slice(), max_d);
                let got = global_chs_with_index(&index, d.probs(), max_d, 3, 64);
                assert_eq!(got.len(), max_d);
                for (a, b) in oracle.iter().zip(&got) {
                    assert!((a - b).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let d = support(600, 64);
        let p = AnnParams {
            trees: 4,
            bits_per_hash: 5,
            probe_radius: 1,
            seed: DEFAULT_SEED,
        };
        let index = AnnIndex::build(&d, &p, 2);
        let weights: Vec<f64> = (0..16).map(|dd| (16 - dd) as f64).collect();
        let base = scores_with_index(
            &index,
            d.probs(),
            &weights,
            FilterRule::LowerProbabilityOnly,
            1,
            48,
        );
        for threads in [2usize, 5] {
            let got = scores_with_index(
                &index,
                d.probs(),
                &weights,
                FilterRule::LowerProbabilityOnly,
                threads,
                48,
            );
            assert_eq!(base, got, "threads={threads} diverged bit-for-bit");
        }
        let chs1 = global_chs_with_index(&index, d.probs(), 16, 1, 48);
        let chs4 = global_chs_with_index(&index, d.probs(), 16, 4, 48);
        for (a, b) in chs1.iter().zip(&chs4) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn diagonal_bin_is_exact() {
        let d = support(300, 64);
        let p = AnnParams {
            trees: 2,
            bits_per_hash: 8,
            probe_radius: 0,
            seed: DEFAULT_SEED,
        };
        let index = AnnIndex::build(&d, &p, 1);
        let chs = global_chs_with_index(&index, d.probs(), 4, 1, 64);
        // Bin 0 = Σ P(x) = 1: every outcome finds itself.
        assert!((chs[0] - 1.0).abs() < 1e-9);
    }
}
