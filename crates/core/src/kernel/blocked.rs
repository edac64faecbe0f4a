//! Cache-blocked, branchless tile kernels — the serial building blocks
//! both the serial entry points and the work-stealing scheduler compose,
//! written once over the key width ([`Limbs`]).
//!
//! Layout of one tile of work: for an outer tile of outcomes
//! `x ∈ x_range`, the support is swept in inner tiles of `tile`
//! entries. One inner tile of the SoA layout (`tile` keys per limb +
//! `tile` probabilities ≈ 8 KiB at the default tile size and one limb)
//! is reused by every `x` of the outer tile, so it stays L1-resident
//! across the whole reuse window instead of being re-streamed from
//! L2/L3 per outcome.

use std::ops::Range;

use crate::config::FilterRule;

use super::limbs::Limbs;
use super::weights::PaddedWeights;

/// A monomorphized neighbor filter: returns `P(y)` when `y` may
/// contribute to `x`'s score and `0.0` otherwise.
///
/// Each implementation is a pure comparison-select, so the optimizer
/// compiles `W[d] * contribution(...)` down to compare + mask (no
/// branch), and each [`FilterRule`] gets its own fully specialized copy
/// of the scoring loop.
trait Filter {
    fn contribution<K: PartialEq>(xk: K, px: f64, yk: K, py: f64) -> f64;
}

/// Algorithm 1 line 20: only strictly-less-probable neighbors count.
struct LowerProbabilityOnly;

impl Filter for LowerProbabilityOnly {
    #[inline(always)]
    fn contribution<K: PartialEq>(_xk: K, px: f64, _yk: K, py: f64) -> f64 {
        if px > py {
            py
        } else {
            0.0
        }
    }
}

/// The unfiltered ablation: every neighbor except `x` itself counts.
struct ExcludeSelf;

impl Filter for ExcludeSelf {
    #[inline(always)]
    fn contribution<K: PartialEq>(xk: K, _px: f64, yk: K, py: f64) -> f64 {
        if yk != xk {
            py
        } else {
            0.0
        }
    }
}

/// Neighborhood scores for the outcomes in `x_range` against the whole
/// support, using `tile`-entry inner blocking. Returns one score per
/// outcome of `x_range`, in order.
pub(super) fn scores_tile<L: Limbs>(
    keys: L,
    probs: &[f64],
    x_range: Range<usize>,
    weights: &PaddedWeights<L>,
    filter: FilterRule,
    tile: usize,
) -> Vec<f64> {
    match filter {
        FilterRule::LowerProbabilityOnly => {
            scores_tile_mono::<L, LowerProbabilityOnly>(keys, probs, x_range, weights, tile)
        }
        FilterRule::None => scores_tile_mono::<L, ExcludeSelf>(keys, probs, x_range, weights, tile),
    }
}

fn scores_tile_mono<L: Limbs, F: Filter>(
    keys: L,
    probs: &[f64],
    x_range: Range<usize>,
    weights: &PaddedWeights<L>,
    tile: usize,
) -> Vec<f64> {
    let tile = tile.max(1);
    // Seed every score with its own probability (Algorithm 1 line 17).
    let mut out: Vec<f64> = probs[x_range.clone()].to_vec();
    let n = probs.len();
    for y0 in (0..n).step_by(tile) {
        let y1 = (y0 + tile).min(n);
        let ykeys = keys.slice(y0..y1);
        let yprobs = &probs[y0..y1];
        for (slot, i) in out.iter_mut().zip(x_range.clone()) {
            *slot += neighborhood_block::<L, F>(keys.key(i), probs[i], ykeys, yprobs, weights);
        }
    }
    out
}

/// The weighted, filtered neighborhood mass one outcome collects from
/// one L1-resident block of the support.
///
/// Unrolled [`Limbs::LANES`] ways with independent accumulators so
/// throughput is not serialized on the ~4-cycle latency of a single
/// floating-point add chain. The lane sums are combined pairwise at the
/// end; this changes summation order relative to the scalar oracle,
/// which is why equivalence is asserted to `≤ 1e-9` rather than
/// bit-for-bit.
#[inline]
fn neighborhood_block<L: Limbs, F: Filter>(
    xk: L::Key,
    px: f64,
    ykeys: L,
    yprobs: &[f64],
    weights: &PaddedWeights<L>,
) -> f64 {
    // One accumulator per lane; `L::LANES` is 4 or 2.
    let mut acc = [0.0f64; 4];
    let (kchunks, krest) = ykeys.chunks(L::LANES);
    let mut pchunks = yprobs.chunks_exact(L::LANES);
    for (kc, pc) in kchunks.zip(&mut pchunks) {
        for lane in 0..L::LANES {
            let yk = kc.key(lane);
            acc[lane] += weights.get(L::distance(xk, yk)) * F::contribution(xk, px, yk, pc[lane]);
        }
    }
    for (j, &py) in pchunks.remainder().iter().enumerate() {
        let yk = krest.key(j);
        acc[0] += weights.get(L::distance(xk, yk)) * F::contribution(xk, px, yk, py);
    }
    // Pairwise: `(a0 + a1) + (a2 + a3)` at four lanes, `a0 + a1` at two.
    let low = acc[0] + acc[1];
    if L::LANES == 4 {
        low + (acc[2] + acc[3])
    } else {
        low
    }
}

/// The Hamming histogram contribution of the outcomes in `x_range`:
/// `out[d] = Σ_{x ∈ x_range} Σ_y [hamming(x,y) = d] · P(y)`, one bin per
/// [`Limbs::SLOTS`].
///
/// Branchless by construction — every distance lands in a bin, so there
/// is no cutoff test; callers truncate to `max_d` afterwards. Two
/// interleaved accumulator tables break the store-to-load dependency
/// through the randomly-indexed bin that a single table would serialize
/// on.
pub(super) fn chs_tile<L: Limbs>(
    keys: L,
    probs: &[f64],
    x_range: Range<usize>,
    tile: usize,
) -> Vec<f64> {
    let tile = tile.max(1);
    let mut even = L::ZERO_BINS;
    let mut odd = L::ZERO_BINS;
    let (even, odd) = (even.as_mut(), odd.as_mut());
    let n = probs.len();
    for y0 in (0..n).step_by(tile) {
        let y1 = (y0 + tile).min(n);
        let ykeys = keys.slice(y0..y1);
        let yprobs = &probs[y0..y1];
        for i in x_range.clone() {
            let xk = keys.key(i);
            let (kchunks, krest) = ykeys.chunks(2);
            let mut pchunks = yprobs.chunks_exact(2);
            for (kc, pc) in kchunks.zip(&mut pchunks) {
                even[L::distance(xk, kc.key(0))] += pc[0];
                odd[L::distance(xk, kc.key(1))] += pc[1];
            }
            for (j, &py) in pchunks.remainder().iter().enumerate() {
                even[L::distance(xk, krest.key(j))] += py;
            }
        }
    }
    even.iter().zip(odd.iter()).map(|(a, b)| a + b).collect()
}

#[cfg(test)]
mod tests {
    use super::super::reference;
    use super::*;

    fn support() -> (Vec<u64>, Vec<f64>) {
        let mut state = 0xDEAD_BEEFu64;
        let mut keys = Vec::new();
        let mut probs = Vec::new();
        for i in 0..600u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1442695040888963407);
            keys.push(state);
            probs.push(1.0 / (1.0 + i as f64));
        }
        (keys, probs)
    }

    fn entries(keys: &[u64], probs: &[f64]) -> Vec<(u128, f64)> {
        keys.iter()
            .map(|&k| u128::from(k))
            .zip(probs.iter().copied())
            .collect()
    }

    #[test]
    fn tile_scores_match_oracle_for_every_tile_size() {
        let (keys, probs) = support();
        let keys = keys.as_slice();
        let e = entries(keys, &probs);
        let w: Vec<f64> = (0..32).map(|d| 1.0 / (1.0 + d as f64)).collect();
        let padded = PaddedWeights::new(&w);
        for filter in [FilterRule::LowerProbabilityOnly, FilterRule::None] {
            let oracle = reference::scores(&e, &w, filter);
            for tile in [1, 3, 64, 600, 4096] {
                let got = scores_tile(keys, &probs, 0..keys.len(), &padded, filter, tile);
                for (a, b) in oracle.iter().zip(&got) {
                    assert!((a - b).abs() < 1e-9, "tile={tile}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn partial_x_ranges_compose() {
        let (keys, probs) = support();
        let keys = keys.as_slice();
        let padded = PaddedWeights::new(&[0.9, 0.5, 0.25]);
        let whole = scores_tile(
            keys,
            &probs,
            0..keys.len(),
            &padded,
            FilterRule::LowerProbabilityOnly,
            128,
        );
        let mut stitched = scores_tile(
            keys,
            &probs,
            0..251,
            &padded,
            FilterRule::LowerProbabilityOnly,
            128,
        );
        stitched.extend(scores_tile(
            keys,
            &probs,
            251..keys.len(),
            &padded,
            FilterRule::LowerProbabilityOnly,
            128,
        ));
        assert_eq!(whole.len(), stitched.len());
        for (a, b) in whole.iter().zip(&stitched) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn chs_matches_oracle() {
        let (keys, probs) = support();
        let keys = keys.as_slice();
        let e = entries(keys, &probs);
        let oracle = reference::global_chs(&e, 65);
        let got = chs_tile(keys, &probs, 0..keys.len(), 96);
        assert_eq!(got.len(), 65);
        for (d, (a, b)) in oracle.iter().zip(&got).enumerate() {
            assert!((a - b).abs() < 1e-9, "bin {d}: {a} vs {b}");
        }
    }
}
