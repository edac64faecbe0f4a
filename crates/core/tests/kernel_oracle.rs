//! Property tests pinning the blocked/branchless/work-stealing kernel
//! to the scalar reference oracle, plus golden fingerprints of
//! `Hammer::reconstruct` outputs on every kernel plan.
//!
//! Every schedule — blocked serial at one thread, work-stealing with 2
//! and 7 workers — over one and two key limbs must agree with
//! `kernel::reference` to `≤ 1e-9` on random supports, for both filter
//! rules and for degenerate weight tables (empty, all-zero, and full
//! 65- and 129-slot tables covering every possible Hamming distance).

use hammer_core::kernel::{self, reference, Keys};
use hammer_core::{
    AnnTuning, CancelToken, FilterRule, Hammer, HammerConfig, KernelTuning, NeighborhoodLimit,
};
use hammer_dist::fingerprint::Fnv1a;
use hammer_dist::{BitString, Distribution};
use proptest::prelude::*;

const TOLERANCE: f64 = 1e-9;

/// A random SoA support over up-to-64-bit keys, as both layouts.
#[allow(clippy::type_complexity)]
fn support() -> impl Strategy<Value = (Vec<(u128, f64)>, Vec<u64>, Vec<f64>)> {
    (1usize..=64)
        .prop_flat_map(|n| {
            let max = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            proptest::collection::btree_map(0..=max, 1u64..5000, 1..90)
        })
        .prop_map(|map| {
            let entries: Vec<(u128, f64)> = map
                .into_iter()
                .map(|(k, w)| (u128::from(k), w as f64 / 5000.0))
                .collect();
            let keys = entries.iter().map(|&(k, _)| k as u64).collect();
            let probs = entries.iter().map(|&(_, p)| p).collect();
            (entries, keys, probs)
        })
}

/// A random SoA support over 65–128-bit keys, with the high limb
/// populated, as both layouts. (The vendored proptest has no `u128`
/// range strategy, so the high limb derives from a SplitMix-style hash
/// of the distinct low limbs — keys stay distinct and both limbs vary.)
#[allow(clippy::type_complexity)]
fn wide_support() -> impl Strategy<Value = (Vec<(u128, f64)>, Vec<u64>, Vec<u64>, Vec<f64>)> {
    (
        65usize..=128,
        proptest::collection::btree_map(0u64..=u64::MAX, 1u64..5000, 1..70),
    )
        .prop_map(|(n, map)| {
            let hi_mask = if n == 128 {
                u64::MAX
            } else {
                (1u64 << (n - 64)) - 1
            };
            let mut entries: Vec<(u128, f64)> = map
                .into_iter()
                .map(|(lo, w)| {
                    let mut z = lo.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    let hi = z & hi_mask;
                    (u128::from(lo) | (u128::from(hi) << 64), w as f64 / 5000.0)
                })
                .collect();
            entries.sort_by_key(|&(k, _)| k);
            let lo = entries.iter().map(|&(k, _)| k as u64).collect();
            let hi = entries.iter().map(|&(k, _)| (k >> 64) as u64).collect();
            let probs = entries.iter().map(|&(_, p)| p).collect();
            (entries, lo, hi, probs)
        })
}

/// Weight tables including every degenerate shape the issue calls out.
fn weight_table() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        // Empty: max_d = 0, every score collapses to its seed.
        Just(Vec::new()),
        // All-zero (the "no mass in any bin" shape of zero-CHS weights).
        (1usize..=65).prop_map(|len| vec![0.0; len]),
        // A full 65-slot table: every representable distance of 64-bit
        // keys weighted (the wide tests stretch this to 129 slots).
        proptest::collection::vec(0.0f64..2.0, 65..66),
        // A full 129-slot table: every representable two-limb distance.
        proptest::collection::vec(0.0f64..2.0, 129..130),
        // Ordinary random tables of arbitrary cutoff.
        proptest::collection::vec(0.0f64..2.0, 1..40),
    ]
}

/// Tile sizes that exercise remainder handling (tiles that do not
/// divide the support) alongside the default.
fn tuning() -> impl Strategy<Value = KernelTuning> {
    prop_oneof![
        Just(KernelTuning::default()),
        (1usize..90).prop_map(|tile_size| KernelTuning {
            // Forces the work-stealing path regardless of support size.
            parallel_threshold: 0,
            tile_size,
            ..KernelTuning::default()
        }),
    ]
}

fn scores(
    keys: Keys<'_>,
    probs: &[f64],
    weights: &[f64],
    filter: FilterRule,
    threads: usize,
    tuning: &KernelTuning,
) -> Vec<f64> {
    let live = CancelToken::new();
    kernel::scores_sweep(keys, probs, weights, filter, threads, tuning, &live).unwrap()
}

fn chs(
    keys: Keys<'_>,
    probs: &[f64],
    max_d: usize,
    threads: usize,
    tuning: &KernelTuning,
) -> Vec<f64> {
    let live = CancelToken::new();
    kernel::chs_sweep(keys, probs, max_d, threads, tuning, &live).unwrap()
}

proptest! {
    #[test]
    fn blocked_kernel_matches_oracle_across_schedules(
        (entries, keys, probs) in support(),
        weights in weight_table(),
        tuning in tuning(),
    ) {
        for filter in [FilterRule::LowerProbabilityOnly, FilterRule::None] {
            let oracle = reference::scores(&entries, &weights, filter);
            for threads in [1usize, 2, 7] {
                let got = scores(Keys::One(&keys), &probs, &weights, filter, threads, &tuning);
                prop_assert_eq!(got.len(), oracle.len());
                for (a, b) in oracle.iter().zip(&got) {
                    prop_assert!(
                        (a - b).abs() < TOLERANCE,
                        "threads {}: {} vs {}", threads, a, b
                    );
                }
            }
        }
    }

    #[test]
    fn global_chs_matches_oracle_across_schedules(
        (entries, keys, probs) in support(),
        max_d in 0usize..70,
        tuning in tuning(),
    ) {
        let oracle = reference::global_chs(&entries, max_d);
        for threads in [1usize, 2, 7] {
            let got = chs(Keys::One(&keys), &probs, max_d, threads, &tuning);
            prop_assert_eq!(got.len(), max_d);
            for (a, b) in oracle.iter().zip(&got) {
                prop_assert!((a - b).abs() < TOLERANCE);
            }
        }
    }
}

proptest! {
    #[test]
    fn wide_kernel_matches_oracle_across_schedules(
        (entries, lo, hi, probs) in wide_support(),
        weights in weight_table(),
        tuning in tuning(),
    ) {
        for filter in [FilterRule::LowerProbabilityOnly, FilterRule::None] {
            let oracle = reference::scores(&entries, &weights, filter);
            for threads in [1usize, 2, 7] {
                let got = scores(Keys::Two(&lo, &hi), &probs, &weights, filter, threads, &tuning);
                prop_assert_eq!(got.len(), oracle.len());
                for (a, b) in oracle.iter().zip(&got) {
                    prop_assert!(
                        (a - b).abs() < TOLERANCE,
                        "threads {}: {} vs {}", threads, a, b
                    );
                }
            }
        }
    }

    #[test]
    fn wide_global_chs_matches_oracle_across_schedules(
        (entries, lo, hi, probs) in wide_support(),
        max_d in 0usize..135,
        tuning in tuning(),
    ) {
        let oracle = reference::global_chs(&entries, max_d);
        for threads in [1usize, 2, 7] {
            let got = chs(Keys::Two(&lo, &hi), &probs, max_d, threads, &tuning);
            prop_assert_eq!(got.len(), max_d);
            for (a, b) in oracle.iter().zip(&got) {
                prop_assert!((a - b).abs() < TOLERANCE);
            }
        }
    }
}

/// A seeded pseudo-random support of `n` outcomes over `n_bits`-bit
/// keys with skewed (non-uniform) probabilities.
fn seeded(n: usize, n_bits: usize, seed: u64) -> Distribution {
    let mut state = seed;
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
    let pairs: Vec<(BitString, f64)> = (0..n)
        .map(|i| {
            let key = mask(u128::from(step()) | (u128::from(step()) << 64));
            (BitString::from_u128(key, n_bits), 1.0 + (i % 19) as f64)
        })
        .collect();
    Distribution::from_probs(n_bits, pairs).expect("positive weights")
}

/// FNV-1a over every output entry's key limbs and probability bits.
fn fingerprint(d: &Distribution) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(d.n_bits());
    h.write_usize(d.len());
    for &(key, p) in d.as_slice() {
        h.write_u64(key as u64);
        h.write_u64((key >> 64) as u64);
        h.write_f64(p);
    }
    h.finish()
}

/// Golden bit-identity: `Hammer::reconstruct` outputs on seeded supports
/// hash to fixed constants on every kernel path — blocked serial,
/// work-stealing over one and two key limbs, the unfiltered rule, the
/// LSH forest and the scalar reference. A refactor of any kernel or of
/// the dispatch must leave every output bit where it was; a deliberate
/// numeric change has to update these constants in the same commit.
#[test]
fn reconstruct_outputs_match_the_golden_fingerprints() {
    let paper = HammerConfig::paper();
    let unfiltered = HammerConfig {
        filter: FilterRule::None,
        ..paper
    };
    let ann = HammerConfig {
        neighborhood: NeighborhoodLimit::Fixed(10),
        kernel: KernelTuning {
            ann: AnnTuning {
                crossover: 2,
                ..AnnTuning::default()
            },
            ..KernelTuning::default()
        },
        ..paper
    };
    // (label, outcomes, bits, config, threads, expected fingerprint);
    // `t<k>` is the thread count, `none` the unfiltered rule, `ref` the
    // scalar oracle pinned by one thread.
    let cases: [(&str, usize, usize, HammerConfig, usize, u64); 12] = [
        ("serial w24", 500, 24, paper, 2, 0x78bb_8624_fb37_a0ae),
        ("w64 t2", 3000, 64, paper, 2, 0x0efd_6036_0d8f_dd2f),
        ("w64 t5", 3000, 64, paper, 5, 0x0efd_6036_0d8f_dd2f),
        ("w100 t2", 3000, 100, paper, 2, 0x9ad7_af71_6302_68c3),
        ("w100 t5", 3000, 100, paper, 5, 0x9ad7_af71_6302_68c3),
        ("none w24", 500, 24, unfiltered, 2, 0xa3d1_dea0_5ed3_fe56),
        ("none w64", 3000, 64, unfiltered, 3, 0x3137_5039_3611_a361),
        ("ann w64", 3000, 64, ann, 2, 0xe2ec_f937_9838_c6d9),
        ("ann w100", 3000, 100, ann, 3, 0xcc03_1613_70ab_9c44),
        ("ref w24", 500, 24, paper, 1, 0xfa4a_877b_3668_64ca),
        ("ref w100", 500, 100, paper, 1, 0x13db_085d_75f5_2ecc),
        ("ref none", 500, 64, unfiltered, 1, 0xbed3_b8ce_e7ea_2bcd),
    ];
    let mut mismatches = Vec::new();
    for (label, n, n_bits, config, threads, want) in cases {
        let d = seeded(n, n_bits, 0x601D_0000 ^ (n_bits as u64));
        let got = fingerprint(
            &Hammer::with_config(config)
                .with_threads(threads)
                .reconstruct(&d),
        );
        if got != want {
            mismatches.push(format!("{label}: {got:#018x} (want {want:#018x})"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
