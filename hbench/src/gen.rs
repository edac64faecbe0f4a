//! Seeded HAMMER-shaped trial histograms: planted answers, each with a
//! 1–3-flip error halo, one isolated spurious outcome that out-counts
//! every answer, and a background of rare outcomes, scattered or in
//! small clusters.
//!
//! The seed picks the bit patterns and the background's counts (1 or
//! 2). The support size, the halo sizes and the answer, halo and
//! spurious counts are fixed by the [`Shape`], so the kernel's `O(N²)`
//! cost and the inputs' quality figures vary little between seeds.

use hammer_dist::{BitString, Counts};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The fixed structure of one generated histogram.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Register width in bits (1..=128).
    pub n_bits: usize,
    /// Distinct outcomes in the histogram.
    pub unique: usize,
    /// Planted correct answers.
    pub answers: usize,
    /// Halo outcomes per answer at distance 1, 2 and 3.
    pub halo: [usize; 3],
    /// Trials recorded on each answer.
    pub answer_count: u64,
    /// Background outcomes come in clusters of this many: a center and
    /// its 1–3-flip neighbors (1 scatters them uniformly).
    pub cluster: usize,
}

/// A generated input and the answers planted in it.
#[derive(Debug, Clone)]
pub struct Planted {
    pub counts: Counts,
    pub answers: Vec<BitString>,
}

/// Trials per halo outcome at distance 1, 2 and 3, as shares of the
/// answer's own count.
const HALO_SHARE: [f64; 3] = [0.08, 0.012, 0.003];

/// The spurious outcome's count over an answer's: above 1, so before
/// reconstruction the strongest outcome is wrong (IST < 1).
const SPURIOUS_RATIO: f64 = 1.25;

pub fn random_bits(rng: &mut StdRng, n: usize) -> BitString {
    let v = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
    let mask = if n == 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    };
    BitString::from_u128(v & mask, n)
}

fn flip_random(rng: &mut StdRng, x: BitString, d: usize) -> BitString {
    let n = x.len();
    let mut y = x;
    let mut flipped = Vec::with_capacity(d);
    while flipped.len() < d {
        let q = rng.gen_range(0..n);
        if !flipped.contains(&q) {
            flipped.push(q);
            y = y.flip_bit(q);
        }
    }
    y
}

/// Generates one histogram of the given shape; the same `(shape, seed)`
/// always gives the same histogram.
///
/// # Panics
///
/// Panics if the shape asks for more outcomes than its register holds.
pub fn planted(shape: &Shape, seed: u64) -> Planted {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = shape.n_bits;
    let mut counts = Counts::new(n).expect("shape widths are 1..=128");
    let fresh = |counts: &Counts, x: BitString| counts.count(x) == 0;

    let mut answers = Vec::with_capacity(shape.answers);
    while answers.len() < shape.answers {
        let a = random_bits(&mut rng, n);
        if fresh(&counts, a) {
            counts.record_n(a, shape.answer_count);
            answers.push(a);
        }
    }
    for &a in &answers {
        for (d, (&size, &share)) in shape.halo.iter().zip(&HALO_SHARE).enumerate() {
            let count = ((shape.answer_count as f64 * share).round() as u64).max(1);
            let mut placed = 0;
            let mut tries = 0;
            while placed < size && tries < 8 * size {
                tries += 1;
                let y = flip_random(&mut rng, a, d + 1);
                if fresh(&counts, y) {
                    counts.record_n(y, count);
                    placed += 1;
                }
            }
        }
    }
    // The spurious outcome sits beyond the half-width neighborhood of
    // every answer's halo, so it cannot collect their mass: the input
    // keeps HAMMER's premise and promises its answers ranked first.
    let spurious_count = (shape.answer_count as f64 * SPURIOUS_RATIO) as u64;
    loop {
        let s = random_bits(&mut rng, n);
        if fresh(&counts, s) && s.min_distance_to(&answers) as usize >= n.div_ceil(2) + 3 {
            counts.record_n(s, spurious_count);
            break;
        }
    }
    assert!(
        counts.len() <= shape.unique,
        "halo of {} outcomes exceeds the support of {}",
        counts.len(),
        shape.unique
    );
    while counts.len() < shape.unique {
        let center = random_bits(&mut rng, n);
        if !fresh(&counts, center) {
            continue;
        }
        counts.record_n(center, rng.gen_range(1..=2));
        let mut members = 1;
        let mut tries = 0;
        while members < shape.cluster && counts.len() < shape.unique && tries < 8 * shape.cluster {
            tries += 1;
            let d = rng.gen_range(1..=3);
            let y = flip_random(&mut rng, center, d);
            if fresh(&counts, y) {
                counts.record_n(y, 1);
                members += 1;
            }
        }
    }
    Planted { counts, answers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_fixes_the_support_and_seed_fixes_the_bits() {
        let shape = Shape {
            n_bits: 20,
            unique: 300,
            answers: 1,
            halo: [20, 40, 40],
            answer_count: 1000,
            cluster: 4,
        };
        let a = planted(&shape, 7);
        let b = planted(&shape, 7);
        let c = planted(&shape, 8);
        assert_eq!(a.counts.len(), 300);
        assert_eq!(a.counts, b.counts);
        assert_ne!(a.counts, c.counts);
        assert_eq!(c.counts.len(), 300);
    }
}
