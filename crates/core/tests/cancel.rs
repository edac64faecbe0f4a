//! Cancellation contract tests for the compute core.
//!
//! Two promises, both load-bearing for the serving tier:
//!
//! 1. **Uncancelled runs are bit-identical** to the infallible entry
//!    points — threading a live token through the kernels must never
//!    perturb a result, across the narrow, wide and ANN dispatches.
//! 2. **A fired token stops the kernel early** — pre-expired tokens
//!    fail before any tile runs, and a mid-flight cancel returns well
//!    before the uncancelled run would have finished (the measured
//!    cancellation-latency test).

use std::time::{Duration, Instant};

use hammer_core::{
    AnnTuning, CancelToken, Cancelled, Hammer, HammerConfig, KernelTuning, NeighborhoodLimit,
};
use hammer_dist::{BitString, Distribution};

/// A pseudo-random support of `n` outcomes over `n_bits`-bit keys.
fn support(n: usize, n_bits: usize) -> Distribution {
    let mut state = 0xDEAD_BEEF_CAFE_1234u64;
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
        (BitString::from_u128(key, n_bits), 1.0 + (i % 13) as f64)
    });
    Distribution::from_probs(n_bits, pairs).expect("positive weights")
}

#[test]
fn uncancelled_default_config_is_bit_identical() {
    let token = CancelToken::new();
    for n_bits in [24usize, 64] {
        let d = support(1500, n_bits);
        for threads in [1usize, 2, 6] {
            let h = Hammer::new().with_threads(threads);
            let plain = h.reconstruct(&d);
            let tried = h.try_reconstruct(&d, &token).expect("token never fires");
            assert_eq!(plain, tried, "n_bits={n_bits} threads={threads}");
        }
    }
}

#[test]
fn uncancelled_wide_and_forced_parallel_paths_are_bit_identical() {
    let token = CancelToken::new();
    // Force the work-stealing path even on a small support, both limb
    // widths, with an awkward tile size.
    let config = HammerConfig {
        kernel: KernelTuning {
            parallel_threshold: 0,
            tile_size: 37,
            ..KernelTuning::default()
        },
        ..HammerConfig::paper()
    };
    for n_bits in [48usize, 100] {
        let d = support(900, n_bits);
        for threads in [2usize, 5] {
            let h = Hammer::with_config(config).with_threads(threads);
            assert_eq!(
                h.reconstruct(&d),
                h.try_reconstruct(&d, &token).expect("token never fires"),
                "n_bits={n_bits} threads={threads}"
            );
        }
    }
}

#[test]
fn uncancelled_ann_path_is_bit_identical() {
    let token = CancelToken::new();
    let d = support(600, 64);
    let h = Hammer::with_config(ann_config()).with_threads(3);
    assert_eq!(
        h.reconstruct(&d),
        h.try_reconstruct(&d, &token).expect("token never fires")
    );
}

/// The LSH-forest plan: a local neighborhood with a tiny crossover.
fn ann_config() -> HammerConfig {
    HammerConfig {
        neighborhood: NeighborhoodLimit::Fixed(10),
        kernel: KernelTuning {
            ann: AnnTuning {
                crossover: 2,
                trees: 3,
                ..AnnTuning::default()
            },
            ..KernelTuning::default()
        },
        ..HammerConfig::paper()
    }
}

#[test]
fn pre_expired_deadline_fails_fast_without_computing() {
    // One limb, two limbs and the LSH forest: every threaded plan.
    let cases = [
        (64usize, HammerConfig::paper()),
        (100, HammerConfig::paper()),
        (64, ann_config()),
    ];
    for (n_bits, config) in cases {
        let d = support(4000, n_bits);
        let h = Hammer::with_config(config).with_threads(4);
        let token = CancelToken::after(Duration::ZERO);
        let start = Instant::now();
        assert_eq!(
            h.try_reconstruct(&d, &token),
            Err(Cancelled),
            "n_bits={n_bits}"
        );
        // No kernel pass ran: an expired token returns in microseconds,
        // not the milliseconds a 4000² sweep costs. Generous bound for CI.
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "n_bits={n_bits}: pre-expired token still took {:?}",
            start.elapsed()
        );
    }
}

#[test]
fn counts_entry_point_honors_the_token() {
    let mut counts = hammer_dist::Counts::new(8).unwrap();
    for i in 0..200u64 {
        counts.record_n(BitString::from_u128(u128::from(i), 8), 1 + i % 7);
    }
    let h = Hammer::new().with_threads(2);
    let live = CancelToken::new();
    let out = h
        .try_reconstruct_counts(&counts, &live)
        .expect("live token");
    assert_eq!(out, h.reconstruct_counts(&counts));
    let fired = CancelToken::new();
    fired.cancel();
    assert_eq!(h.try_reconstruct_counts(&counts, &fired), Err(Cancelled));
}

/// The measured cancellation-latency contract: cancelling mid-flight
/// returns in a small fraction of the uncancelled runtime.
#[test]
fn mid_flight_cancel_stops_the_kernel_early() {
    // Big enough that the O(N²) sweep takes a comfortably measurable
    // time (~tens of thousands of outcomes), small enough for CI; one
    // and two key limbs.
    for (n, n_bits) in [(24_000, 64), (16_000, 100)] {
        let d = support(n, n_bits);
        let h = Hammer::new().with_threads(4);

        // Baseline: the uncancelled run.
        let start = Instant::now();
        let _full = h.reconstruct(&d);
        let uncancelled = start.elapsed();

        // Cancel from a watchdog thread at ~1/10 of the baseline.
        let token = CancelToken::new();
        let trip_after = uncancelled / 10;
        let watchdog = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(trip_after);
                token.cancel();
            })
        };
        let start = Instant::now();
        let got = h.try_reconstruct(&d, &token);
        let cancelled_in = start.elapsed();
        watchdog.join().unwrap();

        assert_eq!(got, Err(Cancelled), "n_bits={n_bits}");
        // The run must die well before the full sweep: under half the
        // uncancelled baseline even with scheduler noise (in practice
        // the stop is within one tile, i.e. milliseconds).
        assert!(
            cancelled_in < uncancelled / 2 + Duration::from_millis(50),
            "n_bits={n_bits}: cancel took {cancelled_in:?} vs uncancelled {uncancelled:?}"
        );
    }
}
