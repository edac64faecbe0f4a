//! Dynamic tile scheduling over the vendored crossbeam scoped threads.
//!
//! The PR 1 kernel split the outer loop statically with `chunks_mut`:
//! one contiguous chunk per thread. That balances only when every
//! outcome costs the same, which the π filter and the popcount-dependent
//! weight gather do not guarantee — a thread whose chunk is dense in
//! low-distance, filter-passing neighbors finishes last while the rest
//! idle. Here every worker instead claims the next tile off a shared
//! atomic cursor, so load imbalance is bounded by a single tile rather
//! than by `N / threads`.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use hammer_pool::{CancelToken, Cancelled};

/// Runs `work(tile_index)` for every tile in `0..n_tiles` and returns
/// the results in tile order, checking the token before every tile.
///
/// With `threads <= 1` the tiles run in order on the calling thread.
/// Otherwise `threads` scoped workers self-schedule by `fetch_add`-ing a
/// shared cursor (the work-stealing discipline: idle threads
/// immediately pull the next unclaimed tile instead of waiting on a
/// static partition). `work` must be pure per tile — results are
/// collected per worker and stitched back into tile order after the
/// scope joins, so no worker ever writes shared state, and the output
/// is the same on either path and at any thread count.
///
/// A fired token makes every worker stop claiming; tiles already in
/// flight finish (bounding cancellation latency to one tile of work per
/// worker) and the whole call returns `Err(Cancelled)`.
///
/// # Panics
///
/// Panics if a worker panics (propagated by the scoped-thread join).
pub(crate) fn run_tiles<T, F>(
    n_tiles: usize,
    threads: usize,
    cancel: &CancelToken,
    work: F,
) -> Result<Vec<T>, Cancelled>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 {
        return (0..n_tiles)
            .map(|t| {
                cancel.check()?;
                Ok(work(t))
            })
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n_tiles).map(|_| None).collect();
    let mut cancelled = false;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|_| {
                    let mut claimed: Vec<(usize, T)> = Vec::new();
                    loop {
                        if cancel.is_cancelled() {
                            return Err(Cancelled);
                        }
                        let t = cursor.fetch_add(1, Ordering::Relaxed);
                        if t >= n_tiles {
                            break;
                        }
                        claimed.push((t, work(t)));
                    }
                    Ok(claimed)
                })
            })
            .collect();
        for handle in handles {
            match handle.join().expect("kernel worker does not panic") {
                Ok(claimed) => {
                    for (t, result) in claimed {
                        slots[t] = Some(result);
                    }
                }
                Err(Cancelled) => cancelled = true,
            }
        }
    })
    .expect("kernel worker does not panic");
    if cancelled {
        return Err(Cancelled);
    }
    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("every tile is claimed exactly once"))
        .collect())
}

/// The indices `0..n` cover in outer tile `t` of `tile` entries.
pub(crate) fn tile_range(t: usize, tile: usize, n: usize) -> Range<usize> {
    let start = t * tile;
    start..(start + tile).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<T: Send>(n_tiles: usize, threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
        run_tiles(n_tiles, threads, &CancelToken::new(), work).expect("token never fires")
    }

    #[test]
    fn covers_every_tile_in_order() {
        for threads in [1, 2, 7] {
            let got = run(23, threads, |t| t * 10);
            let want: Vec<usize> = (0..23).map(|t| t * 10).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn zero_tiles_is_empty() {
        for threads in [1, 4] {
            let got: Vec<usize> = run(0, threads, |t| t);
            assert!(got.is_empty());
        }
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_tile_runs() {
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            let ran = AtomicUsize::new(0);
            let got = run_tiles(100, threads, &token, |t| {
                ran.fetch_add(1, Ordering::Relaxed);
                t
            });
            assert_eq!(got, Err(Cancelled));
            assert_eq!(ran.load(Ordering::Relaxed), 0, "threads={threads}");
        }
    }

    #[test]
    fn mid_run_cancel_skips_remaining_tiles() {
        for threads in [1, 2] {
            let token = CancelToken::new();
            let ran = AtomicUsize::new(0);
            let got = run_tiles(1000, threads, &token, |t| {
                // Trip the token early; later claims must be refused.
                if t == 3 {
                    token.cancel();
                }
                ran.fetch_add(1, Ordering::Relaxed);
                t
            });
            assert_eq!(got, Err(Cancelled));
            let executed = ran.load(Ordering::Relaxed);
            assert!(executed < 1000, "ran all {executed} tiles despite cancel");
        }
    }

    #[test]
    fn imbalanced_tiles_all_complete() {
        // Tile cost varies by three orders of magnitude; the dynamic
        // cursor must still cover everything exactly once.
        let got = run(40, 7, |t| {
            let spins = if t % 13 == 0 { 200_000 } else { 100 };
            let mut acc = t as u64;
            for i in 0..spins {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(acc);
            t
        });
        assert_eq!(got, (0..40).collect::<Vec<_>>());
    }
}
