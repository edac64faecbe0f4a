//! Lazily registered global-registry handles for the compute-tier
//! entry-point timings. Per-call instrumentation only — the branchless
//! kernel inner loops are never touched.

use std::sync::OnceLock;

use hammer_obs::{Counter, Histogram, Registry};

/// Wall time of one `Hammer::reconstruct`/`try_reconstruct` call.
pub(crate) fn reconstruct_hist() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| Registry::global().histogram("core.reconstruct_ns"))
}

/// Wall time of one LSH-forest build.
pub(crate) fn ann_build_hist() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| Registry::global().histogram("core.ann.build_ns"))
}

/// Wall time of one ANN scoring/CHS sweep over a built index.
pub(crate) fn ann_query_hist() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| Registry::global().histogram("core.ann.query_ns"))
}

/// Calls resolved to each kernel plan (`core.plan.{reference,exact,
/// exact_wide,ann}`), in that order — one relaxed add per call, so an
/// operator can see which kernel ran.
pub(crate) fn plan_counters() -> &'static [Counter; 4] {
    static C: OnceLock<[Counter; 4]> = OnceLock::new();
    C.get_or_init(|| {
        ["reference", "exact", "exact_wide", "ann"]
            .map(|plan| Registry::global().counter(&format!("core.plan.{plan}")))
    })
}
