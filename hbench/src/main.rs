//! The HAMMER benchmark.
//!
//! ```text
//! hbench --workload <batch-large|serve-mixed|sample-pipeline>
//!        --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, measures for about
//! `--seconds`, checks its outputs, and prints as its last stdout line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics with the timing layer of
//! `hammer_obs` switched off. `--trace 1` spends half the time on an
//! untraced measurement and half on a traced one, and reports the
//! per-layer metrics: self times of the spans the benchmark records
//! around its own calls into each layer, the server's stage histograms,
//! the serving latency of the untraced half, and the tracing overhead. The spans are written to
//! `.hbench_out/trace-<workload>-<seed>.jsonl` when the run ends.
//! `DESIGN.md` next to this package lists what each metric means on
//! each workload and which end-to-end metric each layer should move.

mod batch;
mod gen;
mod pipeline;
mod report;
mod serve_mixed;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Outcome;
use spans::Tracer;

/// Every end-to-end metric, reported by every workload (see
/// `DESIGN.md` for each one's definition per workload). The latency
/// percentiles of `serve-mixed` are per-layer figures: on the machine
/// the benchmark was defined on they did not repeat from run to run
/// within any bound a regression check could use.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "batch_s",
    "slo_frac.peak",
    "pst_gain",
    "ist_gain",
    "peak_rss_mb",
];

/// Every per-layer metric with its unit. A workload that does no work
/// in a layer reports that layer's metrics as 0.
const PER_LAYER: [(&str, &str); 56] = [
    ("core.reconstruct_ms.w64", "ms"),
    ("core.reconstruct_ms.w128", "ms"),
    ("core.reconstruct_ms.local", "ms"),
    ("core.chs_ms.w64", "ms"),
    ("core.chs_ms.w128", "ms"),
    ("core.chs_ms.local", "ms"),
    ("core.scores_ms.w64", "ms"),
    ("core.scores_ms.w128", "ms"),
    ("core.scores_ms.local", "ms"),
    ("core.mpairs_per_s.w64", "Mpairs/s"),
    ("core.mpairs_per_s.w128", "Mpairs/s"),
    ("core.mpairs_per_s.local", "Mpairs/s"),
    ("core.layer_gap_frac.w64", "frac"),
    ("core.layer_gap_frac.w128", "frac"),
    ("core.layer_gap_frac.local", "frac"),
    ("core.ann.build_ms", "ms"),
    ("core.ann.tvd_vs_exact", "tvd"),
    ("dist.normalize_us", "us"),
    ("dist.apply_ms.w64", "ms"),
    ("dist.apply_ms.w128", "ms"),
    ("dist.apply_ms.local", "ms"),
    ("sim.dense.sample_ms", "ms"),
    ("sim.dense.trials_per_s", "1/s"),
    ("sim.stab.sample_ms", "ms"),
    ("sim.stab.trials_per_s", "1/s"),
    ("sim.unique_outcomes", "count"),
    ("serve.p50_ms.steady", "ms"),
    ("serve.p99_ms.steady", "ms"),
    ("serve.p50_ms.peak", "ms"),
    ("serve.p99_ms.peak", "ms"),
    ("serve.decode_ms.p50", "ms"),
    ("serve.decode_ms.p99", "ms"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.p99", "ms"),
    ("serve.cache_probe_ms.p50", "ms"),
    ("serve.cache_probe_ms.p99", "ms"),
    ("serve.store_load_ms.p50", "ms"),
    ("serve.store_load_ms.p99", "ms"),
    ("serve.coalesce_wait_ms.p50", "ms"),
    ("serve.coalesce_wait_ms.p99", "ms"),
    ("serve.compute_ms.p50", "ms"),
    ("serve.compute_ms.p99", "ms"),
    ("serve.encode_ms.p50", "ms"),
    ("serve.encode_ms.p99", "ms"),
    ("serve.write_ms.p50", "ms"),
    ("serve.write_ms.p99", "ms"),
    ("serve.cache_hit_rate", "frac"),
    ("serve.coalesced", "count"),
    ("serve.store_loads", "count"),
    ("serve.store_spills", "count"),
    ("serve.busy", "count"),
    ("serve.deadline_sheds", "count"),
    ("codec.request_decode_us", "us"),
    ("codec.reply_encode_us", "us"),
    ("loadgen.lag_ms.p99", "ms"),
    ("obs.tracing_overhead_frac", "frac"),
];

/// Set-ups timed at each point of the run where [`SetupClock::time`]
/// is called.
pub const SETUP_PER_POINT: usize = 4;

/// Where the traced run writes its spans and the server its store.
pub const OUT_DIR: &str = ".hbench_out";

/// One run's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Run {
    /// The untraced measurement's time budget, and whether a traced
    /// measurement of the same length follows it.
    pub fn split_budget(&self) -> (Duration, bool) {
        let total = Duration::from_secs(self.seconds);
        if self.trace {
            (total / 2, true)
        } else {
            (total, false)
        }
    }

    /// Writes the traced run's spans, with the run's provenance as the
    /// first line. A failed write is reported, never fatal.
    pub fn write_trace(&self, tracer: &Tracer) {
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.jsonl", self.workload, self.seed));
        if let Err(e) = tracer.write(&path, &provenance(self)) {
            eprintln!("hbench: could not write {}: {e}", path.display());
        }
    }
}

/// A value and the wall time it took, in milliseconds.
pub struct Timed<T> {
    pub value: T,
    pub ms: f64,
}

impl<T> Timed<T> {
    pub fn of(f: impl FnOnce() -> T) -> Self {
        let t = Instant::now();
        let value = f();
        Self {
            ms: t.elapsed().as_secs_f64() * 1e3,
            value,
        }
    }
}

/// Set-up times of the system under test. A set-up takes well under a
/// millisecond, and what it costs at a given moment depends on the
/// machine's state at that moment (a few times in a run it doubles for
/// a second or so), so the benchmark builds the system a few times at
/// points spread over the whole run, between inputs or passes and
/// outside their timing, and reports the fastest build: the set-up's
/// own cost, with the machine's interference left out.
#[derive(Default)]
pub struct SetupClock {
    seconds: Vec<f64>,
}

impl SetupClock {
    /// Builds the system [`SETUP_PER_POINT`] times, recording each
    /// build's time, and returns the last system built. `build` returns
    /// its own timing so it can leave out work that is not set-up.
    pub fn time<S>(&mut self, mut build: impl FnMut() -> (f64, S)) -> S {
        let mut last = None;
        for _ in 0..SETUP_PER_POINT {
            let (t, system) = build();
            self.seconds.push(t);
            last = Some(system);
        }
        last.expect("at least one set-up")
    }

    /// The fastest set-up recorded, in seconds.
    pub fn seconds(&self) -> f64 {
        self.seconds.iter().copied().fold(f64::NAN, f64::min)
    }
}

/// `slo_frac.peak` of a closed loop with one caller, which has a single
/// load level: the share of all item runs done within `limit_ms`.
pub fn closed_loop_slo(out: &mut Outcome, per_item_ms: &[Vec<f64>], limit_ms: f64) {
    let runs: Vec<f64> = per_item_ms.iter().flatten().copied().collect();
    let within = runs.iter().filter(|&&ms| ms <= limit_ms).count();
    out.metric(
        "slo_frac.peak",
        within as f64 / runs.len().max(1) as f64,
        "frac",
    );
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hbench --workload <batch-large|serve-mixed|sample-pipeline> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Run> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse::<u64>().ok().filter(|&s| s >= 1)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                });
            }
            _ => return None,
        }
    }
    Some(Run {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (a parent directory's repository must not
/// answer for a checkout that has none).
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run's provenance as one JSON object.
fn provenance(run: &Run) -> String {
    use report::escape;
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"obs_timing\": {}, \"cpu\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \
         \"commit\": \"{}\"}}}}",
        escape(&run.workload),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        if run.trace {
            "\"off, then on for the traced half\""
        } else {
            "\"off\""
        },
        escape(&cpu_model()),
        nproc(),
        escape(&rustc_version()),
        escape(&git_commit()),
    )
}

/// Puts the reported metrics in contract order: exactly the end-to-end
/// set untraced, exactly the per-layer set traced (0 for layers the
/// workload does not exercise).
fn finalize(run: &Run, out: &mut Outcome) {
    let produced = std::mem::take(&mut out.metrics);
    let find = |name: &str| produced.iter().find(|(n, _, _)| n == name);
    let mut missing = Vec::new();
    if run.trace {
        for (name, unit) in PER_LAYER {
            out.metric(name, find(name).map_or(0.0, |m| m.1), unit);
        }
    } else {
        for name in END_TO_END {
            match find(name) {
                Some(&(_, value, unit)) => out.metric(name, value, unit),
                None => missing.push(name),
            }
        }
    }
    let allowed = |n: &str| END_TO_END.contains(&n) || PER_LAYER.iter().any(|p| p.0 == n);
    for (name, _, _) in &produced {
        if !allowed(name) {
            missing.push(name);
        }
    }
    if !missing.is_empty() {
        out.invalidate(format!(
            "metric set does not match the catalogue: {missing:?}"
        ));
    }
}

fn main() -> ExitCode {
    let Some(run) = parse_args() else {
        return usage();
    };
    // End-to-end figures come from runs with the timing layer off; the
    // traced half of a `--trace 1` run switches it back on.
    hammer_obs::set_timing_enabled(false);
    let mut out = match run.workload.as_str() {
        "batch-large" => batch::run(&run),
        "serve-mixed" => serve_mixed::run(&run),
        "sample-pipeline" => pipeline::run(&run),
        other => {
            eprintln!("hbench: unknown workload {other:?}");
            return usage();
        }
    };
    finalize(&run, &mut out);
    for p in &out.problems {
        eprintln!("hbench: {p}");
    }
    println!("{}", provenance(&run));
    println!("{}", out.to_json());
    ExitCode::SUCCESS
}
