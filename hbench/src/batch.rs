//! `batch-large`: library-direct, closed loop, one caller. A fixed list
//! of large seeded supports goes through `Hammer::reconstruct` at the
//! default thread count, pass after pass.
//!
//! The kernel does nearly all the work here; sim, serve and codec do
//! none. Three input classes cover the kernel's dispatch: `w64` (one
//! limb, the paper's half-width neighborhood), `w128` (two limbs) and
//! `local` (one limb past the ANN crossover under a fixed radius, so
//! the LSH forest replaces the exact sweep).

use std::hint::black_box;
use std::time::{Duration, Instant};

use hammer_core::{AnnIndex, AnnParams, Hammer, HammerConfig, NeighborhoodLimit};
use hammer_dist::{metrics, BitString, Counts, Distribution};

use crate::gen::{planted, Shape};
use crate::report::{geomean, median, Outcome};
use crate::spans::Tracer;
use crate::{closed_loop_slo, Run, SetupClock, Timed};

/// Input classes, in the order their per-layer metrics are printed.
pub const CLASSES: [&str; 3] = ["w64", "w128", "local"];

/// The layers of a reconstruct (CHS, scores, apply and, on the ANN
/// path, the index build) must add up to its untraced wall time, taken
/// in the same pass, within this share, or the traced run is invalid.
const LAYER_GAP_TOLERANCE: f64 = 0.25;

/// Radius of the `local` class: `4 · 16 ≤ 64`, so the ANN gate opens.
const LOCAL_RADIUS: usize = 16;

/// The fixed input list: `(class, shape)`. Sizes never depend on the
/// seed, so a pass costs the same on every seed.
fn shapes() -> Vec<(&'static str, Shape)> {
    let w64 = |unique, halo| Shape {
        n_bits: 64,
        unique,
        answers: 2,
        halo,
        answer_count: 4000,
        cluster: 1,
    };
    vec![
        ("w64", w64(4096, [64, 600, 800])),
        ("w64", w64(8192, [64, 1200, 1600])),
        ("w64", w64(16384, [64, 2400, 3200])),
        ("w64", w64(24576, [64, 3600, 4800])),
        (
            "w128",
            Shape {
                n_bits: 128,
                unique: 8192,
                answers: 2,
                halo: [128, 1200, 1600],
                answer_count: 4000,
                cluster: 1,
            },
        ),
        // Bit-sampling LSH prunes only when most pairs are far apart:
        // the local input's background is clustered errors (16 outcomes
        // each) rather than one dense halo per answer.
        (
            "local",
            Shape {
                cluster: 16,
                ..w64(36864, [64, 600, 800])
            },
        ),
    ]
}

/// Per-item latency limit (ms) behind `slo_frac.peak`: about three
/// times the largest input's reconstruct time when the benchmark was
/// defined (2-core Xeon).
pub const ITEM_LIMIT_MS: f64 = 5000.0;

struct Input {
    class: &'static str,
    counts: Counts,
    dist: Distribution,
    answers: Vec<BitString>,
}

fn config_for(class: &str) -> HammerConfig {
    let mut config = HammerConfig::paper();
    if class == "local" {
        config.neighborhood = NeighborhoodLimit::Fixed(LOCAL_RADIUS);
    }
    config
}

/// The system under test: one reconstructor per configuration. Both
/// run on scoped threads, so the `local` one builds its ANN index with
/// `AnnIndex::build`, the call the traced run times.
struct System {
    paper: Hammer,
    local: Hammer,
}

impl System {
    fn build() -> Self {
        let system = Self {
            paper: Hammer::with_config(config_for("w64")),
            local: Hammer::with_config(config_for("local")),
        };
        // First calls pay one-time initialisation (registry cells,
        // thread stacks); a user pays it once per process, so it
        // belongs to set-up.
        let tiny = tiny_distribution();
        black_box(system.paper.reconstruct(&tiny));
        black_box(system.local.reconstruct(&tiny));
        system
    }

    fn timed_build() -> (f64, Self) {
        let t = Instant::now();
        let system = Self::build();
        (t.elapsed().as_secs_f64(), system)
    }

    fn hammer(&self, class: &str) -> &Hammer {
        if class == "local" {
            &self.local
        } else {
            &self.paper
        }
    }
}

fn tiny_distribution() -> Distribution {
    let pairs = (0..16u64).map(|k| (BitString::new(k, 8), 1.0 + k as f64));
    Distribution::from_probs(8, pairs).expect("positive mass")
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::new();
    let inputs: Vec<Input> = shapes()
        .into_iter()
        .enumerate()
        .map(|(i, (class, shape))| {
            let p = planted(&shape, run.seed ^ (0xB47C_0000 + i as u64));
            Input {
                class,
                dist: p.counts.to_distribution(),
                counts: p.counts,
                answers: p.answers,
            }
        })
        .collect();

    let mut setup = SetupClock::default();
    let system = setup.time(System::timed_build);

    check_oracle(&system, &inputs, &mut out);

    let (budget_untraced, traced) = run.split_budget();
    let untraced = passes(&system, &inputs, budget_untraced, &mut setup, &mut out);

    if !traced {
        out.metric("setup_s", setup.seconds(), "s");
        out.metric("batch_s", median(&untraced.pass_s), "s");
        closed_loop_slo(&mut out, &untraced.per_input_ms, ITEM_LIMIT_MS);
        let (pst, ist) = gains(&inputs, &untraced.first_outputs);
        out.metric("pst_gain", pst, "x");
        out.metric("ist_gain", ist, "x");
        out.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MiB");
        return out;
    }

    hammer_obs::set_timing_enabled(true);
    let mut tracer = Tracer::default();
    let deadline = Instant::now() + budget_untraced;
    let mut traced_passes = 0;
    while traced_passes < 1 || Instant::now() < deadline {
        traced_pass(&system, &inputs, &mut tracer, &mut out);
        traced_passes += 1;
    }
    let tvd = ann_tvd_vs_exact(&inputs, &mut tracer);
    layer_metrics(&inputs, &tracer, tvd, &mut out);
    run.write_trace(&tracer);
    out
}

/// What the untraced passes measured.
struct Passes {
    pass_s: Vec<f64>,
    /// Per input, the untraced reconstruct times of every pass.
    per_input_ms: Vec<Vec<f64>>,
    first_outputs: Vec<Distribution>,
}

/// Runs passes over the inputs until `budget` is spent (at least
/// three), timing set-up between inputs; that time is left out of the
/// pass's.
fn passes(
    system: &System,
    inputs: &[Input],
    budget: Duration,
    setup: &mut SetupClock,
    out: &mut Outcome,
) -> Passes {
    let mut p = Passes {
        pass_s: Vec::new(),
        per_input_ms: vec![Vec::new(); inputs.len()],
        first_outputs: Vec::new(),
    };
    let deadline = Instant::now() + budget;
    while p.pass_s.len() < 3 || Instant::now() < deadline {
        let pass = Instant::now();
        let mut setting_up = Duration::ZERO;
        for (i, input) in inputs.iter().enumerate() {
            let Timed { value, ms } = Timed::of(|| {
                system
                    .hammer(input.class)
                    .reconstruct(black_box(&input.dist))
            });
            p.per_input_ms[i].push(ms);
            check_output(input, &value, out);
            if p.pass_s.is_empty() {
                p.first_outputs.push(value);
            }
            let t = Instant::now();
            drop(setup.time(System::timed_build));
            setting_up += t.elapsed();
        }
        p.pass_s.push((pass.elapsed() - setting_up).as_secs_f64());
    }
    p
}

/// Unit mass and a planted answer ranked first, which every input
/// promises (see [`crate::gen::planted`]).
fn check_output(input: &Input, output: &Distribution, out: &mut Outcome) {
    let mass = output.total_mass();
    let top = output.most_probable().map(|(x, _)| x);
    out.check((mass - 1.0).abs() <= 1e-9, || {
        format!("{} input: output mass {mass}", input.class)
    });
    out.check(top.is_some_and(|t| input.answers.contains(&t)), || {
        format!(
            "{} input of {} outcomes: planted answer not ranked first",
            input.class,
            input.dist.len()
        )
    });
}

/// The exact path must match the scalar oracle (`with_threads(1)`)
/// within 1e-9 on the smallest one-limb input.
fn check_oracle(system: &System, inputs: &[Input], out: &mut Outcome) {
    let input = inputs
        .iter()
        .filter(|i| i.class == "w64")
        .min_by_key(|i| i.dist.len())
        .expect("the list has w64 inputs");
    let fast = system.paper.reconstruct(&input.dist);
    let oracle = system
        .paper
        .clone()
        .with_threads(1)
        .reconstruct(&input.dist);
    let max_diff = max_abs_diff(&fast, &oracle);
    out.check(max_diff <= 1e-9, || {
        format!("exact path differs from the scalar oracle by {max_diff:e}")
    });
}

/// Largest per-outcome probability difference; infinite when the
/// supports differ.
pub fn max_abs_diff(a: &Distribution, b: &Distribution) -> f64 {
    if a.len() != b.len() || a.n_bits() != b.n_bits() {
        return f64::INFINITY;
    }
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&(ka, pa), &(kb, pb))| {
            if ka == kb {
                (pa - pb).abs()
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0, f64::max)
}

/// Geometric means over inputs of PST and IST after ÷ before.
fn gains(inputs: &[Input], outputs: &[Distribution]) -> (f64, f64) {
    let ratio = |f: fn(&Distribution, &[BitString]) -> f64| {
        let r: Vec<f64> = inputs
            .iter()
            .zip(outputs)
            .map(|(i, o)| f(o, &i.answers) / f(&i.dist, &i.answers))
            .collect();
        geomean(&r)
    };
    (ratio(metrics::pst), ratio(metrics::ist))
}

/// One traced pass: per input, spans around normalize, the whole
/// reconstruct (with the timing layer off, then on), and the two sweeps
/// and the apply step it is made of.
fn traced_pass(system: &System, inputs: &[Input], tracer: &mut Tracer, out: &mut Outcome) {
    for (i, input) in inputs.iter().enumerate() {
        let hammer = system.hammer(input.class);
        let ctx = tracer.begin();
        {
            let _root = ctx.span("batch.input", None);
            let dist = {
                let _s = ctx.span("dist.normalize", None);
                input.counts.to_distribution()
            };
            // The same reconstruct with the timing layer off, then on:
            // the untraced wall time the layers must add up to, and the
            // tracing overhead, both from this pass.
            hammer_obs::set_timing_enabled(false);
            {
                let _s = ctx.span("core.reconstruct.untraced", None);
                black_box(hammer.reconstruct(black_box(&dist)));
            }
            hammer_obs::set_timing_enabled(true);
            let whole = {
                let _s = ctx.span("core.reconstruct", None);
                hammer.reconstruct(black_box(&dist))
            };
            check_output(input, &whole, out);
            let weights = {
                let _s = ctx.span("core.chs", None);
                hammer.weights(black_box(&dist))
            };
            let scored = {
                let _s = ctx.span("core.scores", None);
                hammer.reconstruct_with_weights(black_box(&dist), &weights)
            };
            {
                let _s = ctx.span("dist.apply", None);
                let n = scored.n_bits();
                black_box(
                    Distribution::from_probs(n, scored.iter()).expect("scored mass is positive"),
                );
            }
            if input.class == "local" {
                let params =
                    AnnParams::resolve(&hammer.config().kernel.ann, dist.len(), dist.n_bits());
                let _s = ctx.span("core.ann.build", None);
                black_box(AnnIndex::build(&dist, &params, hammer.threads()));
            }
        }
        tracer.end(label(input, i), &ctx);
    }
}

/// The trace label of input `i`: its class and its place in the list.
fn label(input: &Input, i: usize) -> String {
    format!("{}/{i}", input.class)
}

/// Total variation distance between the ANN output on the `local`
/// input and the exact kernel's output under the same radius.
fn ann_tvd_vs_exact(inputs: &[Input], tracer: &mut Tracer) -> f64 {
    let input = inputs
        .iter()
        .find(|i| i.class == "local")
        .expect("the list has a local input");
    let mut exact_cfg = config_for("local");
    exact_cfg.kernel.ann.enabled = false;
    let approx = Hammer::with_config(config_for("local")).reconstruct(&input.dist);
    let ctx = tracer.begin();
    let exact = {
        let _s = ctx.span("core.exact_reference", None);
        Hammer::with_config(exact_cfg).reconstruct(&input.dist)
    };
    tracer.end("local/exact", &ctx);
    metrics::tvd(&approx, &exact)
}

fn layer_metrics(inputs: &[Input], tracer: &Tracer, tvd: f64, out: &mut Outcome) {
    // Per input, the median over traced passes; per class, their sum.
    let per_pass = |stage: &str, idx: &[usize]| -> f64 {
        idx.iter()
            .map(|&i| median(&tracer.self_ms(stage, Some(&label(&inputs[i], i)))))
            .sum()
    };
    let mut build_ms = 0.0;
    let mut traced_sum = 0.0;
    let mut untraced_sum = 0.0;
    for class in CLASSES {
        let idx: Vec<usize> = (0..inputs.len())
            .filter(|&i| inputs[i].class == class)
            .collect();
        let n_sq: f64 = idx
            .iter()
            .map(|&i| (inputs[i].dist.len() as f64).powi(2))
            .sum();
        let m = |stage| per_pass(stage, &idx);
        let untraced_ms = m("core.reconstruct.untraced");
        let reconstruct = m("core.reconstruct");
        let apply = m("dist.apply");
        // `weights` and `reconstruct_with_weights` each build the ANN
        // index that `reconstruct` builds once.
        let builds = if class == "local" {
            build_ms = m("core.ann.build");
            build_ms
        } else {
            0.0
        };
        let chs = m("core.chs") - builds;
        let scores = m("core.scores") - builds - apply;
        let sweep_ms = chs + scores;
        out.metric(format!("core.reconstruct_ms.{class}"), reconstruct, "ms");
        out.metric(format!("core.chs_ms.{class}"), chs, "ms");
        out.metric(format!("core.scores_ms.{class}"), scores, "ms");
        out.metric(
            format!("core.mpairs_per_s.{class}"),
            2.0 * n_sq / (sweep_ms / 1e3) / 1e6,
            "Mpairs/s",
        );
        out.metric(format!("dist.apply_ms.{class}"), apply, "ms");
        let gap = (chs + scores + apply + builds) / untraced_ms - 1.0;
        out.metric(format!("core.layer_gap_frac.{class}"), gap, "frac");
        if gap.abs() > LAYER_GAP_TOLERANCE {
            out.invalidate(format!(
                "{class}: layer spans sum to {:.0}% of the untraced reconstruct time",
                100.0 * (1.0 + gap)
            ));
        }
        traced_sum += reconstruct;
        untraced_sum += untraced_ms;
    }
    out.metric("core.ann.build_ms", build_ms, "ms");
    out.metric("core.ann.tvd_vs_exact", tvd, "tvd");
    let all: Vec<usize> = (0..inputs.len()).collect();
    out.metric(
        "dist.normalize_us",
        per_pass("dist.normalize", &all) * 1e3,
        "us",
    );
    out.metric(
        "obs.tracing_overhead_frac",
        traced_sum / untraced_sum - 1.0,
        "frac",
    );
}
