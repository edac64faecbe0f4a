//! `sample-pipeline`: library-direct, one job at a time. Each job runs
//! `AutoEngine::sample` → `Counts::to_distribution` →
//! `Hammer::reconstruct` on a BV or GHZ circuit whose answer is known.
//!
//! Dense jobs (10–16 qubits on `ibm_paris`) spend most of their time in
//! the trajectory simulator. Wide jobs (64–128 qubits on
//! `google_sycamore`, 8192 trials) run on the stabilizer engine in a few
//! milliseconds and hand the kernel thousands of sampled outcomes, so
//! their time goes to reconstruction. Serve and codec are not used.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hammer_circuits::{ghz, ghz_correct_outcomes, BernsteinVazirani};
use hammer_core::Hammer;
use hammer_dist::{metrics, BitString, Counts, Distribution};
use hammer_sim::{AutoEngine, Circuit, DeviceModel, WorkerPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{geomean, median, Outcome};
use crate::spans::Tracer;
use crate::{closed_loop_slo, Run, SetupClock, Timed};

/// Per-job latency limit (ms) behind `slo_frac.peak`: about three times
/// the slowest job when the benchmark was defined (2-core Xeon).
pub const ITEM_LIMIT_MS: f64 = 3000.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Family {
    Bv,
    Ghz,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Device {
    Paris,
    Sycamore,
}

/// The fixed job list: `(family, data bits, device, trials)`.
const JOBS: [(Family, usize, Device, u64); 9] = [
    (Family::Bv, 10, Device::Paris, 8192),
    (Family::Ghz, 12, Device::Paris, 8192),
    (Family::Bv, 14, Device::Paris, 8192),
    (Family::Ghz, 16, Device::Paris, 8192),
    (Family::Bv, 64, Device::Sycamore, 8192),
    (Family::Ghz, 64, Device::Sycamore, 8192),
    (Family::Ghz, 96, Device::Sycamore, 8192),
    (Family::Bv, 127, Device::Sycamore, 8192),
    (Family::Ghz, 128, Device::Sycamore, 8192),
];

struct Job {
    circuit: Circuit,
    /// The device's index in [`System::devices`].
    device: usize,
    dense: bool,
    trials: u64,
    /// Qubits whose marginal is reconstructed (BV drops its ancilla).
    data: Option<Vec<usize>>,
    answers: Vec<BitString>,
    /// The sampling stream's seed; every pass replays it, so every pass
    /// reconstructs the same counts.
    rng_seed: u64,
}

impl Job {
    fn class(&self) -> &'static str {
        if self.answers[0].len() > 64 {
            "w128"
        } else {
            "w64"
        }
    }
}

fn jobs(seed: u64) -> Vec<Job> {
    let mut key_rng = StdRng::seed_from_u64(seed ^ 0x5A3B_1E00);
    JOBS.iter()
        .enumerate()
        .map(|(i, &(family, bits, device, trials))| {
            let (mut circuit, data, answers) = match family {
                Family::Bv => {
                    // Half the key bits set, so the oracle's CX count
                    // (and the job's cost) is the same on every seed.
                    let mut key = BitString::zeros(bits);
                    while (key.weight() as usize) < bits / 2 {
                        let q = key_rng.gen_range(0..bits);
                        if !key.bit(q) {
                            key = key.flip_bit(q);
                        }
                    }
                    let bv = BernsteinVazirani::new(key);
                    (bv.circuit(), Some(bv.data_qubits()), vec![key])
                }
                Family::Ghz => (ghz(bits), None, ghz_correct_outcomes(bits).to_vec()),
            };
            let dense = device == Device::Paris;
            if dense {
                // A closing T is diagonal, so it leaves every measured
                // probability unchanged; it makes the circuit
                // non-Clifford, which routes it to the trajectory engine.
                circuit.t(0);
            }
            Job {
                circuit,
                device: i,
                dense,
                trials,
                data,
                answers,
                rng_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64,
            }
        })
        .collect()
}

/// The system under test: one device model per job and one engine pool
/// shared by every sampling call.
struct System {
    devices: Vec<DeviceModel>,
    pool: Arc<WorkerPool>,
    hammer: Hammer,
}

impl System {
    fn build() -> Self {
        let devices = JOBS
            .iter()
            .map(|&(family, bits, device, _)| {
                let qubits = bits + usize::from(family == Family::Bv);
                match device {
                    Device::Paris => DeviceModel::ibm_paris(qubits),
                    Device::Sycamore => DeviceModel::google_sycamore(qubits),
                }
            })
            .collect();
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        Self {
            devices,
            pool: Arc::new(WorkerPool::new(threads)),
            hammer: Hammer::new(),
        }
    }

    fn timed_build() -> (f64, Self) {
        let t = Instant::now();
        let system = Self::build();
        (t.elapsed().as_secs_f64(), system)
    }

    fn sample(&self, job: &Job) -> Counts {
        let engine = AutoEngine::new(&self.devices[job.device]).with_pool(Arc::clone(&self.pool));
        let mut rng = StdRng::seed_from_u64(job.rng_seed);
        let counts = engine
            .sample(&job.circuit, job.trials, &mut rng)
            .expect("job circuits fit their engines");
        match &job.data {
            Some(q) => counts.marginal(q),
            None => counts,
        }
    }
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::new();
    let jobs = jobs(run.seed);
    let mut setup = SetupClock::default();
    let system = setup.time(System::timed_build);
    for job in &jobs {
        let route = AutoEngine::new(&system.devices[job.device]).route(&job.circuit);
        let want = if job.dense {
            "trajectory"
        } else {
            "stabilizer"
        };
        out.check(route == want, || {
            format!("job routed to {route}, not {want}")
        });
    }

    let (budget, traced) = run.split_budget();
    let mut pass_s = Vec::new();
    let mut job_ms = vec![Vec::new(); jobs.len()];
    let mut first = Vec::new();
    let deadline = Instant::now() + budget;
    while pass_s.len() < 3 || Instant::now() < deadline {
        let pass = Instant::now();
        // Set-up is timed between jobs, and that time is left out of
        // the pass's.
        let mut setting_up = Duration::ZERO;
        for (job, ms_log) in jobs.iter().zip(&mut job_ms) {
            let Timed { value, ms } = Timed::of(|| {
                let counts = system.sample(job);
                let noisy = counts.to_distribution();
                let fixed = system.hammer.reconstruct(black_box(&noisy));
                (noisy, fixed)
            });
            ms_log.push(ms);
            check_output(job, &value.1, &mut out);
            if pass_s.is_empty() {
                first.push(value);
            }
            let t = Instant::now();
            drop(setup.time(System::timed_build));
            setting_up += t.elapsed();
        }
        pass_s.push((pass.elapsed() - setting_up).as_secs_f64());
    }
    let ratio = |f: fn(&Distribution, &[BitString]) -> f64| {
        let r: Vec<f64> = jobs
            .iter()
            .zip(&first)
            .map(|(j, (noisy, fixed))| f(fixed, &j.answers) / f(noisy, &j.answers))
            .collect();
        geomean(&r)
    };

    if !traced {
        out.metric("setup_s", setup.seconds(), "s");
        out.metric("batch_s", median(&pass_s), "s");
        closed_loop_slo(&mut out, &job_ms, ITEM_LIMIT_MS);
        out.metric("pst_gain", ratio(metrics::pst), "x");
        out.metric("ist_gain", ratio(metrics::ist), "x");
        out.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MiB");
        return out;
    }

    hammer_obs::set_timing_enabled(true);
    let mut tracer = Tracer::default();
    let mut traced_pass_s = Vec::new();
    let deadline = Instant::now() + budget;
    while traced_pass_s.is_empty() || Instant::now() < deadline {
        let pass = Instant::now();
        for job in &jobs {
            let ctx = tracer.begin();
            {
                let _root = ctx.span("pipeline.job", None);
                let counts = {
                    let _s = ctx.span(
                        if job.dense {
                            "sim.dense.sample"
                        } else {
                            "sim.stab.sample"
                        },
                        None,
                    );
                    system.sample(job)
                };
                let noisy = {
                    let _s = ctx.span("dist.normalize", None);
                    counts.to_distribution()
                };
                let fixed = {
                    let _s = ctx.span("core.reconstruct", None);
                    system.hammer.reconstruct(black_box(&noisy))
                };
                check_output(job, &fixed, &mut out);
            }
            tracer.end(job.class(), &ctx);
        }
        traced_pass_s.push(pass.elapsed().as_secs_f64());
    }

    // Per-pass layer totals: a stage's spans over every traced pass,
    // divided by the number of passes.
    let passes = traced_pass_s.len();
    let total = |stage: &str, label: Option<&str>| -> f64 {
        let v = tracer.self_ms(stage, label);
        v.iter().sum::<f64>() / passes as f64
    };
    for class in ["w64", "w128"] {
        out.metric(
            format!("core.reconstruct_ms.{class}"),
            total("core.reconstruct", Some(class)),
            "ms",
        );
    }
    let trials = |dense: bool| -> f64 {
        jobs.iter()
            .filter(|j| j.dense == dense)
            .map(|j| j.trials as f64)
            .sum()
    };
    for (name, dense) in [("dense", true), ("stab", false)] {
        let ms = total(&format!("sim.{name}.sample"), None);
        out.metric(format!("sim.{name}.sample_ms"), ms, "ms");
        out.metric(
            format!("sim.{name}.trials_per_s"),
            trials(dense) / (ms / 1e3),
            "1/s",
        );
    }
    let unique: usize = first.iter().map(|(noisy, _)| noisy.len()).sum();
    out.metric("sim.unique_outcomes", unique as f64, "count");
    out.metric(
        "dist.normalize_us",
        total("dist.normalize", None) * 1e3,
        "us",
    );
    out.metric(
        "obs.tracing_overhead_frac",
        median(&traced_pass_s) / median(&pass_s) - 1.0,
        "frac",
    );
    run.write_trace(&tracer);
    out
}

/// Unit mass, and a correct answer ranked first: every job's known
/// answer survives its device's noise as the densest neighborhood.
fn check_output(job: &Job, fixed: &Distribution, out: &mut Outcome) {
    let mass = fixed.total_mass();
    out.check((mass - 1.0).abs() <= 1e-9, || {
        format!("job output mass {mass}")
    });
    let top = fixed.most_probable().map(|(x, _)| x);
    out.check(top.is_some_and(|t| job.answers.contains(&t)), || {
        format!(
            "{}-qubit job: known answer not ranked first",
            job.circuit.num_qubits()
        )
    });
}
