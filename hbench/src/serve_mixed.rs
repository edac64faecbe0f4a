//! `serve-mixed`: an in-process `hammer_serve` server on loopback,
//! driven in an open loop over one pipelined connection.
//!
//! Requests are `Reconstruct` only: mostly small supports (the §4.5
//! halo, up to about 256 outcomes) and some medium ones (about 2K
//! outcomes at 16–24 bits, above the kernel's parallel threshold). Keys fall in
//! three tiers. Hot keys repeat, so the cache hits and concurrent
//! duplicates coalesce. Warm keys form a set larger than the LRU, so
//! entries spill to the attached store and reload from it. Cold keys
//! carry a unique salt, so the server computes them.
//!
//! Each pass sends a fixed schedule: [`PHASE_S`] seconds of Poisson
//! arrivals at the `steady` rate, then as long at the `peak` rate.
//! A sender thread writes each frame when it is due, whether or not
//! earlier replies have arrived; a receiver thread matches replies by
//! request id. Latency runs from a request's due time to its reply, so
//! a stall in the generator or the server is charged to every request
//! it delays. The rates, the latency limit and the lag threshold were
//! measured once when the benchmark was defined (2-core Xeon; the rate
//! sweep is in `DESIGN.md`) and are frozen here; they never depend on
//! the commit under test.

use std::io::{BufReader, BufWriter, Write as _};
use std::net::TcpStream;
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hammer_core::{Hammer, HammerConfig};
use hammer_dist::{metrics, BitString, Counts, Distribution};
use hammer_serve::protocol::{opcode, read_frame, write_frame_with_deadline};
use hammer_serve::{serve, Reply, Request, ServeClient, ServeConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::max_abs_diff;
use crate::gen::{planted, Shape};
use crate::report::{geomean, median, quantile, Outcome};
use crate::spans::Tracer;
use crate::{Run, SetupClock, Timed};

/// Arrival rate of the `steady` phase, requests per second.
pub const STEADY_RPS: f64 = 150.0;
/// Arrival rate of the `peak` phase, requests per second. At higher
/// rates the server's queue waits grow further, but the latency figures
/// no longer repeat from run to run within their bounds on the machine
/// the benchmark was defined on. `DESIGN.md` records the sweep behind
/// it.
pub const PEAK_RPS: f64 = 220.0;
/// Latency limit, ms: the `slo_frac.peak` threshold and every request's
/// wire deadline.
pub const LIMIT_MS: f64 = 300.0;
/// A run whose generator is later than this at p99 is invalid: the
/// load it offered was not the schedule's.
pub const LAG_LIMIT_MS: f64 = 50.0;
/// Length of each phase of a pass, seconds.
pub const PHASE_S: f64 = 2.0;

/// Every this many requests, one is a cold medium support: the only
/// requests that run the kernel above its parallel threshold. Evenly
/// spread over the request order, so the latency tail they set does not
/// hinge on chance runs of them.
const COLD_MEDIUM_EVERY: usize = 20;
/// Of the remaining requests: the share in the hot and warm tiers (the
/// rest are cold small ones), and the share of hot ones with a medium
/// support.
const HOT_SHARE: f64 = 0.5;
const WARM_SHARE: f64 = 0.3;
const HOT_MEDIUM_SHARE: f64 = 0.1;
/// Distinct keys per tier. The warm set is several times what the
/// server's cache holds at [`CACHE_MB`].
const HOT_KEYS: usize = 8;
const HOT_MEDIUM_KEYS: usize = 2;
const WARM_KEYS: usize = 600;
const COLD_BASES: usize = 16;
/// The server's cache budget, MiB.
const CACHE_MB: usize = 1;

/// Seconds to wait for the last reply of a pass before counting the
/// rest as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    Hot,
    Warm,
    Cold,
}

/// One distinct input: the counts the server sees and, for hot and warm
/// keys, the in-process reconstruction its replies must equal.
struct Input {
    counts: Counts,
    answers: Vec<BitString>,
    oracle: Option<Distribution>,
}

/// One scheduled request of a pass.
struct Scheduled {
    offset: Duration,
    steady: bool,
    tier: Tier,
    /// Index into the inputs (the base input for a cold request).
    input: usize,
    payload: Vec<u8>,
}

/// The `i`-th small support: 12–16 bits, 64–256 outcomes. Shapes
/// depend on the index only, so every seed offers the same sizes.
fn small_shape(i: usize) -> Shape {
    let n_bits = 12 + i % 5;
    let unique = 64 + (i * 53) % 193;
    Shape {
        n_bits,
        unique,
        answers: 1,
        halo: [n_bits.min(unique / 4), unique / 6, unique / 6],
        answer_count: 400,
        cluster: 1,
    }
}

/// The `i`-th medium support: 16–24 bits, 2048–2304 outcomes. Their
/// sizes stay close so that the latency tail, which these requests set,
/// does not hinge on which of them a pass draws.
fn medium_shape(i: usize) -> Shape {
    let n_bits = 16 + (i * 3) % 9;
    let unique = 2048 + (i * 97) % 257;
    Shape {
        n_bits,
        unique,
        answers: 1,
        halo: [n_bits, unique / 5, unique / 4],
        answer_count: 4000,
        cluster: 1,
    }
}

/// The workload's inputs, one index range per tier and size.
struct Inputs {
    all: Vec<Input>,
    hot: Range<usize>,
    hot_medium: Range<usize>,
    warm: Range<usize>,
    cold_small: Range<usize>,
    cold_medium: Range<usize>,
}

fn inputs(seed: u64) -> Inputs {
    let mut all = Vec::new();
    let mut tier = |count: usize, shape: fn(usize) -> Shape, with_oracle: bool| {
        let start = all.len();
        for i in 0..count {
            let p = planted(&shape(i), seed ^ ((start + i) as u64) << 32);
            let oracle = with_oracle.then(|| Hammer::new().reconstruct_counts(&p.counts));
            all.push(Input {
                counts: p.counts,
                answers: p.answers,
                oracle,
            });
        }
        start..all.len()
    };
    let hot = tier(HOT_KEYS, small_shape, true);
    let hot_medium = tier(HOT_MEDIUM_KEYS, medium_shape, true);
    let warm = tier(WARM_KEYS, small_shape, true);
    let cold_small = tier(COLD_BASES / 2, small_shape, false);
    let cold_medium = tier(COLD_BASES / 2, medium_shape, false);
    Inputs {
        all,
        hot,
        hot_medium,
        warm,
        cold_small,
        cold_medium,
    }
}

fn encode(counts: &Counts) -> Vec<u8> {
    Request::Reconstruct {
        config: HammerConfig::paper(),
        counts: counts.clone(),
    }
    .encode()
}

/// A pass's schedule. Which tier and size each slot gets, and which
/// key, is fixed by the workload and the pass number, not by the seed:
/// the seed changes only the inputs' bits. Cold requests get a salt
/// unique within the run: the `s`-th use of a base adds `1 + s / N`
/// trials to its outcome `s mod N`, so the support and the answer are
/// the base's but the key is new. `salts` counts the uses of each input.
fn schedule(inputs: &Inputs, pass: u64, salts: &mut [u64]) -> Vec<Scheduled> {
    let mut rng = StdRng::seed_from_u64(0x5C4E_D000 ^ pass);
    let mut out = Vec::new();
    for (steady, rps) in [(true, STEADY_RPS), (false, PEAK_RPS)] {
        let start = if steady { 0.0 } else { PHASE_S };
        let n = (PHASE_S * rps).round() as usize;
        // Arrival times of a Poisson process with exactly `n` arrivals
        // in the phase: independent users, and no lock-step between the
        // schedule and the server's reply timing.
        let mut arrivals: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..PHASE_S)).collect();
        arrivals.sort_by(f64::total_cmp);
        for (k, at) in arrivals.into_iter().enumerate() {
            let offset = Duration::from_secs_f64(start + at);
            let pick = |r: &Range<usize>, rng: &mut StdRng| rng.gen_range(r.clone());
            let tier_draw: f64 = rng.gen();
            let (tier, i) = if k % COLD_MEDIUM_EVERY == COLD_MEDIUM_EVERY / 2 {
                (Tier::Cold, pick(&inputs.cold_medium, &mut rng))
            } else if tier_draw < HOT_SHARE {
                let r = if rng.gen_bool(HOT_MEDIUM_SHARE) {
                    &inputs.hot_medium
                } else {
                    &inputs.hot
                };
                (Tier::Hot, pick(r, &mut rng))
            } else if tier_draw < HOT_SHARE + WARM_SHARE {
                (Tier::Warm, pick(&inputs.warm, &mut rng))
            } else {
                (Tier::Cold, pick(&inputs.cold_small, &mut rng))
            };
            let payload = if tier == Tier::Cold {
                let mut counts = inputs.all[i].counts.clone();
                let s = salts[i] as usize;
                salts[i] += 1;
                let (x, _) = counts
                    .iter()
                    .nth(s % counts.len())
                    .expect("bases are non-empty");
                counts.record_n(x, 1 + (s / counts.len()) as u64);
                encode(&counts)
            } else {
                encode(&inputs.all[i].counts)
            };
            out.push(Scheduled {
                offset,
                steady,
                tier,
                input: i,
                payload,
            });
        }
    }
    out
}

/// What one pass measured.
struct PassResult {
    /// Latency (ms from due time) of every request with a reply, or
    /// `None` when it got none.
    latency_ms: Vec<Option<f64>>,
    replies: Vec<Option<(u8, Vec<u8>)>>,
    lag_ms: Vec<f64>,
    pass_s: f64,
}

/// Sends one pass over `stream`: a sender thread writes each frame at
/// its due time, a receiver thread collects replies by request id.
fn drive(stream: &TcpStream, plan: &[Scheduled]) -> std::io::Result<PassResult> {
    let mut reader = BufReader::new(stream.try_clone()?);
    reader.get_ref().set_read_timeout(Some(DRAIN_TIMEOUT))?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let t0 = Instant::now() + Duration::from_millis(5);
    let limit = Duration::from_secs_f64(LIMIT_MS / 1e3);
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> std::io::Result<Vec<f64>> {
            let mut lag_ms = Vec::with_capacity(plan.len());
            for (id, req) in plan.iter().enumerate() {
                let due = t0 + req.offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let late = Instant::now().saturating_duration_since(due);
                lag_ms.push(late.as_secs_f64() * 1e3);
                let budget = limit.saturating_sub(late).as_millis().max(1);
                let budget = u32::try_from(budget).unwrap_or(u32::MAX);
                write_frame_with_deadline(
                    &mut writer,
                    id as u64,
                    opcode::RECONSTRUCT,
                    budget,
                    &req.payload,
                )?;
            }
            writer.flush()?;
            Ok(lag_ms)
        });
        let receiver = scope.spawn(move || {
            let mut latency_ms = vec![None; plan.len()];
            let mut replies = vec![None; plan.len()];
            let mut last = t0;
            for _ in 0..plan.len() {
                let Ok((id, op, payload)) = read_frame(&mut reader) else {
                    break;
                };
                let at = Instant::now();
                let Some(req) = usize::try_from(id).ok().and_then(|i| plan.get(i)) else {
                    continue;
                };
                let due = t0 + req.offset;
                latency_ms[id as usize] =
                    Some(at.saturating_duration_since(due).as_secs_f64() * 1e3);
                replies[id as usize] = Some((op, payload));
                last = at;
            }
            (latency_ms, replies, last)
        });
        let lag_ms = sender.join().expect("sender does not panic")?;
        let (latency_ms, replies, last) = receiver.join().expect("receiver does not panic");
        Ok(PassResult {
            latency_ms,
            replies,
            lag_ms,
            pass_s: last.saturating_duration_since(t0).as_secs_f64(),
        })
    })
}

/// A running server that is shut down, and waited for, when dropped:
/// set-up builds many and keeps only the last.
struct Server(Option<ServerHandle>);

impl Server {
    /// A server over a fresh store directory, and the time until it
    /// answered `Ping`.
    fn start(store: PathBuf) -> (f64, Self) {
        let t = Instant::now();
        let server = serve(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            cache_mb: CACHE_MB,
            store_dir: Some(store),
            store_mb: 256,
            ..ServeConfig::default()
        })
        .expect("a loopback server starts");
        ServeClient::connect(server.local_addr().to_string())
            .and_then(|mut c| c.ping().map_err(std::io::Error::other))
            .expect("a fresh server answers ping");
        (t.elapsed().as_secs_f64(), Self(Some(server)))
    }

    fn handle(&self) -> &ServerHandle {
        self.0.as_ref().expect("present until dropped")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
            let _ = server.wait();
        }
    }
}

/// Store directories live under the run's output directory and are
/// removed when the run ends.
struct StoreDirs {
    root: PathBuf,
    next: usize,
}

impl StoreDirs {
    fn new() -> Self {
        let root = PathBuf::from(crate::OUT_DIR).join(format!("store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Self { root, next: 0 }
    }

    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(self.next.to_string())
    }
}

impl Drop for StoreDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Latency and failure totals of a measurement made of several passes.
#[derive(Default)]
struct Measured {
    /// Per timed pass, the latencies of its answered steady (peak)
    /// requests.
    steady_ms: Vec<Vec<f64>>,
    peak_ms: Vec<Vec<f64>>,
    peak_sent: usize,
    peak_in_limit: usize,
    pass_s: Vec<f64>,
    lag_ms: Vec<f64>,
    pst: Vec<f64>,
    ist: Vec<f64>,
}

/// Runs the passes that fit in `budget`, checking every reply, and
/// calls `between` after each pass.
fn measure(
    server: &ServerHandle,
    inputs: &Inputs,
    budget: Duration,
    out: &mut Outcome,
    between: &mut dyn FnMut(),
) -> Measured {
    let mut m = Measured::default();
    let stream = TcpStream::connect(server.local_addr()).expect("loopback connect");
    stream.set_nodelay(true).expect("nodelay on a live socket");
    let mut salts = vec![0u64; inputs.all.len()];
    // Pass 0 fills the cache and the store and is checked but not
    // timed. The number of timed passes depends on the budget alone, so
    // every run of a given length pools the same schedules.
    let pass_s = 2.0 * PHASE_S;
    let timed_passes = ((budget.as_secs_f64() - pass_s) / pass_s).floor().max(2.0) as u64;
    for pass in 0..=timed_passes {
        let plan = schedule(inputs, pass, &mut salts);
        let r = match drive(&stream, &plan) {
            Ok(r) => r,
            Err(e) => {
                out.attempted += plan.len() as u64;
                out.failed += plan.len() as u64;
                out.invalidate(format!("load connection failed: {e}"));
                break;
            }
        };
        let timed = pass > 0;
        if timed {
            m.pass_s.push(r.pass_s);
            m.lag_ms.extend(&r.lag_ms);
            m.steady_ms.push(Vec::new());
            m.peak_ms.push(Vec::new());
        }
        for (i, req) in plan.iter().enumerate() {
            let ok = check_reply(inputs, req, r.replies[i].as_ref(), pass == 0, &mut m, out);
            if !timed {
                continue;
            }
            let latency = r.latency_ms[i].filter(|_| ok);
            if req.steady {
                if let Some(ms) = latency {
                    m.steady_ms.last_mut().expect("timed pass").push(ms);
                }
            } else {
                m.peak_sent += 1;
                if let Some(ms) = latency {
                    m.peak_ms.last_mut().expect("timed pass").push(ms);
                    if ms <= LIMIT_MS {
                        m.peak_in_limit += 1;
                    }
                }
            }
        }
        between();
    }
    m
}

/// Checks one reply: a distribution of unit mass with the planted
/// answer first, equal to the in-process reconstruction for hot and
/// warm keys. Returns whether it passed (refusals, sheds and errors
/// fail). With `quality`, hot and warm replies add their PST and IST
/// gains to `m`.
fn check_reply(
    inputs: &Inputs,
    req: &Scheduled,
    reply: Option<&(u8, Vec<u8>)>,
    quality: bool,
    m: &mut Measured,
    out: &mut Outcome,
) -> bool {
    let input = &inputs.all[req.input];
    out.attempted += 1;
    let d = match reply.map(|(op, payload)| Reply::decode(*op, payload)) {
        Some(Ok(Reply::Distribution(d))) => d,
        None => {
            out.refuse(format!("request {:?}: no reply", req.offset));
            return false;
        }
        Some(Ok(refusal @ (Reply::Busy | Reply::DeadlineExceeded | Reply::ShuttingDown))) => {
            let op = refusal.opcode();
            out.refuse(format!("request {:?}: refused with {op:#04x}", req.offset));
            return false;
        }
        Some(other) => {
            out.fail(format!("request {:?}: bad reply {other:?}", req.offset));
            return false;
        }
    };
    let mass = d.total_mass();
    let top = d.most_probable().map(|(x, _)| x);
    let oracle_diff = input
        .oracle
        .as_ref()
        .filter(|_| req.tier != Tier::Cold)
        .map_or(0.0, |o| max_abs_diff(o, &d));
    let wrong = if (mass - 1.0).abs() > 1e-9 {
        Some(format!("reply mass {mass}"))
    } else if !top.is_some_and(|t| input.answers.contains(&t)) {
        Some("planted answer not ranked first".to_string())
    } else if oracle_diff > 1e-12 {
        Some(format!(
            "reply differs from in-process reconstruct by {oracle_diff:e}"
        ))
    } else {
        None
    };
    if let Some(why) = wrong {
        out.fail(format!("request {:?}: {why}", req.offset));
        return false;
    }
    if quality && req.tier != Tier::Cold {
        let noisy = input.counts.to_distribution();
        let gain = |f: fn(&Distribution, &[BitString]) -> f64| {
            f(&d, &input.answers) / f(&noisy, &input.answers)
        };
        m.pst.push(gain(metrics::pst));
        m.ist.push(gain(metrics::ist));
    }
    true
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::new();
    let inputs = inputs(run.seed);
    let mut stores = StoreDirs::new();

    let mut setup = SetupClock::default();
    let server = setup.time(|| Server::start(stores.fresh()));
    let (budget, traced) = run.split_budget();
    let m = measure(server.handle(), &inputs, budget, &mut out, &mut || {
        drop(setup.time(|| Server::start(stores.fresh())));
    });
    drop(server);

    let lag_p99 = quantile(&m.lag_ms, 0.99);
    if lag_p99 > LAG_LIMIT_MS {
        out.invalidate(format!(
            "load generator ran {lag_p99:.2} ms late at p99 (limit {LAG_LIMIT_MS} ms)"
        ));
    }

    if !traced {
        out.metric("setup_s", setup.seconds(), "s");
        out.metric("batch_s", median(&m.pass_s), "s");
        out.metric(
            "slo_frac.peak",
            m.peak_in_limit as f64 / m.peak_sent.max(1) as f64,
            "frac",
        );
        out.metric("pst_gain", geomean(&m.pst), "x");
        out.metric("ist_gain", geomean(&m.ist), "x");
        out.metric("peak_rss_mb", crate::report::peak_rss_mb(), "MiB");
        return out;
    }

    // The untraced half's latencies: diagnostics, not end-to-end
    // figures (see `END_TO_END`).
    for (phase, passes) in [("steady", &m.steady_ms), ("peak", &m.peak_ms)] {
        for (q, name) in [(0.5, "p50"), (0.99, "p99")] {
            out.metric(format!("serve.{name}_ms.{phase}"), per_pass(passes, q), "ms");
        }
    }

    hammer_obs::set_timing_enabled(true);
    let (_, server) = Server::start(stores.fresh());
    measure(server.handle(), &inputs, budget, &mut out, &mut || ());
    let mut client =
        ServeClient::connect(server.handle().local_addr().to_string()).expect("loopback connect");
    let snapshot = client.metrics_snapshot();
    let stats = client.stats();
    let overhead = tracing_overhead(&mut client, &inputs, &mut out);
    drop(client);
    drop(server);
    match (snapshot, stats) {
        (Ok(snap), Ok(stats)) => {
            for stage in [
                "decode",
                "queue",
                "cache_probe",
                "store_load",
                "coalesce_wait",
                "compute",
                "encode",
                "write",
            ] {
                let h = snap.histogram(&format!("serve.stage.{stage}_ns"));
                for (q, name) in [(0.5, "p50"), (0.99, "p99")] {
                    let ns = h.map_or(0, |h| h.quantile(q));
                    out.metric(format!("serve.{stage}_ms.{name}"), ns as f64 / 1e6, "ms");
                }
            }
            let lookups = (stats.cache_hits + stats.cache_misses).max(1);
            out.metric(
                "serve.cache_hit_rate",
                stats.cache_hits as f64 / lookups as f64,
                "frac",
            );
            out.metric("serve.coalesced", stats.coalesced as f64, "count");
            out.metric("serve.store_loads", stats.store_loads as f64, "count");
            out.metric("serve.store_spills", stats.store_spills as f64, "count");
            out.metric("serve.busy", stats.busy_rejections as f64, "count");
            out.metric("serve.deadline_sheds", stats.deadline_sheds as f64, "count");
        }
        (Err(e), _) | (_, Err(e)) => out.invalidate(format!("metrics snapshot failed: {e}")),
    }
    out.metric("loadgen.lag_ms.p99", lag_p99, "ms");
    out.metric("obs.tracing_overhead_frac", overhead, "frac");
    let mut tracer = Tracer::default();
    codec_layers(&inputs, &mut tracer, &mut out);
    run.write_trace(&tracer);
    out
}

/// The `q`-quantile of each timed pass's latencies, then the median over
/// the passes: a pass that a stall of the machine slowed down moves the
/// figure no more than any other pass does.
fn per_pass(passes: &[Vec<f64>], q: f64) -> f64 {
    let each: Vec<f64> = passes.iter().map(|p| quantile(p, q)).collect();
    median(&each)
}

/// Round trips per key and timing state in [`tracing_overhead`].
const OVERHEAD_ROUNDS: usize = 40;

/// The tracing layer's cost on the server's own request path.
/// Synchronous `Reconstruct` calls on the hot small keys, all cache
/// hits, one in flight at a time (so no reply waits for the client's
/// ACK), alternate between the timing layer off and on; the result is
/// the traced median round trip ÷ the untraced one − 1. Every reply
/// is checked against the in-process reconstruction.
fn tracing_overhead(client: &mut ServeClient, inputs: &Inputs, out: &mut Outcome) -> f64 {
    let config = HammerConfig::paper();
    let mut rtt_ms = [Vec::new(), Vec::new()];
    for round in 0..2 * OVERHEAD_ROUNDS {
        let on = round % 2 == 1;
        hammer_obs::set_timing_enabled(on);
        for input in &inputs.all[inputs.hot.clone()] {
            let Timed { value, ms } = Timed::of(|| client.reconstruct(&input.counts, &config));
            rtt_ms[usize::from(on)].push(ms);
            let oracle = input.oracle.as_ref().expect("hot keys have oracles");
            let ok = value
                .as_ref()
                .is_ok_and(|d| max_abs_diff(oracle, d) <= 1e-12);
            out.check(ok, || match &value {
                Ok(_) => "hot key round trip differs from in-process reconstruct".into(),
                Err(e) => format!("hot key round trip failed: {e}"),
            });
        }
    }
    hammer_obs::set_timing_enabled(true);
    median(&rtt_ms[1]) / median(&rtt_ms[0]) - 1.0
}

/// Times, in process, the codec and normalize calls the server makes for
/// this workload's typical request: a small hot support.
fn codec_layers(inputs: &Inputs, tracer: &mut Tracer, out: &mut Outcome) {
    let input = &inputs.all[inputs.hot.start];
    let payload = encode(&input.counts);
    let reply = Reply::Distribution(input.oracle.clone().expect("hot keys have oracles"));
    for _ in 0..200 {
        let ctx = tracer.begin();
        {
            let _s = ctx.span("codec.request_decode", None);
            std::hint::black_box(
                Request::decode(opcode::RECONSTRUCT, &payload).expect("own payload decodes"),
            );
        }
        {
            let _s = ctx.span("dist.normalize", None);
            std::hint::black_box(input.counts.to_distribution());
        }
        {
            let _s = ctx.span("codec.reply_encode", None);
            std::hint::black_box(reply.encode());
        }
        tracer.end("small", &ctx);
    }
    let us = |stage| median(&tracer.self_ms(stage, None)) * 1e3;
    out.metric("codec.request_decode_us", us("codec.request_decode"), "us");
    out.metric("codec.reply_encode_us", us("codec.reply_encode"), "us");
    out.metric("dist.normalize_us", us("dist.normalize"), "us");
}
