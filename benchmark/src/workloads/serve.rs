//! `serve-cold` and `serve-hot`: NDJSON requests through an in-process
//! daemon, closed loop with two clients.
//!
//! Closed loop is deliberate: the clients of a compile-and-simulate daemon
//! are tools that wait for the reply before they send the next request, and
//! the host has two cores. Each client submits a line through
//! `Server::handle_line`, waits for the reply, renders it, and only then
//! parses it back and checks it; latency is line in → rendered reply out.

use super::probes::{self, p50_us, Item, PROBE_OP};
use super::{recorder, repeat_setup, setup_rounds, start_timed, stop_timed, Args, Report};
use crate::gen::{self, launch, GenKernel, Zipf};
use crate::heap::uncounted;
use crate::json;
use crate::span::{timed, Recorder};
use crate::stats;
use catt_core::{Engine, Pipeline};
use catt_prng::Rng;
use catt_serve::proto::{parse_request, parse_response, Op, Response};
use catt_serve::{ServeConfig, Server};
use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig, LaunchStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Every request a distinct kernel, submitted once.
    Cold,
    /// Zipf(1) over a corpus that set-up has already simulated.
    Hot,
}

/// Load-generating threads: never more than the host has cores.
const CLIENTS: usize = 2;
/// Kernels of the hot corpus.
const HOT_KERNELS: usize = 64;
/// Cold kernels generated per second of timed region (twice what two
/// workers get through here; a client that runs out stops early).
const COLD_PER_SECOND: f64 = 120.0;
/// Requests of the staged replay (hot) / fresh kernels replayed (cold).
const HOT_REPLAY: usize = 2000;
const COLD_REPLAY: usize = 48;

/// The daemon's tuning, spelled out: nothing is read from the environment.
/// Two workers, the default queue bound, a quota no tenant can exhaust and
/// a 60 s deadline — every admission gate still runs, none may shed.
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_high_water: 64,
        quota_rate: 1 << 62,
        quota_burst: 1 << 62,
        default_deadline_ms: 60_000,
        breaker_threshold: 5,
        breaker_cooldown_ms: 1_000,
        drain_grace_ms: 5_000,
        // The shipped default: 4 × the simulator's base fuel (1 << 24).
        quantum: 4 << 24,
    }
}

/// The daemon simulates on this configuration (`Server::new` builds it).
fn daemon_gpu() -> GpuConfig {
    GpuConfig::titan_v_1sm()
}

/// A set of kernels with their request lines split around the id.
struct Corpus {
    kernels: Vec<GenKernel>,
    lines: Vec<(String, String)>,
}

impl Corpus {
    fn new(seed: u64, prefix: &str, count: usize) -> Corpus {
        let kernels = gen::corpus(seed, prefix, count, gen::Kind::Stride { classes: 2 });
        let lines = kernels
            .iter()
            .map(|k| {
                let line = k.submit_line("\u{0}");
                let (head, tail) = line.split_once('\u{0}').expect("the id placeholder");
                (head.to_string(), tail.to_string())
            })
            .collect();
        Corpus { kernels, lines }
    }

    fn line(&self, kernel: usize, id: &str) -> String {
        let (head, tail) = &self.lines[kernel];
        format!("{head}{id}{tail}")
    }
}

/// Which kernel a client submits next.
enum Pick<'a> {
    /// Each kernel once: the next index off a shared counter.
    Each(&'a AtomicUsize),
    /// Seeded Zipf draws.
    Zipf(&'a Zipf, Rng),
}

/// When a client stops.
#[derive(Clone, Copy)]
enum Until {
    Elapsed(Instant, f64),
    Requests(usize),
}

/// What one client saw.
#[derive(Default)]
struct Seen {
    lat_us: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    /// Cycles replied per kernel (the same kernel must always get the same).
    cycles: Vec<Option<u64>>,
    /// One reply, for the replay's render stage.
    sample_reply: Option<Response>,
    /// Replies by `source`: computed, cache, coalesced; and non-results.
    sources: [u64; 3],
    non_ok: u64,
    queue_ms: Vec<f64>,
    rec: Option<Recorder>,
}

fn client(
    server: &Server,
    corpus: &Corpus,
    mut pick: Pick,
    until: Until,
    id: usize,
    trace_epoch: Option<Instant>,
) -> Seen {
    let mut seen = Seen {
        cycles: vec![None; corpus.kernels.len()],
        rec: trace_epoch.map(|e| Recorder::new(e, id as u32 + 1)),
        ..Seen::default()
    };
    let (tx, rx) = mpsc::channel();
    loop {
        let done = match until {
            Until::Elapsed(t0, secs) => t0.elapsed().as_secs_f64() >= secs,
            Until::Requests(n) => seen.attempted as usize >= n,
        };
        let k = match &mut pick {
            Pick::Each(next) => next.fetch_add(1, Ordering::Relaxed),
            Pick::Zipf(zipf, rng) => zipf.sample(rng),
        };
        if done || k >= corpus.kernels.len() {
            return seen;
        }
        let op = (id as u64 + 1) << 40 | seen.attempted;
        let line = corpus.line(k, &format!("c{id}-{}", seen.attempted));
        seen.attempted += 1;
        let (rendered, secs) = timed(&mut seen.rec, "request", "serve", op, || {
            server.handle_line(&line, &tx);
            rx.recv_timeout(Duration::from_secs(120))
                .ok()
                .map(|reply| reply.render())
        });
        uncounted(|| seen.lat_us.push(secs * 1e6));
        // Client-side from here on: parse the reply back and check it.
        let fail = |seen: &mut Seen, what: String| {
            seen.non_ok += 1;
            if seen.failures.len() < 8 {
                seen.failures
                    .push(format!("{}: {what}", corpus.kernels[k].name));
            }
        };
        let Some(rendered) = rendered else {
            fail(&mut seen, "no reply within 120 s".into());
            continue;
        };
        match parse_response(&rendered) {
            Ok(Response::Result(body)) => {
                if body.kernel != corpus.kernels[k].name {
                    fail(&mut seen, format!("reply names kernel `{}`", body.kernel));
                    continue;
                }
                match seen.cycles[k] {
                    Some(c) if c != body.cycles => {
                        fail(&mut seen, format!("cycles {c} then {}", body.cycles));
                        continue;
                    }
                    _ => seen.cycles[k] = Some(body.cycles),
                }
                let source = ["computed", "cache", "coalesced"]
                    .iter()
                    .position(|s| *s == body.source)
                    .unwrap_or(0);
                seen.sources[source] += 1;
                uncounted(|| seen.queue_ms.push(body.queue_ms as f64));
                if seen.sample_reply.is_none() {
                    seen.sample_reply = Some(Response::Result(body));
                }
            }
            Ok(other) => fail(&mut seen, format!("not a result: {}", other.render())),
            Err(e) => fail(&mut seen, format!("reply does not parse back: {e}")),
        }
    }
}

/// Run `CLIENTS` clients to completion and merge what they saw.
fn drive(
    server: &Server,
    corpus: &Corpus,
    traffic: Traffic,
    seed: u64,
    until: Until,
    trace_epoch: Option<Instant>,
) -> Seen {
    let next = AtomicUsize::new(0);
    let zipf = Zipf::new(corpus.kernels.len());
    let seen: Vec<Seen> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let pick = match traffic {
                    Traffic::Cold => Pick::Each(&next),
                    Traffic::Hot => Pick::Zipf(&zipf, Rng::seed(seed ^ ((id as u64 + 1) << 32))),
                };
                s.spawn(move || client(server, corpus, pick, until, id, trace_epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut all = Seen {
        cycles: vec![None; corpus.kernels.len()],
        ..Seen::default()
    };
    // Merging copies the sample buffers, which stay out of the heap count.
    uncounted(|| merge(&mut all, seen));
    all
}

fn merge(all: &mut Seen, seen: Vec<Seen>) {
    for one in seen {
        all.lat_us.extend(one.lat_us);
        all.attempted += one.attempted;
        all.failures.extend(one.failures);
        all.non_ok += one.non_ok;
        all.queue_ms.extend(one.queue_ms);
        if all.sample_reply.is_none() {
            all.sample_reply = one.sample_reply;
        }
        for (i, n) in one.sources.iter().enumerate() {
            all.sources[i] += n;
        }
        for (mine, theirs) in all.cycles.iter_mut().zip(one.cycles) {
            match (*mine, theirs) {
                (Some(a), Some(b)) if a != b => {
                    all.non_ok += 1;
                    all.failures
                        .push(format!("cycles {a} for one client, {b} for another"));
                }
                (None, b) => *mine = b,
                _ => {}
            }
        }
        if let Some(r) = one.rec {
            match &mut all.rec {
                Some(main) => main.absorb(r),
                None => all.rec = Some(r),
            }
        }
    }
}

/// Submit every kernel of `corpus` once (warm-up and pre-warm passes).
fn each_once(server: &Server, corpus: &Corpus) {
    drive(
        server,
        corpus,
        Traffic::Cold,
        0,
        Until::Requests(usize::MAX),
        None,
    );
}

/// A daemon with its corpus warm-up done. Dropping it drains the daemon
/// (idempotent), which joins its worker and reaper threads.
struct Ready {
    server: Server,
    corpus: Corpus,
}

impl Drop for Ready {
    fn drop(&mut self) {
        self.server.drain();
    }
}

fn set_up(args: &Args, traffic: Traffic, round: usize) -> Ready {
    let server = Server::new(serve_config(), Engine::with_workers(2));
    // Every set-up round warms up on kernels of its own, or the pass memo
    // would make the later rounds cheaper than the first.
    let warm_seed = args.seed ^ ((0xC01D + round as u64) << 20);
    let corpus = match traffic {
        Traffic::Cold => {
            let warm = Corpus::new(warm_seed, "warm", if args.smoke { 8 } else { 40 });
            each_once(&server, &warm);
            let count = (args.seconds * COLD_PER_SECOND).ceil() as usize;
            Corpus::new(args.seed, "cold", count)
        }
        Traffic::Hot => {
            // Pre-warm: every kernel simulated once, then a hot pass.
            let count = if args.smoke { 16 } else { HOT_KERNELS };
            let corpus = Corpus::new(args.seed ^ ((round as u64) << 20), "hot", count);
            each_once(&server, &corpus);
            drive(
                &server,
                &corpus,
                Traffic::Hot,
                warm_seed,
                Until::Requests(1000),
                None,
            );
            corpus
        }
    };
    Ready { server, corpus }
}

pub fn run(args: &Args, traffic: Traffic) -> Report {
    let mut report = Report {
        work_unit: "completed requests",
        lat_op: "one request, line in to rendered reply out",
        tail_pct: match traffic {
            Traffic::Cold => 95.0,
            Traffic::Hot => 99.0,
        },
        ..Report::default()
    };
    let mut rec = recorder(args);

    // Set-up, three times over; the earlier rounds' daemons are drained
    // as they are dropped.
    let ready = repeat_setup(setup_rounds(args), &mut report, |round| {
        set_up(args, traffic, round)
    });
    let (server, corpus) = (&ready.server, &ready.corpus);

    // Timed region.
    let start = start_timed();
    let mut seen = drive(
        server,
        corpus,
        traffic,
        args.seed,
        Until::Elapsed(start.0, args.seconds),
        rec.as_ref().map(Recorder::epoch),
    );
    stop_timed(&mut report, start);
    report.attempted = seen.attempted;
    report.failed = seen.non_ok;
    report.failures = std::mem::take(&mut seen.failures);
    report.lat_us = std::mem::take(&mut seen.lat_us);
    let completed = (seen.attempted - seen.non_ok) as f64;
    report.work = completed;
    report.work_per_s = completed / report.wall_s;
    if let (Some(main), Some(clients)) = (&mut rec, seen.rec.take()) {
        main.absorb(clients);
    }

    if args.trace {
        layer_metrics(args, traffic, &ready, &seen, &mut rec, &mut report);
    }
    report.recorder = rec;
    report
}

/// What the daemon's own launch of a `gen-stride` kernel sees: the
/// deterministic fills of its argument spec.
fn daemon_args(mem: &mut GlobalMem) -> (Vec<Arg>, catt_sim::Buffer) {
    let a = mem.alloc_f32(&gen::serve_fill(gen::N, 0));
    let out = mem.alloc_f32(&gen::serve_fill(gen::N, 1));
    (
        vec![Arg::Buf(a), Arg::Buf(out), Arg::I32(gen::N as i32)],
        out,
    )
}

/// Compile and launch `k` directly, as the daemon would, checking the
/// output buffer against the host reference.
fn direct(pipe: &Pipeline, cfg: &GpuConfig, k: &GenKernel) -> Result<LaunchStats, String> {
    let module = catt_frontend::parse_module(&k.source).map_err(|e| e.to_string())?;
    let kernel = module.kernel(&k.name).ok_or("kernel missing")?;
    let compiled = pipe
        .compile_kernel(kernel, launch())
        .map_err(|e| e.to_string())?;
    let program = catt_sim::lower(&compiled.transformed).map_err(|e| e.to_string())?;
    let mut mem = GlobalMem::new();
    let (args, out) = daemon_args(&mut mem);
    let stats = Gpu::new(cfg.clone())
        .launch_program(&program, launch(), &args, &mut mem)
        .map_err(|e| e.to_string())?;
    let want = k.reference(&gen::serve_fill(gen::N, 0), gen::N);
    if mem.read_f32(out) != want {
        return Err("output differs from the host reference".into());
    }
    Ok(stats)
}

fn layer_metrics(
    args: &Args,
    traffic: Traffic,
    ready: &Ready,
    seen: &Seen,
    rec: &mut Option<Recorder>,
    report: &mut Report,
) {
    let cfg = daemon_gpu();
    let pipe = Pipeline::new(cfg.clone());
    let corpus = &ready.corpus;

    // From the replies.
    let out = &mut report.layer;
    out.insert("serve.src_computed".into(), seen.sources[0] as f64);
    out.insert("serve.src_cache".into(), seen.sources[1] as f64);
    out.insert("serve.src_coalesced".into(), seen.sources[2] as f64);
    out.insert("serve.non_ok".into(), seen.non_ok as f64);
    let queue = stats::sorted(seen.queue_ms.clone());
    out.insert("serve.queue_ms_p99".into(), stats::percentile(&queue, 99.0));

    // The daemon's engine counters, over its wire protocol.
    let (tx, rx) = mpsc::channel();
    ready
        .server
        .handle_line("{\"id\":\"stats\",\"op\":\"stats\"}", &tx);
    if let Some(v) = rx
        .try_recv()
        .ok()
        .and_then(|r| json::parse(&r.render()).ok())
    {
        let field = |k: &str| v.get(k).and_then(json::Value::as_f64).unwrap_or(0.0);
        let (hits, misses) = (field("cache_hits"), field("cache_misses"));
        out.insert("engine.cache_hits".into(), hits);
        out.insert("engine.cache_misses".into(), misses);
        out.insert("engine.coalesced".into(), field("coalesced"));
        out.insert("engine.hit_ratio".into(), hits / (hits + misses).max(1.0));
    }

    // Check: a reply's cycles are what a direct compile + launch gives.
    let replied: Vec<usize> = (0..corpus.kernels.len())
        .filter(|&k| seen.cycles[k].is_some())
        .take(if args.smoke { 4 } else { 64 })
        .collect();
    for &k in &replied {
        report.attempted += 1;
        match direct(&pipe, &cfg, &corpus.kernels[k]) {
            Ok(stats) if Some(stats.cycles) == seen.cycles[k] => {}
            Ok(stats) => report.fail(format!(
                "{}: the daemon replied {:?} cycles, a direct launch takes {}",
                corpus.kernels[k].name, seen.cycles[k], stats.cycles
            )),
            Err(e) => report.fail(format!("{}: direct launch: {e}", corpus.kernels[k].name)),
        }
    }
    let out = &mut report.layer;

    // Generic compile stages over kernels this process has never seen.
    let fresh = Corpus::new(args.seed ^ (0xF4E5 << 20), "probe", COLD_REPLAY);
    let items: Vec<Item> = fresh.kernels.iter().map(Item::generated).collect();
    probes::staged_compile(rec, &items[..COLD_REPLAY / 2], &cfg, out);

    // The staged replay: one request's path, stage by stage, off the queue.
    let Some(sample_reply) = &seen.sample_reply else {
        return;
    };
    let private = Engine::with_workers(1);
    let scope = format!("catt-serve:{}", gen::STRIDE_ARGS);
    // Seconds per stage: parse_request, parse_module, compile_kernel, engine
    // hit (hot) or lower (cold), launch_program (cold only), render.
    let mut stage: [Vec<f64>; 6] = Default::default();
    let mut sim_total = LaunchStats::default();
    let mut sim_s = 0.0;
    let mut replay = |rec: &mut Option<Recorder>, corpus: &Corpus, k: usize, i: usize| {
        let op = PROBE_OP + 5000 + i as u64;
        let line = corpus.line(k, "replay");
        let (req, s) = timed(rec, "parse_request", "serve", op, || parse_request(&line));
        stage[0].push(s);
        let Ok(Op::Submit(req)) = req.map(|r| r.op) else {
            return;
        };
        let (module, s) = timed(rec, "parse_module", "frontend", op, || {
            catt_frontend::parse_module(&req.kernel_source)
        });
        stage[1].push(s);
        let Some(kernel) = module.ok().and_then(|m| m.kernel(&req.name).cloned()) else {
            return;
        };
        let (compiled, s) = timed(rec, "compile_kernel", "core", op, || {
            pipe.compile_kernel(&kernel, launch())
        });
        stage[2].push(s);
        let Ok(compiled) = compiled else { return };
        let kernels = std::slice::from_ref(&compiled.transformed);
        match traffic {
            Traffic::Hot => {
                // Lower + digest + lookup; the first sight of a kernel
                // fills the private cache and is not a sample.
                let mut filled = false;
                let (_, s) = timed(rec, "sim_app:hit", "engine", op, || {
                    private.sim_app(&scope, kernels, &[launch()], &cfg, || {
                        filled = true;
                        LaunchStats::default()
                    })
                });
                if !filled {
                    stage[3].push(s);
                }
            }
            Traffic::Cold => {
                let (program, s) = timed(rec, "lower", "sim", op, || {
                    catt_sim::lower(&compiled.transformed)
                });
                stage[3].push(s);
                let Ok(program) = program else { return };
                let mut mem = GlobalMem::new();
                let (launch_args, _) = daemon_args(&mut mem);
                let mut gpu = Gpu::new(cfg.clone());
                let (stats, s) = timed(rec, "launch_program", "sim", op, || {
                    gpu.launch_program(&program, launch(), &launch_args, &mut mem)
                });
                stage[4].push(s);
                if let Ok(stats) = stats {
                    sim_total.accumulate(&stats);
                    sim_s += s;
                }
            }
        }
        stage[5].push(timed(rec, "render", "serve", op, || sample_reply.render()).1);
    };
    match traffic {
        Traffic::Hot => {
            let zipf = Zipf::new(corpus.kernels.len());
            let mut rng = Rng::seed(args.seed ^ (0x5E7A << 20));
            let n = if args.smoke { 200 } else { HOT_REPLAY };
            for i in 0..n {
                replay(rec, corpus, zipf.sample(&mut rng), i);
            }
        }
        Traffic::Cold => {
            // The second half of the fresh kernels: never compiled so far.
            for (i, k) in (COLD_REPLAY / 2..COLD_REPLAY).enumerate() {
                replay(rec, &fresh, k, i);
            }
        }
    }
    let staged_sum: f64 = stage.iter().map(|s| p50_us(s)).sum();
    out.insert("serve.parse_request_us_p50".into(), p50_us(&stage[0]));
    out.insert("serve.render_us_p50".into(), p50_us(&stage[5]));
    out.insert("serve.staged_sum_us_p50".into(), staged_sum);
    out.insert(
        "serve.handoff_us_p50".into(),
        stats::median(&report.lat_us) - staged_sum,
    );
    match traffic {
        Traffic::Hot => {
            out.insert("engine.hit_us_p50".into(), p50_us(&stage[3]));
        }
        Traffic::Cold => {
            probes::sim_counts(&sim_total, out);
            let ns_per_instr = sim_s * 1e9 / sim_total.instructions.max(1) as f64;
            out.insert("sim.ns_per_warp_instr".into(), ns_per_instr);
            out.insert("sim.ns_per_warp_instr.gen-stride".into(), ns_per_instr);
        }
    }
    probes::launch_fixed(rec, &cfg, out);
    if traffic == Traffic::Cold {
        if let Some(kernel) = catt_frontend::parse_module(&fresh.kernels[0].source)
            .ok()
            .and_then(|m| m.kernels.first().cloned())
        {
            probes::engine(rec, &kernel, launch(), &cfg, out);
        }
    }
}
