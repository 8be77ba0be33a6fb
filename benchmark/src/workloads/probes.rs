//! Layer probes: the staged replay that ends a traced run.
//!
//! `tune_workload`, `Server` and `run_fuzz` call the layers internally, so
//! spans around them cannot say where the time went. The probes push a
//! sample of the same inputs through each layer's public entry point, one
//! stage at a time, and the per-layer table is computed from those spans.

use crate::metrics::Values;
use crate::span::{timed, Recorder};
use crate::stats::median;
use catt_core::{analysis::analyze_kernel, Engine, Pipeline};
use catt_ir::{printer::kernel_to_string, Kernel, LaunchConfig};
use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig, LaunchStats};
use catt_workloads::Workload;

/// Operation ids of probe spans start here, clear of the workload's own.
pub const PROBE_OP: u64 = 1 << 48;

/// Repetitions of each pure stage per item (the first compile of a kernel
/// can only happen once).
const REPS: usize = 5;

/// One kernel to replay: its source text, its name in that text, and the
/// launch the compile is told about.
#[derive(Debug, Clone)]
pub struct Item {
    pub source: String,
    pub name: String,
    pub launch: LaunchConfig,
}

impl Item {
    /// A generated kernel as a replay item.
    pub fn generated(k: &crate::gen::GenKernel) -> Item {
        Item {
            source: k.source.clone(),
            name: k.name.clone(),
            launch: crate::gen::launch(),
        }
    }
}

/// A registry app's kernels as replay items. The source is the printed
/// kernel: what the frontend is given when a compiled kernel is re-read.
pub fn registry_items(w: &Workload) -> Vec<Item> {
    w.kernels()
        .iter()
        .enumerate()
        .map(|(i, k)| Item {
            source: kernel_to_string(k),
            name: k.name.clone(),
            launch: w.launch(i),
        })
        .collect()
}

/// Median of second-valued samples, in microseconds.
pub fn p50_us(secs: &[f64]) -> f64 {
    median(secs) * 1e6
}

/// Replay `items` through frontend → ir → sim lowering → core analysis →
/// core compile (first and repeated). The items must not have been
/// compiled in this process before, or `compile_first` measures a memo hit.
pub fn staged_compile(
    rec: &mut Option<Recorder>,
    items: &[Item],
    cfg: &GpuConfig,
    out: &mut Values,
) {
    let pipe = Pipeline::new(cfg.clone());
    let (mut parse, mut print, mut lower, mut analyze) = (vec![], vec![], vec![], vec![]);
    let (mut first, mut repeat) = (vec![], vec![]);
    let mut bytes = 0usize;
    let (mut throttled, mut transformed, mut fallbacks) = (0u64, 0u64, 0u64);
    for (i, item) in items.iter().enumerate() {
        let op = PROBE_OP + i as u64;
        let mut kernel: Option<Kernel> = None;
        for _ in 0..REPS {
            let (module, s) = timed(rec, "parse_module", "frontend", op, || {
                catt_frontend::parse_module(&item.source)
            });
            parse.push(s);
            bytes += item.source.len();
            kernel = module.ok().and_then(|m| m.kernel(&item.name).cloned());
        }
        let Some(kernel) = kernel else { continue };
        let mut regs = 32;
        for _ in 0..REPS {
            print.push(
                timed(rec, "kernel_to_string", "ir", op, || {
                    kernel_to_string(&kernel)
                })
                .1,
            );
            let (program, s) = timed(rec, "lower", "sim", op, || catt_sim::lower(&kernel));
            lower.push(s);
            if let Ok(p) = program {
                regs = p.num_regs as u32;
            }
            analyze.push(
                timed(rec, "analyze_kernel", "core", op, || {
                    analyze_kernel(&kernel, item.launch, cfg, regs)
                })
                .1,
            );
        }
        let (compiled, s) = timed(rec, "compile_kernel:first", "core", op, || {
            pipe.compile_kernel(&kernel, item.launch)
        });
        first.push(s);
        if let Ok(ck) = &compiled {
            throttled += ck
                .analysis
                .loops
                .iter()
                .filter(|l| l.decision.is_throttled())
                .count() as u64;
            transformed += ck.is_transformed() as u64;
            fallbacks += ck.is_fallback() as u64;
        }
        for _ in 0..REPS {
            repeat.push(
                timed(rec, "compile_kernel:repeat", "core", op, || {
                    pipe.compile_kernel(&kernel, item.launch)
                })
                .1,
            );
        }
    }
    out.insert("frontend.parse_us_p50".into(), p50_us(&parse));
    if bytes > 0 {
        out.insert(
            "frontend.parse_ns_per_byte".into(),
            parse.iter().sum::<f64>() * 1e9 / bytes as f64,
        );
    }
    out.insert("ir.print_us_p50".into(), p50_us(&print));
    out.insert("sim.lower_us_p50".into(), p50_us(&lower));
    out.insert("core.analyze_us_p50".into(), p50_us(&analyze));
    out.insert("core.compile_first_us_p50".into(), p50_us(&first));
    out.insert("core.compile_repeat_us_p50".into(), p50_us(&repeat));
    out.insert("core.throttled_loops".into(), throttled as f64);
    out.insert("core.transformed_kernels".into(), transformed as f64);
    out.insert("core.fallbacks".into(), fallbacks as f64);
}

/// The simulated statistics of `total` (one round, or one replayed sample)
/// and the mix they describe.
pub fn sim_counts(total: &LaunchStats, out: &mut Values) {
    out.insert("sim.warp_instr".into(), total.instructions as f64);
    out.insert("sim.cycles".into(), total.cycles as f64);
    out.insert("sim.l1_accesses".into(), total.l1_accesses as f64);
    out.insert("sim.l1_hits".into(), total.l1_hits as f64);
    out.insert("sim.l2_hits".into(), total.l2_hits as f64);
    out.insert("sim.offchip_requests".into(), total.offchip_requests as f64);
    out.insert(
        "sim.l1_accesses_per_warp_instr".into(),
        total.l1_accesses as f64 / total.instructions.max(1) as f64,
    );
    out.insert(
        "sim.ipc".into(),
        total.instructions as f64 / total.cycles.max(1) as f64,
    );
}

/// The smallest launch there is: one warp storing one word. What is left
/// is the fixed cost every launch pays (workspace and dispatch set-up).
const NOOP: &str = "__global__ void noop(float *a) { a[threadIdx.x] = 1.0f; }";

/// `sim.launch_fixed_us_p50`, and the same launch sanitized, as
/// `(plain, sanitized)` medians in microseconds.
pub fn launch_fixed(rec: &mut Option<Recorder>, cfg: &GpuConfig, out: &mut Values) -> (f64, f64) {
    let kernel = catt_frontend::parse_module(NOOP)
        .expect("the no-op kernel parses")
        .kernels
        .remove(0);
    let program = catt_sim::lower(&kernel).expect("the no-op kernel lowers");
    let mut sanitized = cfg.clone();
    sanitized.sanitize = Some(true);
    let run = |rec: &mut Option<Recorder>, cfg: &GpuConfig, name: &str| {
        let samples: Vec<f64> = (0..200)
            .map(|_| {
                let mut mem = GlobalMem::new();
                let buf = mem.alloc_f32(&[0.0; 32]);
                let mut gpu = Gpu::new(cfg.clone());
                timed(rec, name, "sim", PROBE_OP, || {
                    gpu.launch_program(
                        &program,
                        LaunchConfig::d1(1, 32),
                        &[Arg::Buf(buf)],
                        &mut mem,
                    )
                })
                .1
            })
            .collect();
        p50_us(&samples)
    };
    let plain = run(rec, cfg, "launch_program:noop");
    let san = run(rec, &sanitized, "launch_program:noop:sanitize");
    out.insert("sim.launch_fixed_us_p50".into(), plain);
    (plain, san)
}

/// `engine.hit_us_p50` and `engine.miss_overhead_us_p50` on a private
/// engine: `sim_app` with a closure that simulates nothing, so what is
/// timed is lowering + digest + lookup (+ insert on a miss).
pub fn engine(
    rec: &mut Option<Recorder>,
    kernel: &Kernel,
    launch: LaunchConfig,
    cfg: &GpuConfig,
    out: &mut Values,
) {
    let engine = Engine::with_workers(1);
    let kernels = std::slice::from_ref(kernel);
    let _ = engine.sim_app("bench-probe", kernels, &[launch], cfg, LaunchStats::default);
    let hits: Vec<f64> = (0..200)
        .map(|_| {
            timed(rec, "sim_app:hit", "engine", PROBE_OP, || {
                engine.sim_app("bench-probe", kernels, &[launch], cfg, LaunchStats::default)
            })
            .1
        })
        .collect();
    let misses: Vec<f64> = (0..200)
        .map(|i| {
            let scope = format!("bench-probe-{i}");
            timed(rec, "sim_app:miss", "engine", PROBE_OP, || {
                engine.sim_app(&scope, kernels, &[launch], cfg, LaunchStats::default)
            })
            .1
        })
        .collect();
    let c = engine.cache_counters();
    debug_assert_eq!((c.hits, c.misses), (200, 201));
    out.insert("engine.hit_us_p50".into(), p50_us(&hits));
    out.insert("engine.miss_overhead_us_p50".into(), p50_us(&misses));
}
