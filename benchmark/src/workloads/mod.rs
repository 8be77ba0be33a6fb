//! The six workloads. Each one sets up (including a warm-up pass), runs its
//! timed region, checks what the program returned, and — in the traced run
//! — replays a sample of its inputs stage by stage through the layers'
//! entry points (`probes`).

pub mod fuzz;
pub mod probes;
pub mod serve;
pub mod sim;
pub mod tune;

use crate::metrics::Values;
use crate::span::Recorder;
use std::time::Instant;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed region. `tune-sweep` is fixed work and ignores
    /// it (tuning half an app set is not a smaller version of tuning it).
    pub seconds: f64,
    pub trace: bool,
    /// Scaled-down run for `run.sh --smoke`: fewer apps, same checks.
    pub smoke: bool,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed (app run / tuned app / request /
    /// variant); a failed check is a failed operation.
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub failures: Vec<String>,
    /// One entry per set-up performed; the median is reported.
    pub setup_s: Vec<f64>,
    /// Wall and CPU seconds of the timed region, and the peak live heap up
    /// to its end (set-up included).
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_heap_mb: f64,
    /// Units of work done, what a unit is, and the reported rate.
    pub work: f64,
    pub work_unit: &'static str,
    pub work_per_s: f64,
    /// Latency samples (µs) of one operation, what the operation is, and
    /// the tail percentile the sample count was designed for.
    pub lat_us: Vec<f64>,
    pub lat_op: &'static str,
    pub tail_pct: f64,
    /// Per-layer metrics (traced run only).
    pub layer: Values,
    pub recorder: Option<Recorder>,
    /// Remarks printed with the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }
}

/// Start the clocks of a timed region.
pub fn start_timed() -> (Instant, f64) {
    (Instant::now(), crate::host::cpu_seconds())
}

/// Stop them: wall, CPU and peak heap of the region that began at `start`.
pub fn stop_timed(report: &mut Report, start: (Instant, f64)) {
    report.wall_s = start.0.elapsed().as_secs_f64();
    report.cpu_s = crate::host::cpu_seconds() - start.1;
    report.peak_heap_mb = crate::heap::peak_mb();
}

/// A recorder for the traced run, none otherwise.
pub fn recorder(args: &Args) -> Option<Recorder> {
    args.trace.then(|| Recorder::new(Instant::now(), 0))
}

/// Set-ups per run, whose median is `setup_s`: three, one in a smoke run.
pub fn setup_rounds(args: &Args) -> usize {
    if args.smoke {
        1
    } else {
        3
    }
}

/// Run `setup` `times` times, timing each, and keep the last state.
pub fn repeat_setup<S>(times: usize, report: &mut Report, mut setup: impl FnMut(usize) -> S) -> S {
    let mut state = None;
    for i in 0..times.max(1) {
        // The previous round's state goes first, outside the timed set-up,
        // so two rounds are never resident at once.
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup(i));
        report.setup_s.push(t0.elapsed().as_secs_f64());
    }
    state.expect("at least one set-up ran")
}

pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "sim-compute" => Ok(sim::run(args, sim::Mix::Compute)),
        "sim-memory" => Ok(sim::run(args, sim::Mix::Memory)),
        "tune-sweep" => Ok(tune::run(args)),
        "serve-cold" => Ok(serve::run(args, serve::Traffic::Cold)),
        "serve-hot" => Ok(serve::run(args, serve::Traffic::Hot)),
        "fuzz-oracle" => Ok(fuzz::run(args)),
        other => Err(format!("unknown workload `{other}`")),
    }
}
