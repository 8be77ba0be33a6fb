//! §5.1.4 — static-analysis overhead: wall-clock time of the full
//! `parse -> analyze -> transform -> emit` pipeline per application (the
//! paper reports 1-2 s with an Antlr front end; a native implementation
//! is far faster, but the point is the linear scaling in source length).

use catt_core::pipeline::Pipeline;
use catt_workloads::harness::eval_config_max_l1d;
use catt_workloads::registry::all_workloads;
use std::time::Instant;

fn main() {
    println!("Analysis overhead (full compile pipeline per application)");
    let pipe = Pipeline::new(eval_config_max_l1d());
    let mut rows = Vec::new();
    for w in all_workloads() {
        let kernels = w.kernels();
        let start = Instant::now();
        const REPS: u32 = 100;
        for _ in 0..REPS {
            for (i, k) in kernels.iter().enumerate() {
                pipe.compile_kernel(k, w.launch(i)).unwrap();
            }
        }
        let per_compile = start.elapsed() / REPS;
        rows.push(vec![
            w.abbrev.to_string(),
            w.source.lines().count().to_string(),
            format!("{:.1} us", per_compile.as_secs_f64() * 1e6),
        ]);
    }
    catt_bench::print_table(&["app", "source lines", "compile time"], &rows);
}
