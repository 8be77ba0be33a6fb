//! Quickstart: compile a divergent kernel with CATT, inspect the analysis
//! and the transformed source, and measure the effect on the simulator.
//!
//! Run with `cargo run --release --example quickstart`.

use catt_repro::core::Pipeline;
use catt_repro::ir::LaunchConfig;
use catt_repro::sim::{Arg, GlobalMem, Gpu, GpuConfig, Init};

fn main() {
    // The paper's Fig. 1 kernel, at simulator scale (1024 rows of 96
    // columns): each thread walks one row, so adjacent threads are 96
    // elements apart — fully divergent accesses that thrash the L1D.
    let n_rows = 1024u32;
    let n_cols = 96u32;
    let src = format!(
        "#define NX {n_rows}
         #define NY {n_cols}
         __global__ void atax_kernel1(float *A, float *x, float *tmp) {{
             int i = blockIdx.x * blockDim.x + threadIdx.x;
             if (i < NX) {{
                 for (int j = 0; j < NY; j++) {{
                     tmp[i] += A[i * NY + j] * x[j];
                 }}
             }}
         }}"
    );
    let launch = LaunchConfig::d1(n_rows / 256, 256);

    // 1. Compile with CATT for a single-SM Titan V.
    let config = GpuConfig::titan_v_1sm();
    let pipe = Pipeline::new(config.clone());
    let app = pipe
        .compile_source(&src, &[("atax_kernel1", launch)])
        .expect("compilation");
    let ck = &app.kernels[0];

    println!("=== CATT analysis ===");
    let a = &ck.analysis;
    println!(
        "kernel `{}`: baseline TLP (warps, TBs) = {:?}, L1D = {} KB, regs/thread = {}",
        a.kernel_name,
        a.baseline_tlp(),
        a.plan.l1d_bytes / 1024,
        a.regs_per_thread
    );
    for l in &a.loops {
        println!(
            "  loop {}: footprint {} lines, contended = {}, decision N={} M={} -> TLP {:?}",
            l.loop_id,
            l.size_req_lines,
            l.contended,
            l.decision.n,
            l.decision.m,
            l.tlp(a.warps_per_tb, a.plan.resident_tbs)
        );
    }

    println!("\n=== transformed source ===\n{}", ck.emitted_source);

    // 2. Run both versions on the simulator and compare.
    let run = |kernel: &catt_repro::ir::Kernel| {
        let (mut mem, [a, x, tmp]) = GlobalMem::with_buffers([
            Init::F32(vec![1.0; (n_rows * n_cols) as usize]),
            Init::F32(vec![2.0; n_cols as usize]),
            Init::Zeroed(n_rows),
        ]);
        let mut gpu = Gpu::new(config.clone());
        let stats = gpu
            .launch(
                kernel,
                launch,
                &[Arg::Buf(a), Arg::Buf(x), Arg::Buf(tmp)],
                &mut mem,
            )
            .unwrap();
        // Correctness: every row sums to 2 * NY.
        assert!(mem.read_f32(tmp).iter().all(|&v| v == 2.0 * n_cols as f32));
        stats
    };
    let base = run(&ck.original);
    let catt = run(&ck.transformed);

    println!("=== simulation ===");
    println!(
        "baseline: {:>9} cycles, L1D hit rate {:5.1}%, {} off-chip requests",
        base.cycles,
        100.0 * base.l1_hit_rate(),
        base.offchip_requests
    );
    println!(
        "CATT:     {:>9} cycles, L1D hit rate {:5.1}%, {} off-chip requests",
        catt.cycles,
        100.0 * catt.l1_hit_rate(),
        catt.offchip_requests
    );
    println!("speedup:  {:.2}x", base.cycles as f64 / catt.cycles as f64);
}
