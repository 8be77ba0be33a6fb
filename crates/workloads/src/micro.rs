//! The TLP / cache-footprint microbenchmarks of paper Fig. 3.
//!
//! `L1D-full-with-W-warps`: a kernel whose per-warp working set is sized
//! so that exactly `W` concurrent warps fill the L1D. Sweeping the actual
//! TLP from 1 to 32 warps shows the paper's trade-off: below `W`, more
//! warps help (latency hiding); above `W`, the aggregate footprint
//! exceeds the L1D and contention dominates.

use catt_frontend::parse_kernel;
use catt_ir::LaunchConfig;
use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig, Init, LaunchStats};

/// Total work budget: pass-count × warp-count is held constant across the
/// TLP sweep (32 warp-passes), so the x-axis of Fig. 3 varies parallelism
/// at *fixed total work*, exactly as the paper's "execution times at 1, 2,
/// and 4 TLPs are higher than that of 8" reading requires.
pub const WARP_PASSES: u32 = 96;

/// Build the microbenchmark kernel source: each warp owns `lines_per_warp`
/// cache lines and re-reads them `passes` times (a runtime parameter so
/// the host can hold total work constant across TLPs).
pub fn source(lines_per_warp: u32) -> String {
    format!(
        "#define S {lines_per_warp}
         __global__ void l1d_fill(float *a, float *out, int passes) {{
             int t = blockIdx.x * blockDim.x + threadIdx.x;
             int wid = t / 32;
             int lane = t % 32;
             float acc = 0.0f;
             for (int r = 0; r < passes; r++) {{
                 for (int s = 0; s < S; s++) {{
                     acc += a[(wid * S + s) * 32 + lane];
                 }}
             }}
             out[t] = acc;
         }}"
    )
}

/// Run `L1D-full-with-{full_with}-warps` at `tlp` concurrent warps (one
/// thread block of `tlp` warps on one SM), with total work fixed at
/// [`WARP_PASSES`] warp-passes over the per-warp working set. Returns the
/// launch statistics; the kernel's output is validated internally.
pub fn run(full_with: u32, tlp: u32, config: &GpuConfig) -> LaunchStats {
    assert!((1..=32).contains(&tlp), "tlp must be 1..=32 warps");
    assert!(
        WARP_PASSES.is_multiple_of(tlp),
        "tlp must divide the work budget"
    );
    let l1_lines = config.l1d_bytes() / config.l1_line_bytes;
    let lines_per_warp = (l1_lines / full_with).max(1);
    let passes = WARP_PASSES / tlp;
    let src = source(lines_per_warp);
    let kernel = parse_kernel(&src).unwrap();
    let threads = tlp * 32;
    let (mut mem, [a, out]) = GlobalMem::with_buffers([
        Init::F32(vec![1.0; (tlp * lines_per_warp * 32) as usize]),
        Init::Zeroed(threads),
    ]);
    let mut gpu = Gpu::new(config.clone());
    let stats = gpu
        .launch(
            &kernel,
            LaunchConfig::d1(1, threads),
            &[Arg::Buf(a), Arg::Buf(out), Arg::I32(passes as i32)],
            &mut mem,
        )
        .unwrap();
    let expect = (passes * lines_per_warp) as f32;
    assert!(
        mem.read_f32(out).iter().all(|&v| v == expect),
        "microbenchmark output mismatch"
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_sm() -> GpuConfig {
        let mut c = GpuConfig::titan_v_1sm();
        c.l1_cap_bytes = Some(32 * 1024); // 256 lines
                                          // Fig. 3 isolates *L1* contention: a warm L2 would absorb the
                                          // thrash misses and flatten the U-shape the paper plots.
        c.l2_kb = Some(0);
        c
    }

    /// The Fig. 3 shape: for `L1D-full-with-8-warps`, 8 warps is no
    /// slower than 32 warps (which thrash), and hit rates collapse past
    /// the fill point.
    #[test]
    fn fig3_shape_for_full_with_8() {
        let cfg = one_sm();
        let at8 = run(8, 8, &cfg);
        let at32 = run(8, 32, &cfg);
        assert!(
            at8.l1_hit_rate() > 0.9,
            "at the fill point the working set fits: {:.3}",
            at8.l1_hit_rate()
        );
        assert!(
            at32.l1_hit_rate() < 0.6,
            "4× oversubscription must thrash: {:.3}",
            at32.l1_hit_rate()
        );
        // Total work is fixed, so thrashing shows directly in wall time.
        assert!(
            at32.cycles > at8.cycles,
            "oversubscription must be slower at fixed work: {} vs {}",
            at8.cycles,
            at32.cycles
        );
    }

    #[test]
    fn low_tlp_underutilizes() {
        let cfg = one_sm();
        let at1 = run(8, 1, &cfg);
        let at8 = run(8, 8, &cfg);
        // Same total work: one warp cannot hide latency, eight can.
        assert!(
            at8.cycles < at1.cycles,
            "8 warps must beat 1 warp at fixed work: {} vs {}",
            at8.cycles,
            at1.cycles
        );
    }

    /// The full Fig. 3 U-shape: the minimum of the TLP sweep sits at (or
    /// adjacent to) the fill point. Checked for the fill points with
    /// enough parallelism to be throughput-bound (at `full-with-4` on a
    /// 32 KB L1D, four warps cannot hide latency and over-subscription
    /// genuinely wins — see EXPERIMENTS.md).
    #[test]
    fn minimum_sits_at_the_fill_point() {
        let cfg = one_sm();
        for full_with in [8u32, 16] {
            let times: Vec<(u32, u64)> = [1u32, 2, 4, 8, 16, 32]
                .iter()
                .map(|&t| (t, run(full_with, t, &cfg).cycles))
                .collect();
            let (best_tlp, _) = times.iter().min_by_key(|(_, c)| *c).unwrap();
            assert!(
                (full_with / 2..=full_with * 2).contains(best_tlp),
                "full-with-{full_with}: best TLP {best_tlp}, times {times:?}"
            );
        }
    }
}
