//! Sanitizer integration tests: sanitize mode must report the undefined
//! behaviour the forgiving functional semantics mask (barrier divergence,
//! inter-block races, wild reads, shared-memory overflow), never
//! false-positive on clean kernels, and never perturb results.

use catt_frontend::parse_kernel;
use catt_ir::LaunchConfig;
use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig, SanitizerKind, SimError};

fn config(sanitize: bool) -> GpuConfig {
    let mut c = GpuConfig::small();
    c.sanitize = Some(sanitize);
    c
}

fn launch(
    src: &str,
    sanitize: bool,
    launch: LaunchConfig,
    args: &[Arg],
    mem: &mut GlobalMem,
) -> Result<catt_sim::LaunchStats, SimError> {
    let k = parse_kernel(src).unwrap();
    Gpu::new(config(sanitize)).launch(&k, launch, args, mem)
}

/// Unwrap a sanitizer finding of the expected kind (panics with the
/// actual outcome otherwise).
fn expect_finding(res: Result<catt_sim::LaunchStats, SimError>, kind: SanitizerKind) -> String {
    match res {
        Err(SimError::Sanitizer(report)) => {
            assert_eq!(report.kind, kind, "wrong kind: {report}");
            report.to_string()
        }
        Err(other) => panic!("expected a {kind:?} sanitizer report, got error {other}"),
        Ok(_) => panic!("expected a {kind:?} sanitizer report, launch succeeded"),
    }
}

// ----- barrier divergence ---------------------------------------------------

const INTRA_WARP_DIVERGENT: &str = "
    __global__ void intra(float *a) {
        if (threadIdx.x % 2 == 0) {
            __syncthreads();
        }
        a[threadIdx.x] = 1.0f;
    }";

#[test]
fn intra_warp_divergent_barrier_is_reported() {
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(32);
    let msg = expect_finding(
        launch(
            INTRA_WARP_DIVERGENT,
            true,
            LaunchConfig::d1(1, 32),
            &[Arg::Buf(ba)],
            &mut mem,
        ),
        SanitizerKind::BarrierDivergence,
    );
    assert!(msg.contains("intra-warp divergence"), "{msg}");
}

const WARP_DIVERGENT: &str = "
    __global__ void skip(float *a) {
        if (threadIdx.x < 32) {
            __syncthreads();
        }
        a[threadIdx.x] = 1.0f;
    }";

#[test]
fn warp_that_skips_a_barrier_is_reported() {
    // Warp 0 parks at the barrier; warp 1's guard is warp-uniform false,
    // so it runs to completion without arriving. Arrival-count release
    // treats Done as arrived — the site-identity check does not.
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(64);
    let msg = expect_finding(
        launch(
            WARP_DIVERGENT,
            true,
            LaunchConfig::d1(1, 64),
            &[Arg::Buf(ba)],
            &mut mem,
        ),
        SanitizerKind::BarrierDivergence,
    );
    assert!(msg.contains("never reached"), "{msg}");
}

#[test]
fn unsanitized_launch_masks_the_skipped_barrier() {
    // The exact kernel the sanitizer rejects above completes cleanly
    // under the default arrival-count semantics — this masking is why the
    // sanitizer exists.
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(64);
    launch(
        WARP_DIVERGENT,
        false,
        LaunchConfig::d1(1, 64),
        &[Arg::Buf(ba)],
        &mut mem,
    )
    .unwrap();
    assert_eq!(mem.read_f32(ba), vec![1.0; 64]);
}

#[test]
fn mismatched_barrier_sites_are_reported() {
    // Both warps park — but at *different* `__syncthreads()` sites.
    // Arrival counting happily releases them; per the CUDA programming
    // model the conditional must evaluate identically across the block.
    let src = "
        __global__ void sites(float *a) {
            if (threadIdx.x < 32) {
                __syncthreads();
            } else {
                __syncthreads();
            }
            a[threadIdx.x] = 1.0f;
        }";
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(64);
    let msg = expect_finding(
        launch(
            src,
            true,
            LaunchConfig::d1(1, 64),
            &[Arg::Buf(ba)],
            &mut mem,
        ),
        SanitizerKind::BarrierDivergence,
    );
    assert!(msg.contains("different __syncthreads() sites"), "{msg}");
}

#[test]
fn uniform_barriers_pass() {
    // A classic staged kernel: every warp of the block arrives at every
    // barrier, partial last warp included (blockDim 48 leaves warp 1 with
    // 16 valid lanes — valid-mask arrival, not a divergence finding).
    let src = "
        __global__ void staged(float *a) {
            __shared__ float s[48];
            s[threadIdx.x] = 1.0f;
            __syncthreads();
            a[threadIdx.x] = s[47 - threadIdx.x];
            __syncthreads();
            a[threadIdx.x] = a[threadIdx.x] + 1.0f;
        }";
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(48);
    launch(
        src,
        true,
        LaunchConfig::d1(1, 48),
        &[Arg::Buf(ba)],
        &mut mem,
    )
    .unwrap();
    assert_eq!(mem.read_f32(ba), vec![2.0; 48]);
}

// ----- inter-block races ----------------------------------------------------

#[test]
fn inter_block_write_write_race_is_reported() {
    let src = "
        __global__ void ww(float *a) {
            a[threadIdx.x] = 1.0f;
        }";
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(32);
    let msg = expect_finding(
        launch(
            src,
            true,
            LaunchConfig::d1(2, 32),
            &[Arg::Buf(ba)],
            &mut mem,
        ),
        SanitizerKind::GlobalRace,
    );
    assert!(msg.contains("written by both block"), "{msg}");
}

#[test]
fn inter_block_read_write_race_is_reported() {
    // Block 0 finishes before block 1 dispatches on the 1-SM test GPU,
    // yet the access pattern — block b reads what block b-1 wrote — has
    // no cross-block ordering guarantee on hardware.
    let src = "
        __global__ void rw(float *a, float *b) {
            b[blockIdx.x * blockDim.x + threadIdx.x] = a[threadIdx.x];
            a[threadIdx.x] = a[threadIdx.x] + 1.0f;
        }";
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(32);
    let bb = mem.alloc_zeroed(64);
    let msg = expect_finding(
        launch(
            src,
            true,
            LaunchConfig::d1(2, 32),
            &[Arg::Buf(ba), Arg::Buf(bb)],
            &mut mem,
        ),
        SanitizerKind::GlobalRace,
    );
    assert!(msg.contains("no ordering between blocks"), "{msg}");
}

#[test]
fn disjoint_blocks_pass_and_match_the_unsanitized_run() {
    // Block-disjoint outputs plus a shared read-only input is the legal
    // pattern every workload here follows; a sanitized launch must accept
    // it and leave memory bit-identical to the unsanitized launch.
    let src = "
        __global__ void add(float *a, float *b, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < n) { b[i] = a[i % 32] + b[i]; }
        }";
    let mk = |mem: &mut GlobalMem| {
        let ba = mem.alloc_f32(&[3.0; 32]);
        let bb = mem.alloc_f32(&[1.0; 128]);
        (ba, bb)
    };
    let mut mem_s = GlobalMem::new();
    let (a_s, b_s) = mk(&mut mem_s);
    let stats_s = launch(
        src,
        true,
        LaunchConfig::d1(4, 32),
        &[Arg::Buf(a_s), Arg::Buf(b_s), Arg::I32(128)],
        &mut mem_s,
    )
    .unwrap();
    let mut mem_u = GlobalMem::new();
    let (a_u, b_u) = mk(&mut mem_u);
    let stats_u = launch(
        src,
        false,
        LaunchConfig::d1(4, 32),
        &[Arg::Buf(a_u), Arg::Buf(b_u), Arg::I32(128)],
        &mut mem_u,
    )
    .unwrap();
    assert_eq!(
        mem_s.content_digest(),
        mem_u.content_digest(),
        "the sanitizer only observes"
    );
    assert_eq!(stats_s.cycles, stats_u.cycles);
    assert_eq!(stats_s.instructions, stats_u.instructions);
    assert_eq!(mem_s.read_f32(b_s), vec![4.0; 128]);
    let _ = (a_s, a_u, b_u);
}

// ----- wild reads -----------------------------------------------------------

#[test]
fn read_past_the_footprint_is_reported() {
    let src = "
        __global__ void wild(float *a) {
            a[threadIdx.x] = a[threadIdx.x + 100];
        }";
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(32);
    let msg = expect_finding(
        launch(
            src,
            true,
            LaunchConfig::d1(1, 32),
            &[Arg::Buf(ba)],
            &mut mem,
        ),
        SanitizerKind::UninitializedRead,
    );
    assert!(msg.contains("no allocation covers"), "{msg}");
}

#[test]
fn read_in_alignment_padding_is_reported() {
    // Buffers are 256-byte aligned, so a 32-word buffer is followed by
    // 32 words of padding before the next one: a[32] reads the gap. The
    // unsanitized simulator returns 0 there; hardware reads garbage.
    let src = "
        __global__ void gap(float *a, float *b) {
            b[threadIdx.x] = a[threadIdx.x + 1];
        }";
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_f32(&[1.0; 32]);
    let bb = mem.alloc_zeroed(32);
    let msg = expect_finding(
        launch(
            src,
            true,
            LaunchConfig::d1(1, 32),
            &[Arg::Buf(ba), Arg::Buf(bb)],
            &mut mem,
        ),
        SanitizerKind::UninitializedRead,
    );
    assert!(msg.contains("no allocation covers"), "{msg}");
}

#[test]
fn read_of_a_zero_length_buffer_is_reported() {
    // An empty buffer allocated last starts at the first byte *past* the
    // footprint and owns no word: `e[0]` is a wild read.
    let src = "
        __global__ void empty(float *a, float *e) {
            a[threadIdx.x] = e[0];
        }";
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_f32(&[1.0; 4]);
    let be = mem.alloc_f32(&[]);
    assert_eq!(be.addr as usize, mem.footprint_bytes());
    let msg = expect_finding(
        launch(
            src,
            true,
            LaunchConfig::d1(1, 4),
            &[Arg::Buf(ba), Arg::Buf(be)],
            &mut mem,
        ),
        SanitizerKind::UninitializedRead,
    );
    assert!(msg.contains("no allocation covers"), "{msg}");
}

// ----- shared-memory overflow -----------------------------------------------

#[test]
fn shared_store_overflow_is_reported() {
    let src = "
        __global__ void soob(float *a) {
            __shared__ float s[16];
            s[threadIdx.x] = 1.0f;
            __syncthreads();
            a[threadIdx.x] = s[threadIdx.x % 16];
        }";
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(32);
    let msg = expect_finding(
        launch(
            src,
            true,
            LaunchConfig::d1(1, 32),
            &[Arg::Buf(ba)],
            &mut mem,
        ),
        SanitizerKind::SharedOutOfBounds,
    );
    assert!(msg.contains("stores to shared byte address"), "{msg}");
}

#[test]
fn shared_load_overflow_is_reported() {
    let src = "
        __global__ void loob(float *a) {
            __shared__ float s[16];
            s[threadIdx.x % 16] = 1.0f;
            __syncthreads();
            a[threadIdx.x] = s[threadIdx.x + 16];
        }";
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(32);
    let msg = expect_finding(
        launch(
            src,
            true,
            LaunchConfig::d1(1, 32),
            &[Arg::Buf(ba)],
            &mut mem,
        ),
        SanitizerKind::SharedOutOfBounds,
    );
    assert!(msg.contains("loads shared byte address"), "{msg}");
}

#[test]
fn in_bounds_shared_accesses_pass() {
    let src = "
        __global__ void sok(float *a) {
            __shared__ float s[32];
            s[threadIdx.x] = 2.0f;
            __syncthreads();
            a[threadIdx.x] = s[31 - threadIdx.x];
        }";
    let mut mem = GlobalMem::new();
    let ba = mem.alloc_zeroed(32);
    launch(
        src,
        true,
        LaunchConfig::d1(1, 32),
        &[Arg::Buf(ba)],
        &mut mem,
    )
    .unwrap();
    assert_eq!(mem.read_f32(ba), vec![2.0; 32]);
}
