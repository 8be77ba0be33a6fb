//! # catt-core — Compiler-Assisted Thread Throttling
//!
//! The paper's primary contribution (ICPP 2019): a compile-time analysis
//! that estimates each loop's L1D footprint from array index expressions
//! and a source-to-source transformation that throttles thread-level
//! parallelism until the footprint fits the L1D.
//!
//! Pipeline (paper §4):
//!
//! 1. [`occupancy`] — configure the L1D / shared-memory split (§4.1,
//!    Eq. 1–4) and compute the number of concurrently resident thread
//!    blocks per SM.
//! 2. [`analysis`] — for every loop, extract the affine form
//!    `C_tid·tid + C_i·i` of every global-memory access (Eq. 5), decide
//!    cache locality (Eq. 6), count per-warp requests after coalescing
//!    (Eq. 7), sum the concurrent footprint (Eq. 8), and search the
//!    throttling factors `(N, M)` that make it fit (Eq. 9).
//! 3. [`transform`] — rewrite the kernel: warp-level throttling splits a
//!    loop into `N` warp-group phases separated by `__syncthreads()`
//!    (Fig. 4); TB-level throttling inserts a dummy `__shared__` array to
//!    reduce resident blocks (Fig. 5).
//! 4. [`passes`] / [`pipeline`] — the end-to-end
//!    `parse → analyze → legalize → transform → emit` driver, the
//!    library's main entry point: an explicit pass pipeline with panic
//!    containment (an escaped panic becomes an `E030` diagnostic, not a
//!    crash).
//!
//! [`bftt`] implements the paper's strongest software baseline: best-fixed
//! thread throttling, which exhaustively simulates every `(warps, TBs)`
//! combination and keeps the fastest — one fixed setting per application,
//! versus CATT's per-loop settings.

pub mod analysis;
pub mod bftt;
pub mod engine;
pub mod fault;
pub mod multiversion;
pub mod occupancy;
pub mod passes;
pub mod pipeline;
pub mod swizzle;
pub mod transform;

pub use analysis::{
    analyze_kernel, AccessAnalysis, KernelAnalysis, LoopAnalysis, ThrottleDecision,
};
pub use bftt::{BfttCandidate, BfttResult, CandidateOutcome, SweepError};
pub use engine::{CacheCounters, Engine, JobError, Progress};
pub use fault::FaultPlan;
pub use multiversion::MultiVersioned;
pub use occupancy::L1SmemPlan;
pub use passes::{LegalPlan, Pass, PassManager};
pub use pipeline::{CompiledApp, CompiledKernel, Pipeline, PipelineError};
pub use swizzle::{cta_swizzle, swizzle_map, SwizzlePolicy};
pub use transform::{
    eligible_loops, eligible_loops_for, guard_block_uniform, tb_throttle, warp_throttle,
};
