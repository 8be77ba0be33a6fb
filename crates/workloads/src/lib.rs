//! # catt-workloads — the paper's benchmark suite
//!
//! Ports of the Polybench/GPU and Rodinia applications of paper Table 2 to
//! the CUDA-C subset, at simulator scale. Each workload bundles:
//!
//! * CUDA kernel source (parsed by `catt-frontend` at run time, exactly as
//!   the paper's Antlr-based tool consumed C source);
//! * the launch configurations the host uses;
//! * a deterministic input generator ([`data`]);
//! * a host-side *runner* that orchestrates the kernel launches on the
//!   simulator (multi-kernel apps launch several kernels back to back;
//!   BFS iterates until the frontier drains) and validates device results
//!   against a host reference implementation.
//!
//! The runner takes the kernels as a parameter so the same host logic
//! executes the baseline, CATT-transformed, and BFTT-transformed variants
//! — transformation must be invisible to the application.
//!
//! Scale note (see DESIGN.md "Substitutions"): problem sizes are reduced
//! from the paper's (e.g. ATAX 40960² → 512²) because the evaluation
//! substrate is a simulator. The cache-contention structure is preserved:
//! what matters is the *footprint of concurrently active warps relative to
//! the L1D*, which is size-independent (Eq. 8 does not contain the trip
//! count), and trip counts stay ≫ warp count so steady-state behaviour
//! dominates.

pub mod ci;
pub mod cs;
pub mod data;
pub mod harness;
pub mod micro;
pub mod registry;

pub use harness::{run_baseline, run_bftt, run_cached, run_catt, EvalError};
pub use registry::{all_workloads, ci_workloads, cs_workloads, Group, Workload};
