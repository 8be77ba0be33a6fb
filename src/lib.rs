//! # catt-repro — Compiler-Assisted GPU Thread Throttling (ICPP 2019)
//!
//! A full Rust reproduction of *"Compiler-Assisted GPU Thread Throttling
//! for Reduced Cache Contention"* (Kim, Hong, Lee, Seo, Han — ICPP 2019):
//! the CATT compiler, the GPU simulator it is evaluated on, the
//! Polybench/Rodinia workload suite, and the BFTT baseline.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`ir`] — the kernel IR (`catt-ir`);
//! * [`frontend`] — the CUDA-C subset parser (`catt-frontend`);
//! * [`sim`] — the cycle-level GPU simulator (`catt-sim`);
//! * [`core`] — the CATT analysis + transformation pipeline and the BFTT
//!   baseline (`catt-core`);
//! * [`workloads`] — the paper's 24 benchmark applications plus the DM
//!   swizzle extension (`catt-workloads`);
//! * [`profile`] — consumers of the simulator's profiling subsystem:
//!   Chrome traces, stall reports, Eq. 8 model validation
//!   (`catt-profile`; see `catt profile --help`);
//! * [`verify`] — translation validation: differential kernel fuzzing of
//!   the transforms, counterexample shrinking, and the replayable
//!   regression corpus (`catt-verify`; see `catt fuzz`);
//! * [`serve`] — the overload-safe multi-tenant compile-and-simulate
//!   daemon (`catt-serve`; see `catt serve`);
//! * [`tune`] — the autotuner: the measured argmin of the `(N, M)`
//!   throttle ladder, static CATT and the CTA-swizzle candidates
//!   (`catt-tune`; see `catt tune`).
//!
//! ## Quickstart
//!
//! ```
//! use catt_repro::core::Pipeline;
//! use catt_repro::ir::LaunchConfig;
//! use catt_repro::sim::GpuConfig;
//!
//! let src = "
//!     #define N 40960
//!     __global__ void atax1(float *A, float *x, float *tmp) {
//!         int i = blockIdx.x * blockDim.x + threadIdx.x;
//!         if (i < N) {
//!             for (int j = 0; j < N; j++) {
//!                 tmp[i] += A[i * N + j] * x[j];
//!             }
//!         }
//!     }";
//! let pipe = Pipeline::new(GpuConfig::titan_v());
//! let app = pipe
//!     .compile_source(src, &[("atax1", LaunchConfig::d1(320, 256))])
//!     .unwrap();
//! let k = &app.kernels[0];
//! assert!(k.is_transformed(), "the divergent loop gets throttled");
//! println!("{}", k.emitted_source);
//! ```
//!
//! See `examples/` for end-to-end scenarios (compile → simulate →
//! compare against baseline and BFTT) and [`reproduce`] for the renderers
//! behind `catt reproduce`, which regenerates and checks every table and
//! figure of the paper.

pub use catt_core as core;
pub use catt_diag as diag;
pub use catt_frontend as frontend;
pub use catt_ir as ir;
pub use catt_profile as profile;
pub use catt_serve as serve;
pub use catt_sim as sim;
pub use catt_tune as tune;
pub use catt_verify as verify;
pub use catt_workloads as workloads;

pub mod reproduce;
