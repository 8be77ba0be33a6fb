//! # catt-sim — cycle-level GPU simulator
//!
//! The paper evaluates CATT on an Nvidia Titan V. This crate is the
//! substitute substrate: a cycle-level simulator of the GPU subsystems that
//! determine cache contention — streaming multiprocessors with greedy-
//! then-oldest warp schedulers, SIMT execution with divergence masks,
//! memory-request coalescing into 128-byte lines, a set-associative L1D
//! with MSHRs, a latency/bandwidth model for L2/DRAM, shared memory with
//! `__syncthreads()` barriers, and an occupancy-limited thread-block
//! dispatcher.
//!
//! Crucially, thread-throttling *transformations are executed, not
//! modelled*: a warp-throttled kernel (paper Fig. 4) parks the inactive
//! warp groups at barriers, and a TB-throttled kernel (Fig. 5) reduces
//! resident blocks through its inflated shared-memory usage — their effect
//! on hit rates and cycles emerges from the same mechanisms as on real
//! hardware.
//!
//! ```
//! use catt_frontend::parse_kernel;
//! use catt_ir::LaunchConfig;
//! use catt_sim::{Gpu, GpuConfig, GlobalMem, Arg};
//!
//! let k = parse_kernel(
//!     "__global__ void scale(float *a, int n) {
//!          int i = blockIdx.x * blockDim.x + threadIdx.x;
//!          if (i < n) { a[i] = a[i] * 2.0f; }
//!      }",
//! ).unwrap();
//! let mut mem = GlobalMem::new();
//! let buf = mem.alloc_f32(&[1.0; 64]);
//! let mut gpu = Gpu::new(GpuConfig::small());
//! let stats = gpu
//!     .launch(&k, LaunchConfig::d1(2, 32), &[Arg::Buf(buf), Arg::I32(64)], &mut mem)
//!     .unwrap();
//! assert!(stats.cycles > 0);
//! assert_eq!(mem.read_f32(buf)[0], 2.0);
//! ```

pub mod bytecode;
pub mod cache;
pub mod config;
pub mod digest;
pub mod error;
pub mod mem;
pub mod metrics;
pub mod occupancy;
pub mod profile;
pub mod sanitize;
pub mod sm;
pub mod warp;

pub use bytecode::{lower, LowerError, Program};
pub use config::{
    add_active_engine_workers, engine_workers_guard, engine_workers_hint, host_parallelism,
    remove_active_engine_workers, CancelToken, EngineWorkersGuard, GpuConfig, L1Config, Latencies,
    FUEL_BASE, FUEL_PER_BYTE, SMEM_CONFIGS_KB,
};
pub use digest::Fnv64;
pub use error::SimError;
pub use mem::{Arg, Buffer, DeviceMem, GlobalMem, ShadowMem, StoreLog};
pub use metrics::{ExecCounts, LaunchStats, RequestTrace};
pub use occupancy::{max_resident_tbs, OccupancyLimits};
pub use profile::{
    LaunchProfile, MissWindow, NullSink, PhaseEvent, PhaseKind, ProfileSink, SetCounters,
    SmProfile, StallReason,
};
pub use sanitize::{SanitizerKind, SanitizerReport};

use catt_ir::{Kernel, LaunchConfig};

/// The simulated GPU. Construct once per configuration and [`Gpu::launch`]
/// kernels on it; global memory lives outside so buffers persist across
/// launches like on a real device.
pub struct Gpu {
    config: GpuConfig,
}

impl Gpu {
    /// A GPU with the given configuration.
    pub fn new(config: GpuConfig) -> Gpu {
        Gpu { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Lower and run `kernel` with the given launch configuration and
    /// arguments (one [`Arg`] per kernel parameter, in order).
    ///
    /// Thread blocks are distributed round-robin over the configured SMs;
    /// each SM runs its blocks under the occupancy limits implied by the
    /// kernel's shared-memory and register usage. Reported `cycles` is the
    /// maximum over SMs (they run independently; the shared L2/DRAM is a
    /// per-SM latency/bandwidth model, see DESIGN.md). On a multi-thread
    /// budget the SMs are simulated on parallel worker threads with
    /// bit-identical results ([`GpuConfig::sm_parallel`] picks a path
    /// explicitly; see DESIGN.md "Parallel SM execution").
    ///
    /// All user-reachable failures — lowering errors, bad arguments,
    /// barrier deadlocks, cycle-budget exhaustion — come back as a
    /// structured [`SimError`], never a panic (see `error` module docs).
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
        args: &[Arg],
        mem: &mut GlobalMem,
    ) -> Result<LaunchStats, SimError> {
        let program = bytecode::lower(kernel)?;
        self.launch_program(&program, launch, args, mem)
    }

    /// Run an already-lowered [`Program`]. Useful when the same kernel is
    /// launched repeatedly (parameter sweeps).
    pub fn launch_program(
        &mut self,
        program: &Program,
        launch: LaunchConfig,
        args: &[Arg],
        mem: &mut GlobalMem,
    ) -> Result<LaunchStats, SimError> {
        sm::run_launch(&self.config, program, launch, args, mem)
    }

    /// Lower `kernel` and execute it *functionally*: see
    /// [`Gpu::execute_program`].
    pub fn execute(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
        args: &[Arg],
        mem: &mut GlobalMem,
    ) -> Result<ExecCounts, SimError> {
        let program = bytecode::lower(kernel)?;
        self.execute_program(&program, launch, args, mem)
    }

    /// Execute `program` for its effect on `mem` only — what a warp
    /// computes, not when it issues. The launch is admitted exactly as
    /// [`Gpu::launch_program`] admits it, then blocks run in ascending
    /// linear id, one at a time, each warp up to its next barrier or exit,
    /// through the timed model's instruction semantics and sanitizer
    /// checks. That is a legal schedule, not the timed one: memory and the
    /// counts agree with `launch_program` on every kernel free of
    /// intra-block races.
    ///
    /// Honours [`GpuConfig::sanitize`], [`GpuConfig::sim_fuel`] (as
    /// `fuel × schedulers_per_sm` warp-instructions — never stricter than
    /// the cycle bound) and [`GpuConfig::cancel`] (polled between barrier
    /// phases). Ignores everything about time: cache geometry, latencies,
    /// `num_sms` and thread budgets, DYNCTA, profiling, request tracing.
    pub fn execute_program(
        &mut self,
        program: &Program,
        launch: LaunchConfig,
        args: &[Arg],
        mem: &mut GlobalMem,
    ) -> Result<ExecCounts, SimError> {
        sm::run_functional(&self.config, program, launch, args, mem)
    }
}
