//! Structured simulator errors — the sanitizer half of the guard rails.
//!
//! Every user-reachable failure on the execution path surfaces as a
//! [`SimError`] instead of a panic, so the evaluation engine can classify
//! a bad `(N, M)` candidate, record it, and keep the rest of a sweep
//! alive. The taxonomy mirrors what a real driver reports:
//!
//! * [`SimError::BarrierDeadlock`] — warps parked at `__syncthreads()`
//!   with a peer that never arrives (detected structurally, or when the
//!   cycle budget runs out with warps still parked);
//! * [`SimError::OutOfBounds`] — a host-side buffer write past the
//!   allocation (device-side wild accesses stay benign by design, see
//!   `GlobalMem::load`);
//! * [`SimError::FuelExhausted`] — the launch exceeded its cycle budget
//!   (runaway loop / mis-transformed kernel), see
//!   [`GpuConfig::fuel_budget`](crate::GpuConfig::fuel_budget);
//! * [`SimError::BadArgument`] — launch-time contract violations
//!   (argument count, unlaunchable geometry, oversized shared memory);
//! * [`SimError::MalformedProgram`] — an inconsistent divergence stack at
//!   run time (a lowering bug, kept as an error so one bad program cannot
//!   take down a fleet worker);
//! * [`SimError::Sanitizer`] — a sanitized launch
//!   ([`GpuConfig::sanitize`](crate::GpuConfig::sanitize), `catt run
//!   --sanitize`) detected undefined behaviour the forgiving
//!   functional semantics would otherwise mask: barrier divergence,
//!   inter-block global races, uninitialized global reads, shared-memory
//!   overflow (see [`crate::sanitize`]);
//! * [`SimError::Lower`] — the kernel failed to lower to bytecode.

use crate::bytecode::LowerError;
use crate::sanitize::SanitizerReport;
use std::fmt;

/// A structured, recoverable simulator failure. See the module docs for
/// the taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Warps are parked at a barrier with no runnable peer left (or the
    /// cycle budget ran out while warps were still parked — a peer that
    /// never arrives).
    BarrierDeadlock {
        /// Kernel being executed.
        kernel: String,
        /// Number of warps parked at the barrier.
        parked_warps: usize,
    },
    /// A buffer access outside its allocation.
    OutOfBounds {
        /// Kernel (or `"<host>"` for host-side buffer writes).
        kernel: String,
        /// Program counter of the faulting access (0 for host writes).
        pc: u32,
        /// Faulting byte address.
        addr: u32,
        /// The offending buffer handle, rendered (`Buffer { addr, len }`).
        buffer: String,
    },
    /// The launch exceeded its cycle budget without completing.
    FuelExhausted {
        /// Kernel being executed.
        kernel: String,
        /// Cycles consumed when the budget ran out.
        cycles: u64,
    },
    /// A launch-time contract violation (argument count, unlaunchable
    /// geometry, oversized shared memory).
    BadArgument {
        /// Kernel being launched.
        kernel: String,
        /// What was wrong.
        message: String,
    },
    /// The program's divergence stack was inconsistent at run time (a
    /// lowering bug surfaced as an error rather than a worker panic).
    MalformedProgram {
        /// Kernel being executed.
        kernel: String,
        /// Program counter of the inconsistent instruction.
        pc: u32,
        /// What was inconsistent.
        message: String,
    },
    /// A sanitized launch detected undefined behaviour (barrier
    /// divergence, inter-block race, uninitialized read, shared-memory
    /// overflow). Only produced when sanitize mode is on.
    Sanitizer(SanitizerReport),
    /// The kernel failed to lower to simulator bytecode.
    Lower(LowerError),
    /// The launch's [`CancelToken`](crate::CancelToken) fired: a caller
    /// (e.g. `catt serve` propagating a request deadline) asked the
    /// simulation to stop. Unlike [`SimError::FuelExhausted`] this bounds
    /// wall-clock time, not simulated cycles.
    Cancelled {
        /// Kernel being executed.
        kernel: String,
        /// Cycles simulated when the token was observed.
        cycles: u64,
    },
}

impl SimError {
    /// Stable machine-readable code for this error class — the string
    /// `catt serve` puts in its structured API errors (and embeds in
    /// engine `JobError` messages, see `catt_core::engine`). One token
    /// per variant; never contains `:` or whitespace.
    pub fn code(&self) -> &'static str {
        match self {
            SimError::BarrierDeadlock { .. } => "barrier-deadlock",
            SimError::OutOfBounds { .. } => "out-of-bounds",
            SimError::FuelExhausted { .. } => "fuel-exhausted",
            SimError::BadArgument { .. } => "bad-argument",
            SimError::MalformedProgram { .. } => "malformed-program",
            SimError::Sanitizer(_) => "sanitizer",
            SimError::Lower(_) => "lower-error",
            SimError::Cancelled { .. } => "cancelled",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BarrierDeadlock {
                kernel,
                parked_warps,
            } => write!(
                f,
                "barrier deadlock in `{kernel}`: {parked_warps} warp(s) parked at a barrier \
                 with a peer that never arrives"
            ),
            SimError::OutOfBounds {
                kernel,
                pc,
                addr,
                buffer,
            } => write!(
                f,
                "out-of-bounds access in `{kernel}` (pc {pc}): byte address {addr} \
                 outside {buffer}"
            ),
            SimError::FuelExhausted { kernel, cycles } => write!(
                f,
                "cycle budget exhausted in `{kernel}` after {cycles} cycles \
                 (runaway kernel? raise --fuel / GpuConfig::sim_fuel)"
            ),
            SimError::BadArgument { kernel, message } => {
                write!(f, "bad launch of `{kernel}`: {message}")
            }
            SimError::MalformedProgram {
                kernel,
                pc,
                message,
            } => write!(f, "malformed program `{kernel}` (pc {pc}): {message}"),
            SimError::Sanitizer(report) => write!(f, "sanitizer: {report}"),
            SimError::Lower(e) => e.fmt(f),
            SimError::Cancelled { kernel, cycles } => write!(
                f,
                "launch of `{kernel}` cancelled after {cycles} simulated cycles \
                 (deadline or shutdown)"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Lower(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LowerError> for SimError {
    fn from(e: LowerError) -> SimError {
        SimError::Lower(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_kernel_and_cause() {
        let e = SimError::BarrierDeadlock {
            kernel: "k".into(),
            parked_warps: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("`k`") && msg.contains("3 warp(s)"), "{msg}");

        let e = SimError::FuelExhausted {
            kernel: "spin".into(),
            cycles: 5000,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("5000") && msg.contains("GpuConfig::sim_fuel"),
            "{msg}"
        );

        let e = SimError::OutOfBounds {
            kernel: "<host>".into(),
            pc: 0,
            addr: 1024,
            buffer: "Buffer { addr: 512, len: 4 }".into(),
        };
        assert!(e.to_string().contains("Buffer { addr: 512, len: 4 }"));
    }
}
