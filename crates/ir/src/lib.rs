//! # catt-ir — kernel IR for the CATT reproduction
//!
//! This crate defines the abstract syntax / intermediate representation for
//! the CUDA-C subset the whole project operates on:
//!
//! * [`expr::Expr`] — expressions (arithmetic, builtins such as
//!   `threadIdx.x`, array element reads, intrinsic calls);
//! * [`stmt::Stmt`] — statements (declarations, assignments, structured
//!   control flow, `__syncthreads()`);
//! * [`kernel::Kernel`] / [`kernel::Module`] — `__global__` functions with
//!   parameters, plus launch configurations;
//! * [`affine`] — extraction of the affine index form
//!   `C_tid * tid + C_i * i + c` from array index expressions (Eq. 5 of the
//!   paper), the basis of CATT's footprint analysis;
//! * [`printer`] — a CUDA-like pretty printer, used by the source-to-source
//!   transformation to emit throttled kernels.
//!
//! The IR is deliberately *structured*: there is no `goto`, and loops/ifs
//! nest. This is what makes both the static analysis (loops are explicit)
//! and the SIMT divergence handling in the simulator tractable, and it
//! matches the regular structure of the Polybench/Rodinia kernels the paper
//! evaluates.

pub mod affine;
pub mod expr;
pub mod kernel;
pub mod printer;
pub mod stmt;
pub mod types;
pub mod visit;

pub use expr::{BinOp, Builtin, Expr, Intrinsic, UnOp};
pub use kernel::{Dim3, Kernel, KernelSpans, LaunchConfig, Module, Param, ParamTy};
pub use stmt::{LValue, Stmt};
pub use types::DType;
