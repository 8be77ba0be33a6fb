//! Kernels, parameters, launch configurations, and modules.

use crate::stmt::Stmt;
use crate::types::DType;
use crate::visit;
use catt_diag::Span;

/// Source-span side table for a kernel: where in the submitted source
/// the kernel name, each loop, and each barrier sit. Filled by the
/// parser; empty (`Default`) for kernels built programmatically.
///
/// Loops are indexed by the same blind pre-order numbering over
/// `for`/`while` that `catt_core` analysis and transforms use for
/// `loop_id`, so a legality diagnostic for loop *k* can point at
/// `spans.loops[k]`.
///
/// Equality is intentionally vacuous: the round-trip check
/// `parse(print(k)) == k` and the pipeline's `original != transformed`
/// comparison must not be perturbed by where the text happened to sit.
#[derive(Debug, Clone, Default)]
pub struct KernelSpans {
    /// Span of the kernel's name token in its declaration.
    pub name: Span,
    /// One span per `for`/`while`, pre-order, from the loop keyword to
    /// the end of the loop body.
    pub loops: Vec<Span>,
    /// Span of every `__syncthreads()` call, in source order.
    pub barriers: Vec<Span>,
}

impl PartialEq for KernelSpans {
    fn eq(&self, _other: &KernelSpans) -> bool {
        true
    }
}

impl KernelSpans {
    /// Span for pre-order loop `loop_id`, if the kernel came through
    /// the parser and the id is in range.
    pub fn loop_span(&self, loop_id: usize) -> Option<Span> {
        self.loops.get(loop_id).copied()
    }
}

/// A three-component launch dimension (`dim3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Dim3 {
    /// 1-D dimension `(x, 1, 1)`.
    pub const fn x(x: u32) -> Dim3 {
        Dim3 { x, y: 1, z: 1 }
    }

    /// 2-D dimension `(x, y, 1)`.
    pub const fn xy(x: u32, y: u32) -> Dim3 {
        Dim3 { x, y, z: 1 }
    }

    /// Total element count `x * y * z`.
    pub const fn count(self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Dim3 {
        Dim3::x(x)
    }
}

/// Kernel parameter type: either a pointer to global memory or a scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamTy {
    /// `float *A` — flat array in off-chip global memory.
    Ptr(DType),
    /// `int n` — scalar passed by value.
    Scalar(DType),
}

/// A kernel parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub name: String,
    pub ty: ParamTy,
}

impl Param {
    /// Pointer parameter `elem *name`.
    pub fn ptr(name: impl Into<String>, elem: DType) -> Param {
        Param {
            name: name.into(),
            ty: ParamTy::Ptr(elem),
        }
    }

    /// Scalar parameter.
    pub fn scalar(name: impl Into<String>, ty: DType) -> Param {
        Param {
            name: name.into(),
            ty: ParamTy::Scalar(ty),
        }
    }
}

/// A `__global__` kernel function.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    pub name: String,
    pub params: Vec<Param>,
    pub body: Vec<Stmt>,
    /// Source spans (see [`KernelSpans`]); does not participate in
    /// equality. Empty for programmatically built kernels.
    pub spans: KernelSpans,
}

impl Kernel {
    /// Create an empty kernel.
    pub fn new(name: impl Into<String>, params: Vec<Param>, body: Vec<Stmt>) -> Kernel {
        Kernel {
            name: name.into(),
            params,
            body,
            spans: KernelSpans::default(),
        }
    }

    /// Total statically declared shared memory, in bytes, over every
    /// `__shared__` declaration anywhere in the kernel (paper: `USE_shm_TB`
    /// of Eq. 1). This is what the TB-level throttling transform inflates.
    pub fn shared_mem_bytes(&self) -> u32 {
        let mut total = 0u32;
        visit::walk_stmts(&self.body, &mut |s| {
            if let Stmt::DeclShared { elem, len, .. } = s {
                // Saturating: fuzzed sources can declare absurd extents,
                // and "more shared memory than any config has" is the
                // right downstream outcome, not an overflow panic.
                total = total.saturating_add(elem.size_bytes().saturating_mul(*len));
            }
        });
        total
    }

    /// Names of pointer (global-memory) parameters.
    pub fn global_arrays(&self) -> Vec<&str> {
        self.params
            .iter()
            .filter(|p| matches!(p.ty, ParamTy::Ptr(_)))
            .map(|p| p.name.as_str())
            .collect()
    }

    /// Names of `__shared__` arrays declared in the kernel.
    pub fn shared_arrays(&self) -> Vec<String> {
        let mut out = Vec::new();
        visit::walk_stmts(&self.body, &mut |s| {
            if let Stmt::DeclShared { name, .. } = s {
                out.push(name.clone());
            }
        });
        out
    }

    /// Whether `name` is a `__shared__` array (as opposed to a global
    /// pointer parameter).
    pub fn is_shared_array(&self, name: &str) -> bool {
        let mut found = false;
        visit::walk_stmts(&self.body, &mut |s| {
            if let Stmt::DeclShared { name: n, .. } = s {
                found |= n == name;
            }
        });
        found
    }
}

/// Launch configuration for one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    pub grid: Dim3,
    pub block: Dim3,
}

impl LaunchConfig {
    /// 1-D launch `<<<grid, block>>>`.
    pub const fn d1(grid: u32, block: u32) -> LaunchConfig {
        LaunchConfig {
            grid: Dim3::x(grid),
            block: Dim3::x(block),
        }
    }

    /// Threads per block.
    pub const fn threads_per_block(&self) -> u32 {
        (self.block.count()) as u32
    }

    /// Warps per thread block, rounding partial warps up (paper
    /// `#Warps_TB`; warp size 32).
    pub const fn warps_per_block(&self) -> u32 {
        self.threads_per_block().div_ceil(32)
    }

    /// Total thread blocks in the grid.
    pub const fn num_blocks(&self) -> u32 {
        self.grid.count() as u32
    }
}

/// A translation unit: several kernels plus the `#define` constants seen
/// while parsing (retained for re-emission).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    pub defines: Vec<(String, i64)>,
    pub kernels: Vec<Kernel>,
}

impl Module {
    /// Find a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn dim3_count() {
        assert_eq!(Dim3::x(320).count(), 320);
        assert_eq!(Dim3::xy(16, 16).count(), 256);
    }

    #[test]
    fn warps_per_block_rounds_up() {
        assert_eq!(LaunchConfig::d1(1, 256).warps_per_block(), 8);
        assert_eq!(LaunchConfig::d1(1, 33).warps_per_block(), 2);
        assert_eq!(LaunchConfig::d1(1, 32).warps_per_block(), 1);
        assert_eq!(LaunchConfig::d1(1, 1).warps_per_block(), 1);
    }

    #[test]
    fn shared_mem_accounting() {
        let k = Kernel::new(
            "k",
            vec![],
            vec![
                Stmt::DeclShared {
                    name: "a".into(),
                    elem: DType::F32,
                    len: 256,
                },
                Stmt::if_then(
                    Expr::int(1),
                    vec![Stmt::DeclShared {
                        name: "b".into(),
                        elem: DType::I32,
                        len: 64,
                    }],
                ),
            ],
        );
        assert_eq!(k.shared_mem_bytes(), 256 * 4 + 64 * 4);
        assert_eq!(k.shared_arrays(), vec!["a", "b"]);
        assert!(k.is_shared_array("a"));
        assert!(!k.is_shared_array("c"));
    }

    #[test]
    fn global_arrays_filters_scalars() {
        let k = Kernel::new(
            "k",
            vec![
                Param::ptr("A", DType::F32),
                Param::scalar("n", DType::I32),
                Param::ptr("B", DType::I32),
            ],
            vec![],
        );
        assert_eq!(k.global_arrays(), vec!["A", "B"]);
    }

    #[test]
    fn module_lookup() {
        let m = Module {
            defines: vec![],
            kernels: vec![
                Kernel::new("a", vec![], vec![]),
                Kernel::new("b", vec![], vec![]),
            ],
        };
        assert!(m.kernel("a").is_some());
        assert!(m.kernel("missing").is_none());
    }
}
