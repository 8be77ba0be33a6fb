//! CTA-swizzle: remap block IDs to change the *order* in which thread
//! blocks touch memory, without changing what any block computes.
//!
//! Throttling (paper §4.3) reduces cache contention by running fewer
//! threads at once; swizzling attacks the same contention from the other
//! side, by making the blocks that *do* run concurrently share lines in
//! the L2. The pass rewrites every use of `blockIdx.x` / `blockIdx.y` to
//! a pair of prologue locals computed by a compile-time bijection over
//! the launched grid, so the same set of blocks runs, each doing exactly
//! the same work — only the schedule-order ↦ data-coordinate mapping
//! moves. Bijectivity is what makes the transform semantics-preserving
//! for any kernel without cross-block races, and it is what the
//! differential oracle in `catt-verify` checks end to end.

use catt_ir::expr::{BinOp, Builtin, Expr};
use catt_ir::kernel::Kernel;
use catt_ir::stmt::Stmt;
use catt_ir::visit::walk_exprs_in_stmts_mut;

/// Prologue local holding the swizzled `blockIdx.x`.
pub const SWIZZLE_BX: &str = "catt_sw_bx";
/// Prologue local holding the swizzled `blockIdx.y`.
pub const SWIZZLE_BY: &str = "catt_sw_by";

/// A compile-time bijection over the launched 2-D grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwizzlePolicy {
    /// Even grid rows keep their column order, odd rows reverse it:
    /// `bx' = (by % 2 == 0) ? bx : gx−1−bx`. Consecutive rows then end on
    /// the same columns they start from, so row-boundary neighbours share
    /// their column working set. Identity on 1-D grids.
    Serpentine,
    /// Tile-major traversal: blocks in linear launch order walk a
    /// `t`-column band top to bottom before moving right. Requires
    /// `t | gridDim.x`; identity when `t == gridDim.x` or the grid is
    /// 1-D.
    TileMajor(u32),
    /// XOR-fold of the linear block id: `q = p ^ k`, kept only when `q`
    /// stays inside the grid (otherwise `p` maps to itself). The map is
    /// an involution, hence bijective on any grid size — the only policy
    /// that is non-trivial on 1-D grids, which is what lets the
    /// differential oracle exercise swizzling on its 1-D kernels.
    XorFold(u32),
}

impl SwizzlePolicy {
    /// Stable key=value encoding (`serpentine`, `tile=4`, `xor=5`) used
    /// by recipe strings; round-trips through [`SwizzlePolicy::parse`].
    pub fn describe(&self) -> String {
        match self {
            SwizzlePolicy::Serpentine => "serpentine".into(),
            SwizzlePolicy::TileMajor(t) => format!("tile={t}"),
            SwizzlePolicy::XorFold(k) => format!("xor={k}"),
        }
    }

    /// Inverse of [`SwizzlePolicy::describe`].
    pub fn parse(s: &str) -> Option<SwizzlePolicy> {
        if s == "serpentine" {
            return Some(SwizzlePolicy::Serpentine);
        }
        if let Some(t) = s.strip_prefix("tile=") {
            return t.parse().ok().map(SwizzlePolicy::TileMajor);
        }
        if let Some(k) = s.strip_prefix("xor=") {
            return k.parse().ok().map(SwizzlePolicy::XorFold);
        }
        None
    }

    /// The policies the autotuner and the differential oracle enumerate.
    /// Parameters are kept small and grid-agnostic: tile widths that
    /// divide common grids, XOR keys below every oracle grid size.
    pub fn candidates() -> Vec<SwizzlePolicy> {
        vec![
            SwizzlePolicy::Serpentine,
            SwizzlePolicy::TileMajor(2),
            SwizzlePolicy::TileMajor(4),
            SwizzlePolicy::XorFold(1),
            SwizzlePolicy::XorFold(3),
        ]
    }
}

/// Host-side reference of the block-id map the generated prologue
/// computes: physical `(bx, by)` under `grid = (gx, gy)` ↦ the swizzled
/// coordinates the kernel observes. Tests prove this bijective and the
/// simulator proves the emitted IR agrees with it.
pub fn swizzle_map(policy: SwizzlePolicy, grid: (u32, u32), bx: u32, by: u32) -> (u32, u32) {
    let (gx, gy) = (grid.0 as u64, grid.1 as u64);
    let (bx, by) = (bx as u64, by as u64);
    match policy {
        SwizzlePolicy::Serpentine => {
            if by % 2 == 0 {
                (bx as u32, by as u32)
            } else {
                ((gx - 1 - bx) as u32, by as u32)
            }
        }
        SwizzlePolicy::TileMajor(t) => {
            let t = t as u64;
            let p = by * gx + bx;
            let band = t * gy;
            (((p / band) * t + p % t) as u32, ((p % band) / t) as u32)
        }
        SwizzlePolicy::XorFold(k) => {
            let p = by * gx + bx;
            let q = p ^ k as u64;
            let r = if q < gx * gy { q } else { p };
            ((r % gx) as u32, (r / gx) as u32)
        }
    }
}

/// Whether [`cta_swizzle`] applies `policy` on `grid`: a non-empty 2-D
/// grid (3-D swizzles are out of scope) on which the policy is a
/// bijection (`t | gx`, `t > 0`).
fn applies(policy: SwizzlePolicy, (gx, gy, gz): (u32, u32, u32)) -> bool {
    if gz > 1 || gx == 0 || gy == 0 {
        return false;
    }
    match policy {
        SwizzlePolicy::Serpentine => true,
        SwizzlePolicy::TileMajor(t) => t != 0 && gx.is_multiple_of(t),
        // Keys at or above i32::MAX could overflow the kernel's 32-bit
        // signed arithmetic in the `p ^ k` intermediate.
        SwizzlePolicy::XorFold(k) => k <= i32::MAX as u32,
    }
}

/// Whether [`cta_swizzle`] applies `policy` on `grid` and the map moves at
/// least one block: some `(bx, by)` has `swizzle_map(..) != (bx, by)`.
/// Otherwise the swizzled kernel launches every block on the data it had.
/// Closed forms, on an `n = gx·gy`-block grid:
/// - serpentine reverses odd rows: it moves `(0, 1)` iff `gx ≥ 2` and `gy ≥ 2`;
/// - `tile=t` is the identity on a 1-D grid and at `t == gx`; otherwise it
///   moves `(t, 0)` to `(0, 1)`;
/// - `xor=k` with `h` the top bit of `k` moves `p = h` when `n > h`; when
///   `n ≤ h` every `p < n` lacks bit `h`, so `p ^ k ≥ h` leaves the grid.
pub fn moves_a_block(policy: SwizzlePolicy, grid: (u32, u32, u32)) -> bool {
    let (gx, gy, _) = grid;
    applies(policy, grid)
        && match policy {
            SwizzlePolicy::Serpentine => gx >= 2 && gy >= 2,
            SwizzlePolicy::TileMajor(t) => gy >= 2 && t < gx,
            SwizzlePolicy::XorFold(k) => k != 0 && gx as u64 * gy as u64 > 1 << k.ilog2(),
        }
}

/// Apply the CTA swizzle for a known launch grid: rewrite every
/// `blockIdx.x` / `blockIdx.y` use to the prologue locals and prepend
/// their defining declarations. Returns `None` when the policy is not a
/// bijection on this grid (`t ∤ gx`, `t == 0`) or the grid has a `z`
/// extent (3-D swizzles are out of scope).
pub fn cta_swizzle(
    kernel: &Kernel,
    policy: SwizzlePolicy,
    grid: (u32, u32, u32),
) -> Option<Kernel> {
    if !applies(policy, grid) {
        return None;
    }
    let (gx, gy, _) = grid;

    let mut out = kernel.clone();
    walk_exprs_in_stmts_mut(&mut out.body, &mut |e| match e {
        Expr::Builtin(Builtin::BlockIdxX) => *e = Expr::var(SWIZZLE_BX),
        Expr::Builtin(Builtin::BlockIdxY) => *e = Expr::var(SWIZZLE_BY),
        _ => {}
    });

    let bx = || Expr::Builtin(Builtin::BlockIdxX);
    let by = || Expr::Builtin(Builtin::BlockIdxY);
    let (gx, gy) = (gx as i64, gy as i64);
    let prologue = match policy {
        SwizzlePolicy::Serpentine => vec![
            Stmt::decl_i32(
                SWIZZLE_BX,
                Expr::Select(
                    Box::new(by().rem(Expr::int(2)).eq_(Expr::int(0))),
                    Box::new(bx()),
                    Box::new(Expr::int(gx - 1).sub(bx())),
                ),
            ),
            Stmt::decl_i32(SWIZZLE_BY, by()),
        ],
        SwizzlePolicy::TileMajor(t) => {
            let t = t as i64;
            let p = || Expr::var("catt_sw_p");
            vec![
                Stmt::decl_i32("catt_sw_p", by().mul(Expr::int(gx)).add(bx())),
                Stmt::decl_i32(
                    SWIZZLE_BX,
                    p().div(Expr::int(t * gy))
                        .mul(Expr::int(t))
                        .add(p().rem(Expr::int(t))),
                ),
                Stmt::decl_i32(SWIZZLE_BY, p().rem(Expr::int(t * gy)).div(Expr::int(t))),
            ]
        }
        SwizzlePolicy::XorFold(k) => {
            let p = || Expr::var("catt_sw_p");
            let q = || Expr::var("catt_sw_q");
            let r = || Expr::var("catt_sw_r");
            vec![
                Stmt::decl_i32("catt_sw_p", by().mul(Expr::int(gx)).add(bx())),
                Stmt::decl_i32(
                    "catt_sw_q",
                    Expr::Binary(BinOp::BitXor, Box::new(p()), Box::new(Expr::int(k as i64))),
                ),
                Stmt::decl_i32(
                    "catt_sw_r",
                    Expr::Select(
                        Box::new(q().lt(Expr::int(gx * gy))),
                        Box::new(q()),
                        Box::new(p()),
                    ),
                ),
                Stmt::decl_i32(SWIZZLE_BX, r().rem(Expr::int(gx))),
                Stmt::decl_i32(SWIZZLE_BY, r().div(Expr::int(gx))),
            ]
        }
    };

    let mut body = prologue;
    body.append(&mut out.body);
    out.body = body;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_frontend::parse_kernel;
    use catt_ir::printer::kernel_to_string;
    use catt_ir::LaunchConfig;
    use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig};

    fn all_policies() -> Vec<SwizzlePolicy> {
        let mut p = SwizzlePolicy::candidates();
        p.push(SwizzlePolicy::TileMajor(8));
        p.push(SwizzlePolicy::XorFold(7));
        p
    }

    #[test]
    fn describe_parse_roundtrip() {
        for p in all_policies() {
            assert_eq!(SwizzlePolicy::parse(&p.describe()), Some(p));
        }
        assert_eq!(SwizzlePolicy::parse("tile=x"), None);
        assert_eq!(SwizzlePolicy::parse("rotate=1"), None);
    }

    /// Every policy is a bijection on every grid it accepts: the image
    /// of the block set is the block set.
    #[test]
    fn swizzle_map_is_bijective() {
        for policy in all_policies() {
            for grid in [(1u32, 1u32), (4, 1), (8, 1), (8, 4), (16, 16), (12, 5)] {
                if let SwizzlePolicy::TileMajor(t) = policy {
                    if !grid.0.is_multiple_of(t) {
                        continue;
                    }
                }
                let mut seen = std::collections::HashSet::new();
                for by in 0..grid.1 {
                    for bx in 0..grid.0 {
                        let (sx, sy) = swizzle_map(policy, grid, bx, by);
                        assert!(sx < grid.0 && sy < grid.1, "{policy:?} {grid:?} escaped");
                        assert!(
                            seen.insert((sx, sy)),
                            "{policy:?} on {grid:?}: ({bx},{by}) collides at ({sx},{sy})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn serpentine_reverses_odd_rows_only() {
        assert_eq!(swizzle_map(SwizzlePolicy::Serpentine, (8, 4), 2, 0), (2, 0));
        assert_eq!(swizzle_map(SwizzlePolicy::Serpentine, (8, 4), 2, 1), (5, 1));
        // Identity on 1-D grids (row 0 is even).
        assert_eq!(swizzle_map(SwizzlePolicy::Serpentine, (8, 1), 5, 0), (5, 0));
    }

    #[test]
    fn tile_major_walks_column_bands() {
        // 8×4 grid, t = 2: linear ids 0..8 cover the first two columns
        // top to bottom, two per row.
        let t = SwizzlePolicy::TileMajor(2);
        assert_eq!(swizzle_map(t, (8, 4), 0, 0), (0, 0));
        assert_eq!(swizzle_map(t, (8, 4), 1, 0), (1, 0));
        assert_eq!(swizzle_map(t, (8, 4), 2, 0), (0, 1));
        assert_eq!(swizzle_map(t, (8, 4), 3, 0), (1, 1));
        // Linear id 8 starts the next band.
        assert_eq!(swizzle_map(t, (8, 4), 0, 1), (2, 0));
    }

    #[test]
    fn xor_fold_is_nontrivial_on_1d_grids() {
        let k = SwizzlePolicy::XorFold(1);
        assert_eq!(swizzle_map(k, (4, 1), 0, 0), (1, 0));
        assert_eq!(swizzle_map(k, (4, 1), 1, 0), (0, 0));
        // Out-of-range partner: 3 ^ 1 = 2 < 4 swaps, but on a 3-wide
        // grid 2 ^ 1 = 3 ≥ 3 stays put.
        assert_eq!(swizzle_map(k, (3, 1), 2, 0), (2, 0));
    }

    #[test]
    fn rejects_illegal_parameters() {
        let k = parse_kernel("__global__ void k(float *a) { a[blockIdx.x] = 0.0f; }").unwrap();
        assert!(cta_swizzle(&k, SwizzlePolicy::TileMajor(3), (8, 4, 1)).is_none());
        assert!(cta_swizzle(&k, SwizzlePolicy::TileMajor(0), (8, 4, 1)).is_none());
        assert!(cta_swizzle(&k, SwizzlePolicy::Serpentine, (8, 4, 2)).is_none());
        assert!(cta_swizzle(&k, SwizzlePolicy::XorFold(u32::MAX), (8, 4, 1)).is_none());
        assert!(cta_swizzle(&k, SwizzlePolicy::Serpentine, (8, 4, 1)).is_some());
    }

    #[test]
    fn rewrites_every_block_idx_use_and_round_trips() {
        let k = parse_kernel(
            "__global__ void k(float *a, int n) {
                 int i = blockIdx.y * n + blockIdx.x;
                 if (blockIdx.x < n) { a[i * n + threadIdx.x] = 1.0f; }
             }",
        )
        .unwrap();
        let s = cta_swizzle(&k, SwizzlePolicy::Serpentine, (8, 4, 1)).unwrap();
        let src = kernel_to_string(&s);
        assert!(
            !src.contains("blockIdx.x <") && src.contains("catt_sw_bx <"),
            "guard must use the swizzled id:\n{src}"
        );
        assert!(
            src.contains("int catt_sw_bx = (blockIdx.y % 2 == 0 ? blockIdx.x : 7 - blockIdx.x);")
        );
        // The transformed kernel stays inside the frontend's language.
        assert_eq!(parse_kernel(&src).unwrap(), s);
        for policy in all_policies() {
            let s = cta_swizzle(&k, policy, (8, 4, 1)).unwrap();
            let src = kernel_to_string(&s);
            assert_eq!(parse_kernel(&src).unwrap(), s, "{policy:?}:\n{src}");
        }
    }

    /// The emitted prologue computes exactly [`swizzle_map`]: a kernel
    /// that stores its observed block id at its observed linear slot
    /// produces, per physical block, the host-side map's image.
    #[test]
    fn emitted_prologue_agrees_with_host_map() {
        let grid = (8u32, 4u32);
        let probe = parse_kernel(&format!(
            "__global__ void probe(float *ox, float *oy) {{
                 int p = blockIdx.y * {gx} + blockIdx.x;
                 if (threadIdx.x == 0) {{
                     ox[p] = (float)blockIdx.x;
                     oy[p] = (float)blockIdx.y;
                 }}
             }}",
            gx = grid.0
        ))
        .unwrap();
        for policy in all_policies() {
            let s = cta_swizzle(&probe, policy, (grid.0, grid.1, 1)).unwrap();
            let mut mem = GlobalMem::new();
            let n = grid.0 * grid.1;
            let ox = mem.alloc_zeroed(n);
            let oy = mem.alloc_zeroed(n);
            let mut gpu = Gpu::new(GpuConfig::titan_v_1sm());
            gpu.launch(
                &s,
                LaunchConfig {
                    grid: catt_ir::Dim3 {
                        x: grid.0,
                        y: grid.1,
                        z: 1,
                    },
                    block: catt_ir::Dim3::x(32),
                },
                &[Arg::Buf(ox), Arg::Buf(oy)],
                &mut mem,
            )
            .unwrap();
            let (vx, vy) = (mem.read_f32(ox), mem.read_f32(oy));
            for by in 0..grid.1 {
                for bx in 0..grid.0 {
                    // The store address `p` itself uses swizzled ids, so
                    // physical block (bx,by) writes map(bx,by) at slot
                    // lin(map(bx,by)) — i.e. every slot q holds q.
                    let q = (by * grid.0 + bx) as usize;
                    assert_eq!(
                        (vx[q] as u32, vy[q] as u32),
                        (bx, by),
                        "{policy:?}: slot {q}"
                    );
                }
            }
        }
    }

    /// Functional transparency in the simulator: a gram-style 2-D kernel
    /// produces a bit-identical memory image under every policy.
    #[test]
    fn swizzled_kernels_preserve_semantics_in_sim() {
        let (r, k) = (64usize, 16usize);
        let src = format!(
            "#define R {r}
             #define K {k}
             __global__ void gram(float *A, float *out) {{
                 int row = blockIdx.y * blockDim.y + threadIdx.y;
                 int col = blockIdx.x * blockDim.x + threadIdx.x;
                 float acc = 0.0f;
                 for (int j = 0; j < K; j++) {{
                     acc += A[row * K + j] * A[col * K + j];
                 }}
                 out[row * R + col] = acc;
             }}"
        );
        let base = parse_kernel(&src).unwrap();
        let grid = (r as u32 / 8, r as u32 / 8, 1);
        let launch = LaunchConfig {
            grid: catt_ir::Dim3 {
                x: grid.0,
                y: grid.1,
                z: 1,
            },
            block: catt_ir::Dim3 { x: 8, y: 8, z: 1 },
        };
        let run = |kern: &Kernel| {
            let mut mem = GlobalMem::new();
            let a = mem.alloc_f32(&(0..r * k).map(|v| (v % 17) as f32).collect::<Vec<_>>());
            let out = mem.alloc_zeroed((r * r) as u32);
            Gpu::new(GpuConfig::titan_v_1sm())
                .launch(kern, launch, &[Arg::Buf(a), Arg::Buf(out)], &mut mem)
                .unwrap();
            mem.content_digest()
        };
        let want = run(&base);
        for policy in all_policies() {
            let s = cta_swizzle(&base, policy, grid).unwrap();
            assert_eq!(run(&s), want, "{policy:?} changed the memory image");
        }
    }
}
