//! Source-to-source throttling transformations (paper §4.3).

use catt_ir::affine::{eval_poly, AffineEnv, Poly, Sym};
use catt_ir::expr::{BinOp, Builtin, Expr, UnOp};
use catt_ir::kernel::Kernel;
use catt_ir::stmt::{LValue, Stmt};
use catt_ir::types::DType;

/// Warp size used in the generated guards (`WS` in paper Fig. 4).
pub const WARP_SIZE: i64 = 32;

/// Name of the dummy shared array inserted by TB-level throttling
/// (paper Fig. 5 calls it `dummy_shared`).
pub const DUMMY_SHARED: &str = "catt_dummy_shared";

/// Apply **warp-level throttling** (paper Fig. 4) to the loop with
/// pre-order index `loop_id`: replace it with `n` copies, each guarded so
/// that only one group of `#Warps_TB / n` warps executes it, separated by
/// `__syncthreads()` so the groups run one after another.
///
/// Returns the transformed kernel, or `None` when `loop_id` does not
/// exist, `n` does not evenly divide the block's warps, or `n <= 1`.
pub fn warp_throttle(kernel: &Kernel, loop_id: usize, n: u32, warps_per_tb: u32) -> Option<Kernel> {
    if n <= 1 || !warps_per_tb.is_multiple_of(n) || n > warps_per_tb {
        return None;
    }
    let group = (warps_per_tb / n) as i64;
    let mut counter = 0usize;
    let mut found = false;
    let mut out = kernel.clone();
    out.body = rewrite(&out.body, &mut counter, loop_id, &mut found, &|loop_stmt| {
        let mut seq = Vec::with_capacity(2 * n as usize);
        for k in 0..n as i64 {
            // if (threadIdx.x / WS >= k*g && threadIdx.x / WS < (k+1)*g)
            let wid = Expr::Builtin(Builtin::ThreadIdxX).div(Expr::int(WARP_SIZE));
            let guard = wid
                .clone()
                .ge(Expr::int(k * group))
                .and(wid.lt(Expr::int((k + 1) * group)));
            seq.push(Stmt::if_then(guard, vec![loop_stmt.clone()]));
            seq.push(Stmt::SyncThreads);
        }
        seq
    });
    found.then_some(out)
}

/// Replace the `loop_id`-th loop (pre-order over `for`/`while`) using
/// `make`, which maps the loop statement to its replacement sequence.
fn rewrite(
    stmts: &[Stmt],
    counter: &mut usize,
    target: usize,
    found: &mut bool,
    make: &dyn Fn(&Stmt) -> Vec<Stmt>,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::For { .. } | Stmt::While { .. } if *counter == target => {
                *counter += 1;
                *found = true;
                out.extend(make(s));
            }
            // Other loops: count them, and recurse for nested targets.
            Stmt::For {
                var,
                decl,
                init,
                cond_op,
                bound,
                step,
                body,
            } => {
                *counter += 1;
                out.push(Stmt::For {
                    var: var.clone(),
                    decl: *decl,
                    init: init.clone(),
                    cond_op: *cond_op,
                    bound: bound.clone(),
                    step: step.clone(),
                    body: rewrite(body, counter, target, found, make),
                });
            }
            Stmt::While { cond, body } => {
                *counter += 1;
                out.push(Stmt::While {
                    cond: cond.clone(),
                    body: rewrite(body, counter, target, found, make),
                });
            }
            Stmt::If { cond, then, els } => out.push(Stmt::If {
                cond: cond.clone(),
                then: rewrite(then, counter, target, found, make),
                els: rewrite(els, counter, target, found, make),
            }),
            other => out.push(other.clone()),
        }
    }
    out
}

/// Apply **TB-level throttling** (paper Fig. 5): insert a dummy
/// `__shared__` array sized so that only `target_tbs` blocks stay resident
/// per SM, plus a store so the allocation is not dead.
///
/// `carveout_bytes` is the SM's shared-memory carve-out and
/// `current_smem` the kernel's existing static shared usage. Returns
/// `None` when `target_tbs` is 0 or no dummy size can reach the target
/// (e.g. it already holds).
pub fn tb_throttle(
    kernel: &Kernel,
    target_tbs: u32,
    carveout_bytes: u32,
    current_smem: u32,
) -> Option<Kernel> {
    if target_tbs == 0 {
        return None;
    }
    // Want: carveout / smem' == target  ⇒  smem' = carveout / target
    // (integer floor keeps exactly `target` blocks resident).
    let per_tb = carveout_bytes / target_tbs;
    if per_tb <= current_smem {
        return None; // cannot reach the target by adding shared memory
    }
    let dummy_bytes = per_tb - current_smem;
    let len = dummy_bytes / 4;
    if len == 0 {
        return None;
    }
    let mut out = kernel.clone();
    let mut prologue = vec![
        Stmt::DeclShared {
            name: DUMMY_SHARED.into(),
            elem: DType::F32,
            len,
        },
        // Keep the allocation alive (paper: "a simple write command ...
        // so that the compiler does not remove the allocation").
        Stmt::store(
            DUMMY_SHARED,
            Expr::Builtin(Builtin::ThreadIdxX).rem(Expr::int(len as i64)),
            Expr::Float(0.0),
        ),
    ];
    prologue.extend(out.body);
    out.body = prologue;
    Some(out)
}

/// Whether a `threadIdx` coefficient of `p` can actually vary within a
/// block: a non-zero coefficient is harmless when that block dimension is
/// known to be 1 (the builtin is constant 0 for every thread).
fn tid_dependent(p: &Poly, env: &AffineEnv) -> bool {
    (0u8..3).any(|d| {
        p.coeff(&Sym::ThreadIdx(d)) != 0
            && env
                .block_dim
                .map(|b| [b.0, b.1, b.2][d as usize] != 1)
                .unwrap_or(true)
    })
}

/// Prove that the integer predicate `c * i + k < 0` — where
/// `i = blockIdx.x * blockDim + threadIdx.x` ranges over the launched
/// linear thread ids — takes the *same* truth value for every thread of
/// any one block. The predicate is a prefix (`c > 0`) or suffix (`c < 0`)
/// of the id range; it is block-uniform exactly when the cut point lands
/// on a block boundary or outside the launched range altogether.
fn cut_on_block_boundary(c: i64, k: i64, block_dim: i64, grid_dim: Option<i64>) -> bool {
    let total = grid_dim.map(|g| g.saturating_mul(block_dim));
    if c > 0 {
        // True for i < ceil(-k / c).
        let t = (-k).div_euclid(c) + i64::from((-k).rem_euclid(c) != 0);
        t <= 0 || t % block_dim == 0 || total.map(|n| t >= n).unwrap_or(false)
    } else {
        // c < 0: true for i >= floor(k / -c) + 1.
        let s = k.div_euclid(-c) + 1;
        s <= 0 || s % block_dim == 0 || total.map(|n| s >= n).unwrap_or(false)
    }
}

/// Prove a comparison guard block-uniform. `lhs op rhs` is normalized to
/// `D < 0` with `D = c_t·threadIdx.x + c_b·blockIdx.x + K`; when
/// `c_b == c_t · blockDim.x` the guard depends on the thread only through
/// its linear id (the ubiquitous `i < N` bounds check), and uniformity
/// reduces to the cut point landing on a block boundary — e.g. atax's
/// `i < NX` is uniform exactly when `NX % blockDim.x == 0`.
fn cmp_block_uniform(op: BinOp, lhs: &Expr, rhs: &Expr, env: &AffineEnv) -> bool {
    let diff = Expr::Binary(BinOp::Sub, Box::new(lhs.clone()), Box::new(rhs.clone()));
    let Some(d) = eval_poly(&diff, env) else {
        return false; // non-affine: conservatively divergent
    };
    if !tid_dependent(&d, env) {
        return true; // value identical for all threads of a block
    }
    if matches!(op, BinOp::Eq | BinOp::Ne) {
        return false; // tid-dependent equality: divergent in general
    }
    // Only `threadIdx.x` and `blockIdx.x` may carry the tid dependence;
    // any other symbol (scalar vars, higher dims) has an unknown range.
    let Some(block) = env.block_dim else {
        return false;
    };
    let b = block.0.max(1) as i64;
    for (sym, _) in d.terms.iter() {
        match sym {
            Sym::ThreadIdx(0) | Sym::BlockIdx(0) => {}
            Sym::ThreadIdx(dim) if block_dim_is_one(env, *dim) => {}
            Sym::BlockIdx(dim) if grid_dim_is_one(env, *dim) => {}
            _ => return false,
        }
    }
    let c_t = d.coeff(&Sym::ThreadIdx(0));
    if d.coeff(&Sym::BlockIdx(0)) != c_t.saturating_mul(b) {
        return false; // not a function of the linear thread id
    }
    // Normalize `lhs op rhs` (i.e. `D' := lhs - rhs`) to `c·i + k < 0`.
    let (c, k) = match op {
        BinOp::Lt => (c_t, d.c0),
        BinOp::Le => (c_t, d.c0 - 1),
        BinOp::Gt => (-c_t, -d.c0),
        BinOp::Ge => (-c_t, -d.c0 - 1),
        _ => return false,
    };
    let grid = env.grid_dim.map(|g| g.0.max(1) as i64);
    cut_on_block_boundary(c, k, b, grid)
}

fn block_dim_is_one(env: &AffineEnv, dim: u8) -> bool {
    env.block_dim
        .map(|b| [b.0, b.1, b.2][dim as usize % 3] == 1)
        .unwrap_or(false)
}

fn grid_dim_is_one(env: &AffineEnv, dim: u8) -> bool {
    env.grid_dim
        .map(|g| [g.0, g.1, g.2][dim as usize % 3] == 1)
        .unwrap_or(false)
}

/// Whether every thread of any one block takes the same branch on `cond`.
///
/// Barrier legality hinges on this: splicing `__syncthreads()` under a
/// guard that only *some* threads of a block satisfy deadlocks on real
/// hardware (CUDA C++ §B.6: barriers must be reached by all threads of
/// the block or by none). Conservative: `false` whenever uniformity
/// cannot be proven.
pub fn guard_block_uniform(cond: &Expr, env: &AffineEnv) -> bool {
    match cond {
        Expr::Binary(BinOp::And | BinOp::Or, a, b) => {
            guard_block_uniform(a, env) && guard_block_uniform(b, env)
        }
        Expr::Unary(UnOp::Not, a) => guard_block_uniform(a, env),
        Expr::Binary(
            op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne),
            a,
            b,
        ) => cmp_block_uniform(*op, a, b, env),
        other => eval_poly(other, env)
            .map(|p| !tid_dependent(&p, env))
            .unwrap_or(false),
    }
}

/// Loops that warp-level throttling may legally split: *outermost* loops
/// (splitting a loop nested inside another split loop would interleave
/// barrier sites, which `__syncthreads` arrival counting cannot keep
/// apart — on real hardware as much as here) whose bodies contain no
/// `__syncthreads()` and which are not nested under a potentially
/// thread-divergent conditional (the spliced barriers must be reached by
/// every thread of the block).
///
/// Without launch information, guards over the linear thread id (e.g.
/// `i < N` with `i = blockIdx.x * blockDim.x + threadIdx.x`) cannot be
/// proven block-uniform, so this entry point conservatively rejects
/// them; use [`eligible_loops_for`] when the block shape is known.
pub fn eligible_loops(kernel: &Kernel) -> Vec<usize> {
    eligible_impl(kernel, AffineEnv::default())
}

/// [`eligible_loops`] with a known launch shape, enabling the
/// block-uniformity proof for guards over the linear thread id (`i < N`
/// is uniform when `N` is a multiple of `blockDim.x`). `grid` sharpens
/// the proof further (cuts beyond the launched range are uniform) but
/// may be `None`.
pub fn eligible_loops_for(
    kernel: &Kernel,
    block: (u32, u32, u32),
    grid: Option<(u32, u32, u32)>,
) -> Vec<usize> {
    let mut env = AffineEnv::with_launch(block, grid.unwrap_or((1, 1, 1)));
    env.grid_dim = grid;
    eligible_impl(kernel, env)
}

fn eligible_impl(kernel: &Kernel, mut env: AffineEnv) -> Vec<usize> {
    fn assigned_vars(stmts: &[Stmt]) -> Vec<String> {
        let mut out = Vec::new();
        catt_ir::visit::walk_stmts(stmts, &mut |s| {
            if let Stmt::Assign {
                lhs: LValue::Var(n),
                ..
            } = s
            {
                out.push(n.clone());
            }
        });
        out
    }
    fn go(
        stmts: &[Stmt],
        counter: &mut usize,
        depth: u32,
        divergent: bool,
        env: &mut AffineEnv,
        out: &mut Vec<usize>,
    ) {
        for s in stmts {
            match s {
                Stmt::For { .. } | Stmt::While { .. } => {
                    let (iter_var, body) = match s {
                        Stmt::For { var, body, .. } => (Some(var.as_str()), body),
                        Stmt::While { body, .. } => (None, body),
                        _ => continue,
                    };
                    let id = *counter;
                    *counter += 1;
                    if depth == 0 && !divergent {
                        let mut has_barrier = false;
                        catt_ir::visit::walk_stmts(body, &mut |x| {
                            has_barrier |= matches!(x, Stmt::SyncThreads);
                        });
                        if !has_barrier {
                            out.push(id);
                        }
                    }
                    let mut inner = env.clone();
                    if let Some(v) = iter_var {
                        inner.poison(v);
                    }
                    for v in assigned_vars(body) {
                        inner.poison(&v);
                    }
                    go(body, counter, depth + 1, divergent, &mut inner, out);
                    for v in assigned_vars(body) {
                        env.poison(&v);
                    }
                    if let Some(v) = iter_var {
                        env.poison(v);
                    }
                }
                Stmt::If { cond, then, els } => {
                    let div = divergent || !guard_block_uniform(cond, env);
                    go(then, counter, depth, div, env, out);
                    go(els, counter, depth, div, env, out);
                    for v in assigned_vars(then).iter().chain(assigned_vars(els).iter()) {
                        env.poison(v);
                    }
                }
                Stmt::DeclScalar { name, init, .. } => match init {
                    Some(e) => match eval_poly(e, env) {
                        Some(p) => env.bind(name, p),
                        None => env.poison(name),
                    },
                    None => env.poison(name),
                },
                Stmt::Assign {
                    lhs: LValue::Var(name),
                    rhs,
                    ..
                } => {
                    if depth == 0 {
                        match eval_poly(rhs, env) {
                            Some(p) => env.bind(name, p),
                            None => env.poison(name),
                        }
                    } else {
                        env.poison(name);
                    }
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    go(&kernel.body, &mut 0, 0, false, &mut env, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_frontend::parse_kernel;
    use catt_ir::printer::kernel_to_string;

    fn atax() -> Kernel {
        parse_kernel(
            "#define NX 40960
             __global__ void atax1(float *A, float *B, float *tmp) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 if (i < NX) {
                     for (int j = 0; j < NX; j++) {
                         tmp[i] += A[i * NX + j] * B[j];
                     }
                 }
             }",
        )
        .unwrap()
    }

    /// The transform reproduces the paper's Fig. 4 for N = 2 on an
    /// 8-warp block: two guarded loop copies, two barriers.
    #[test]
    fn warp_throttle_matches_fig4() {
        let k = warp_throttle(&atax(), 0, 2, 8).unwrap();
        let src = kernel_to_string(&k);
        assert!(src.contains("threadIdx.x / 32 >= 0 && threadIdx.x / 32 < 4"));
        assert!(src.contains("threadIdx.x / 32 >= 4 && threadIdx.x / 32 < 8"));
        assert_eq!(src.matches("__syncthreads();").count(), 2);
        assert_eq!(src.matches("for (int j = 0; j < 40960; j++)").count(), 2);
        // Still parses (round-trip through the frontend).
        let reparsed = parse_kernel(&src).unwrap();
        assert_eq!(reparsed, k);
    }

    #[test]
    fn warp_throttle_n4_makes_four_groups() {
        let k = warp_throttle(&atax(), 0, 4, 8).unwrap();
        let src = kernel_to_string(&k);
        assert_eq!(src.matches("__syncthreads();").count(), 4);
        for g in 0..4 {
            let lo = g * 2;
            let hi = lo + 2;
            assert!(
                src.contains(&format!(
                    "threadIdx.x / 32 >= {lo} && threadIdx.x / 32 < {hi}"
                )),
                "missing group {g}"
            );
        }
    }

    #[test]
    fn warp_throttle_rejects_bad_factors() {
        assert!(warp_throttle(&atax(), 0, 1, 8).is_none(), "n=1 is a no-op");
        assert!(warp_throttle(&atax(), 0, 3, 8).is_none(), "3 ∤ 8");
        assert!(warp_throttle(&atax(), 0, 16, 8).is_none(), "n > warps");
        assert!(warp_throttle(&atax(), 7, 2, 8).is_none(), "no loop 7");
    }

    #[test]
    fn warp_throttle_targets_correct_nested_loop() {
        let k = parse_kernel(
            "__global__ void k(float *A, int n) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 for (int a = 0; a < 4; a++) {
                     A[i + a] = 0.0f;
                 }
                 for (int b = 0; b < n; b++) {
                     A[i * n + b] += 1.0f;
                 }
             }",
        )
        .unwrap();
        let t = warp_throttle(&k, 1, 2, 8).unwrap();
        let src = kernel_to_string(&t);
        // Loop 0 (over a) untouched, loop 1 (over b) split.
        assert_eq!(src.matches("for (int a = 0").count(), 1);
        assert_eq!(src.matches("for (int b = 0").count(), 2);
    }

    #[test]
    fn eligible_loops_rejects_divergent_guards() {
        // `threadIdx.x % 2 == 0` diverges within every warp, let alone the
        // block: the loop under it must never be warp-split.
        let k = parse_kernel(
            "__global__ void k(float *A) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 if (threadIdx.x % 2 == 0) {
                     for (int j = 0; j < 64; j++) {
                         A[i] += 1.0f;
                     }
                 }
             }",
        )
        .unwrap();
        assert!(eligible_loops_for(&k, (256, 1, 1), None).is_empty());
        assert!(eligible_loops(&k).is_empty());
    }

    #[test]
    fn uniform_bounds_check_keeps_loop_eligible() {
        // atax's `i < 40960` guard: 40960 is a multiple of blockDim 256,
        // so every block is entirely inside or entirely outside the bound.
        let k = atax();
        assert_eq!(eligible_loops_for(&k, (256, 1, 1), None), vec![0]);
        // Without launch information the proof is unavailable.
        assert!(eligible_loops(&k).is_empty());
    }

    #[test]
    fn straddling_bounds_check_is_divergent_unless_grid_excludes_it() {
        let k = parse_kernel(
            "#define NX 40000
             __global__ void k(float *A, float *tmp) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 if (i < NX) {
                     for (int j = 0; j < NX; j++) {
                         tmp[i] += A[i + j];
                     }
                 }
             }",
        )
        .unwrap();
        // 40000 % 256 != 0: the cut falls inside block 156.
        assert!(eligible_loops_for(&k, (256, 1, 1), None).is_empty());
        // A 100-block grid never reaches the cut (25600 < 40000): the
        // guard is true for every launched thread, hence uniform.
        assert_eq!(
            eligible_loops_for(&k, (256, 1, 1), Some((100, 1, 1))),
            vec![0]
        );
    }

    #[test]
    fn barrier_loops_remain_ineligible() {
        let k = parse_kernel(
            "__global__ void k(float *A) {
                 __shared__ float s[32];
                 for (int j = 0; j < 64; j++) {
                     s[threadIdx.x % 32] = A[j];
                     __syncthreads();
                     A[j] = s[0];
                 }
             }",
        )
        .unwrap();
        assert!(eligible_loops_for(&k, (256, 1, 1), None).is_empty());
    }

    /// Fig. 5: 96 KB carve-out, target 2 TBs → 48 KB dummy = 12288 floats.
    #[test]
    fn tb_throttle_matches_fig5() {
        let k = tb_throttle(&atax(), 2, 96 * 1024, 0).unwrap();
        assert_eq!(k.shared_mem_bytes(), 48 * 1024);
        let src = kernel_to_string(&k);
        assert!(src.contains("__shared__ float catt_dummy_shared[12288];"));
        assert!(src.contains("catt_dummy_shared[threadIdx.x % 12288] = 0.0f;"));
        // Round-trips.
        assert_eq!(parse_kernel(&src).unwrap(), k);
    }

    #[test]
    fn tb_throttle_accounts_for_existing_smem() {
        let k = parse_kernel(
            "__global__ void k(float *A) {
                 __shared__ float buf[1024];
                 buf[threadIdx.x % 1024] = 0.0f;
                 A[threadIdx.x] = buf[0];
             }",
        )
        .unwrap();
        // Existing 4 KB; target 4 TBs on 96 KB → 24 KB per TB → 20 KB dummy.
        let t = tb_throttle(&k, 4, 96 * 1024, 4 * 1024).unwrap();
        assert_eq!(t.shared_mem_bytes(), 24 * 1024);
    }

    #[test]
    fn tb_throttle_rejects_unreachable_targets() {
        assert!(tb_throttle(&atax(), 0, 96 * 1024, 0).is_none());
        // Target 4 TBs but existing smem already implies ≤ 4.
        assert!(tb_throttle(&atax(), 4, 96 * 1024, 32 * 1024).is_none());
    }

    #[test]
    fn transformed_kernel_preserves_semantics_in_sim() {
        use catt_ir::LaunchConfig;
        use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig};
        let n = 128usize;
        let src = format!(
            "#define N {n}
             __global__ void mv(float *A, float *B, float *tmp) {{
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 if (i < N) {{
                     for (int j = 0; j < N; j++) {{
                         tmp[i] += A[i * N + j] * B[j];
                     }}
                 }}
             }}"
        );
        let base = parse_kernel(&src).unwrap();
        let variants = [
            base.clone(),
            warp_throttle(&base, 0, 2, 4).unwrap(),
            warp_throttle(&base, 0, 4, 4).unwrap(),
            tb_throttle(&base, 1, 96 * 1024, 0).unwrap(),
        ];
        let mut reference: Option<Vec<f32>> = None;
        for k in &variants {
            let mut mem = GlobalMem::new();
            let a = mem.alloc_f32(&(0..n * n).map(|v| (v % 13) as f32).collect::<Vec<_>>());
            let b = mem.alloc_f32(&(0..n).map(|v| (v % 7) as f32).collect::<Vec<_>>());
            let tmp = mem.alloc_zeroed(n as u32);
            let mut gpu = Gpu::new(GpuConfig::titan_v_1sm());
            gpu.launch(
                k,
                LaunchConfig::d1(1, 128),
                &[Arg::Buf(a), Arg::Buf(b), Arg::Buf(tmp)],
                &mut mem,
            )
            .unwrap();
            let out = mem.read_f32(tmp);
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "variant `{}` diverged", k.name),
            }
        }
    }

    #[test]
    fn throttling_a_divergent_loop_yields_a_divergent_barrier() {
        // The legality gap `eligible_loops` closes: a loop under a guard
        // that cuts inside a block (40 is not a multiple of blockDim 64)
        // must not be warp-throttled — the spliced barriers land in
        // thread-divergent control flow. The eligibility analysis rejects
        // the loop; forcing the transform anyway (as the differential
        // fuzzer's legality-unchecked mode does) produces a kernel the
        // sanitizer independently convicts of barrier divergence, while
        // the default arrival-count semantics mask the bug entirely.
        use catt_ir::LaunchConfig;
        use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig, SanitizerKind, SimError};
        let src = "#define N 40
             __global__ void divloop(float *a, float *tmp) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 if (i < N) {
                     for (int j = 0; j < 64; j++) {
                         tmp[i] += a[i * 64 + j];
                     }
                 }
             }";
        let base = parse_kernel(src).unwrap();
        assert_eq!(
            eligible_loops_for(&base, (64, 1, 1), Some((1, 1, 1))),
            Vec::<usize>::new(),
            "the divergently guarded loop must be rejected"
        );
        // `warp_throttle` itself applies blindly (pre-order loop 0), so
        // the illegal variant can be constructed for testing.
        let bad = warp_throttle(&base, 0, 2, 2).unwrap();
        let run = |k: &catt_ir::Kernel, sanitize: bool| {
            let mut mem = GlobalMem::new();
            let a = mem.alloc_f32(&vec![1.0; 40 * 64]);
            let tmp = mem.alloc_zeroed(64);
            let mut config = GpuConfig::titan_v_1sm();
            config.sanitize = Some(sanitize);
            let res = Gpu::new(config).launch(
                k,
                LaunchConfig::d1(1, 64),
                &[Arg::Buf(a), Arg::Buf(tmp)],
                &mut mem,
            );
            res.map(|_| mem.read_f32(tmp))
        };
        // The original kernel is sanitize-clean; the throttled variant
        // completes unsanitized (masked) with the right answer, but the
        // sanitizer reports the divergent barrier.
        let clean = run(&base, true).unwrap();
        assert_eq!(
            run(&bad, false).unwrap(),
            clean,
            "masked but numerically ok"
        );
        match run(&bad, true).unwrap_err() {
            SimError::Sanitizer(report) => {
                assert_eq!(report.kind, SanitizerKind::BarrierDivergence, "{report}");
                assert_eq!(report.kernel, "divloop");
            }
            other => panic!("expected a sanitizer report, got {other}"),
        }
    }

    /// Property: the legality analysis and the transform's `rewrite`
    /// agree on the blind pre-order numbering of `for`/`while` loops, for
    /// randomly nested `for`/`while`/`if` bodies. Every loop's bound is a
    /// unique marker constant assigned in source (= pre-order) creation
    /// order, so the loop that `warp_throttle` actually splits identifies
    /// itself in the printed output.
    #[test]
    fn eligible_loops_and_rewrite_agree_on_preorder_numbering() {
        use catt_prng::Rng;

        struct Gen {
            rng: Rng,
            src: String,
            /// Per loop, by pre-order id: the ids of its enclosing loops.
            ancestors: Vec<Vec<usize>>,
            /// Per loop: whether any enclosing `if` guard is divergent.
            under_divergent: Vec<bool>,
            next_while: usize,
        }

        // Markers are 4-digit and contiguous from 1000, so no marker's
        // decimal text is a prefix of another's and `"< {m}"` matches
        // exactly the loops carrying marker `m`.
        fn marker(id: usize) -> usize {
            1000 + id
        }

        impl Gen {
            fn items(&mut self, depth: usize, loops: &[usize], divergent: bool) {
                for _ in 0..self.rng.range_usize(1, 4) {
                    // Past depth 3 only leaves, to bound the tree.
                    match self.rng.range_u32(0, if depth >= 3 { 1 } else { 4 }) {
                        0 => self.src.push_str("A[i] += 1.0f;\n"),
                        1 => {
                            let id = self.ancestors.len();
                            self.ancestors.push(loops.to_vec());
                            self.under_divergent.push(divergent);
                            let m = marker(id);
                            self.src.push_str(&format!(
                                "for (int j{id} = 0; j{id} < {m}; j{id}++) {{\n"
                            ));
                            let mut inner = loops.to_vec();
                            inner.push(id);
                            self.items(depth + 1, &inner, divergent);
                            self.src.push_str("}\n");
                        }
                        2 => {
                            let id = self.ancestors.len();
                            self.ancestors.push(loops.to_vec());
                            self.under_divergent.push(divergent);
                            let w = self.next_while;
                            self.next_while += 1;
                            let m = marker(id);
                            self.src
                                .push_str(&format!("int w{w} = 0;\nwhile (w{w} < {m}) {{\n"));
                            let mut inner = loops.to_vec();
                            inner.push(id);
                            self.items(depth + 1, &inner, divergent);
                            self.src.push_str(&format!("w{w} = w{w} + 1;\n}}\n"));
                        }
                        3 => {
                            let div = self.rng.bool(0.5);
                            // `i < 256` is always true for this launch
                            // (2 blocks × 128 threads), hence uniform.
                            let guard = if div {
                                "threadIdx.x % 2 == 0"
                            } else {
                                "i < 256"
                            };
                            self.src.push_str(&format!("if ({guard}) {{\n"));
                            self.items(depth + 1, loops, divergent || div);
                            self.src.push_str("}\n");
                        }
                        _ => unreachable!(),
                    }
                }
            }
        }

        let mut rng = Rng::from_tag("transform-numbering-property");
        for _ in 0..40 {
            let mut g = Gen {
                rng: Rng::seed(rng.next_u64()),
                src: String::new(),
                ancestors: Vec::new(),
                under_divergent: Vec::new(),
                next_while: 0,
            };
            g.src.push_str(
                "__global__ void p(float *A) {\nint i = blockIdx.x * blockDim.x + threadIdx.x;\n",
            );
            g.items(0, &[], false);
            // Guarantee at least one loop so every kernel exercises the
            // transform.
            {
                let id = g.ancestors.len();
                g.ancestors.push(Vec::new());
                g.under_divergent.push(false);
                let m = marker(id);
                g.src.push_str(&format!(
                    "for (int j{id} = 0; j{id} < {m}; j{id}++) {{\nA[i] += 1.0f;\n}}\n"
                ));
            }
            g.src.push_str("A[i] = 0.0f;\n}\n");
            let k = parse_kernel(&g.src).unwrap();
            let count = g.ancestors.len();

            for id in 0..count {
                let t = warp_throttle(&k, id, 2, 4)
                    .unwrap_or_else(|| panic!("loop {id} of {count} not found:\n{}", g.src));
                let out = kernel_to_string(&t);
                for m_id in 0..count {
                    // Splitting loop `id` duplicates exactly that loop
                    // and everything nested inside it.
                    let expect = if m_id == id || g.ancestors[m_id].contains(&id) {
                        2
                    } else {
                        1
                    };
                    let pat = format!("< {}", marker(m_id));
                    assert_eq!(
                        out.matches(&pat).count(),
                        expect,
                        "loop {m_id} after splitting loop {id}:\n{out}"
                    );
                }
            }
            // One past the last loop: the rewrite finds nothing.
            assert!(warp_throttle(&k, count, 2, 4).is_none());

            // The legality analysis numbers loops identically: every id
            // it reports is a real pre-order id, and none of them sits
            // under a divergent guard.
            for id in eligible_loops_for(&k, (128, 1, 1), Some((2, 1, 1))) {
                assert!(id < count, "eligible id {id} out of range {count}");
                assert!(
                    !g.under_divergent[id],
                    "divergently guarded loop {id} reported eligible:\n{}",
                    g.src
                );
            }
        }
    }

    #[test]
    fn tb_throttle_rejects_zero_length_dummy() {
        // A carve-out smaller than one f32 word rounds the dummy array
        // to length 0 — no allocation, no throttling effect.
        assert!(tb_throttle(&atax(), 1, 3, 0).is_none());
        // Same rounding when existing shared memory leaves < 4 bytes of
        // headroom: per_tb − current_smem = 1.
        assert!(tb_throttle(&atax(), 1, 1024, 1023).is_none());
    }

    #[test]
    fn tb_throttle_keep_alive_store_stays_in_bounds_under_sanitizer() {
        // blockDim.x (64) far exceeds the dummy length (16 B / 4 = 4
        // words): the keep-alive store wraps with `threadIdx.x % len`,
        // so a sanitized run must stay clean and bit-identical.
        use catt_ir::LaunchConfig;
        use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig};
        let base = parse_kernel(
            "__global__ void k(float *A) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 A[i] = A[i] + 2.0f;
             }",
        )
        .unwrap();
        let t = tb_throttle(&base, 1, 16, 0).unwrap();
        assert_eq!(t.shared_mem_bytes(), 16);
        let src = kernel_to_string(&t);
        assert!(src.contains("__shared__ float catt_dummy_shared[4];"));
        assert!(src.contains("catt_dummy_shared[threadIdx.x % 4] = 0.0f;"));
        let run = |k: &Kernel| {
            let mut mem = GlobalMem::new();
            let a = mem.alloc_f32(&(0..64).map(|v| v as f32).collect::<Vec<_>>());
            let mut config = GpuConfig::titan_v_1sm()
                .with_smem_for(16)
                .expect("16 B fits every carve-out option");
            config.sanitize = Some(true);
            Gpu::new(config)
                .launch(k, LaunchConfig::d1(1, 64), &[Arg::Buf(a)], &mut mem)
                .expect("sanitized run must be clean");
            mem.read_f32(a)
        };
        assert_eq!(run(&t), run(&base), "keep-alive store changed results");
    }
}
