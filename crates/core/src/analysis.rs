//! Static footprint analysis and throttling-factor search (paper §4.2).

use crate::occupancy::{plan_l1_smem, L1SmemPlan};
use catt_ir::affine::{eval_poly, AffineEnv, IndexForm};
use catt_ir::expr::Expr;
use catt_ir::kernel::{Kernel, LaunchConfig, ParamTy};
use catt_ir::stmt::{LValue, Stmt};
use catt_sim::GpuConfig;
use std::collections::HashSet;

/// Warp size the analysis assumes (`SIZE_warp`).
pub const WARP_SIZE: u32 = 32;

/// Analysis of one global-memory access inside a loop.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessAnalysis {
    /// Array (kernel pointer parameter) accessed.
    pub array: String,
    /// Whether this is a store.
    pub is_store: bool,
    /// `C_tid` of Eq. 5 in elements (`None` = irregular).
    pub c_tid: Option<i64>,
    /// `C_i` of Eq. 5 in elements (`None` = irregular).
    pub c_iter: Option<i64>,
    /// `REQ_warp` of Eq. 7: 128-byte lines requested per warp execution.
    pub req_warp: u32,
    /// Eq. 6: the fetched line is re-accessed by a following iteration.
    pub has_locality: bool,
}

/// The `(N, M)` throttling factors of Eq. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThrottleDecision {
    /// Warp divisor: run `#Warps_TB / N` warps of each block at a time.
    pub n: u32,
    /// Resident-block reduction: run `#TB_SM − M` blocks per SM.
    pub m: u32,
    /// Whether the chosen factors bring the footprint under the L1D
    /// capacity. `false` = the CORR case: even maximum throttling cannot
    /// fit, so CATT leaves the loop untouched (§5.1).
    pub resolved: bool,
}

impl ThrottleDecision {
    /// No throttling.
    pub const NONE: ThrottleDecision = ThrottleDecision {
        n: 1,
        m: 0,
        resolved: true,
    };

    /// Whether this decision changes anything.
    pub fn is_throttled(&self) -> bool {
        self.resolved && (self.n > 1 || self.m > 0)
    }
}

/// Analysis of one loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopAnalysis {
    /// Pre-order index of the loop among the kernel's `for`/`while`
    /// statements (shared with [`crate::transform`]).
    pub loop_id: usize,
    /// Enclosing loop's `loop_id`, if nested.
    pub parent: Option<usize>,
    /// Iterator variable (`None` for `while` loops).
    pub iter_var: Option<String>,
    /// Whether the loop body contains `__syncthreads()` — such loops are
    /// never warp-throttled (splitting them would break barrier
    /// semantics).
    pub has_barrier: bool,
    /// Whether the loop sits under a conditional that cannot be proven
    /// block-uniform. Warp throttling such a loop would splice
    /// `__syncthreads()` into divergent control flow — a deadlock on real
    /// hardware — so these loops fall back to TB-level throttling, like
    /// barrier loops.
    pub divergent_guard: bool,
    /// Global accesses attributed to this loop (innermost-loop rule).
    pub accesses: Vec<AccessAnalysis>,
    /// Eq. 8 at full TLP: 128-byte lines touched by one access round of
    /// all concurrent warps.
    pub size_req_lines: u64,
    /// Some access exhibits cross-iteration locality (Eq. 6) — the
    /// precondition for throttling to help.
    pub has_locality: bool,
    /// Footprint exceeds the L1D (cache contention predicted).
    pub contended: bool,
    /// Chosen factors.
    pub decision: ThrottleDecision,
}

impl LoopAnalysis {
    /// The `(#warps, #TBs)` pair this loop runs at, Table 3 style.
    pub fn tlp(&self, warps_per_tb: u32, resident_tbs: u32) -> (u32, u32) {
        if !self.decision.is_throttled() {
            return (warps_per_tb, resident_tbs);
        }
        (
            warps_per_tb / self.decision.n,
            resident_tbs - self.decision.m,
        )
    }
}

/// Whole-kernel analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelAnalysis {
    pub kernel_name: String,
    /// L1D / shared-memory plan (paper §4.1).
    pub plan: L1SmemPlan,
    /// `#Warps_TB`.
    pub warps_per_tb: u32,
    /// Register estimate per thread used for Eq. 2.
    pub regs_per_thread: u32,
    /// Per-loop analyses, in pre-order.
    pub loops: Vec<LoopAnalysis>,
}

impl KernelAnalysis {
    /// Baseline TLP `(#warps_TB, #TB_SM)`.
    pub fn baseline_tlp(&self) -> (u32, u32) {
        (self.warps_per_tb, self.plan.resident_tbs)
    }

    /// Largest `M` over all loops (TB-level throttling is kernel-wide: a
    /// dummy shared array changes occupancy for the whole kernel).
    pub fn tb_throttle_m(&self) -> u32 {
        self.loops
            .iter()
            .filter(|l| l.decision.resolved)
            .map(|l| l.decision.m)
            .max()
            .unwrap_or(0)
    }
}

/// `REQ_warp` (Eq. 7) from `C_tid` (elements): `1` when all threads share
/// one address, otherwise the lines one warp's coalesced accesses span,
/// capped at the warp size; irregular accesses are conservatively `1`
/// (§4.2). Exact for one-dimensional thread blocks.
pub fn req_warp(c_tid: Option<i64>) -> u32 {
    match c_tid {
        None => 1,
        Some(0) => 1,
        Some(c) => (c.unsigned_abs() as u32).clamp(1, WARP_SIZE),
    }
}

/// `REQ_warp` by per-lane address enumeration — the paper's handling of
/// multidimensional thread blocks (§4.2: "we examine every address
/// accessed by each thread in a warp"). Lanes map to `threadIdx` x-major;
/// the distinct 128-byte lines their affine offsets fall into are counted.
/// Coincides with Eq. 7 on 1-D blocks.
pub fn req_warp_lanes(
    c_tid: Option<i64>,
    c_tid_y: Option<i64>,
    block: (u32, u32),
    line_bytes: u32,
    elem_bytes: u32,
) -> u32 {
    let (Some(cx), Some(cy)) = (c_tid, c_tid_y) else {
        return 1; // irregular: conservative (§4.2)
    };
    let bx = block.0.max(1) as i64;
    let by = block.1.max(1) as i64;
    let mut lines = [0i64; WARP_SIZE as usize];
    let mut n = 0usize;
    for lane in 0..WARP_SIZE as i64 {
        let x = lane % bx;
        let y = (lane / bx) % by;
        let byte_off = (cx * x + cy * y) * elem_bytes as i64;
        let l = byte_off.div_euclid(line_bytes as i64);
        if !lines[..n].contains(&l) {
            lines[n] = l;
            n += 1;
        }
    }
    n as u32
}

/// Eq. 6: cross-iteration locality exists when the intra-thread distance
/// is within a cache line. Irregular (`None`) accesses are treated as
/// having locality — the conservative direction, consistent with
/// `C_tid := 1`.
pub fn has_locality(c_iter: Option<i64>, line_bytes: u32, elem_bytes: u32) -> bool {
    match c_iter {
        None => true,
        Some(c) => c.unsigned_abs() * elem_bytes as u64 <= line_bytes as u64,
    }
}

/// Eq. 9 search: smallest throttling making the footprint fit.
///
/// `N` walks the divisors of `warps_per_tb` in increasing order (the paper
/// uses powers of two; divisors generalize to non-power-of-two blocks and
/// coincide on the paper's workloads). If halving warps to one group of
/// one warp still overflows, `M` reduces resident blocks. Returns
/// `resolved = false` when even `(N = warps, M = tbs−1)` overflows.
pub fn search_factors(
    reqs_per_round: u64,
    warps_per_tb: u32,
    resident_tbs: u32,
    l1d_lines: u64,
) -> ThrottleDecision {
    let fits = |warps: u32, tbs: u32| reqs_per_round * warps as u64 * tbs as u64 <= l1d_lines;
    if fits(warps_per_tb, resident_tbs) {
        return ThrottleDecision::NONE;
    }
    for n in 2..=warps_per_tb {
        if !warps_per_tb.is_multiple_of(n) {
            continue;
        }
        if fits(warps_per_tb / n, resident_tbs) {
            return ThrottleDecision {
                n,
                m: 0,
                resolved: true,
            };
        }
    }
    for m in 1..resident_tbs {
        if fits(1, resident_tbs - m) {
            return ThrottleDecision {
                n: warps_per_tb,
                m,
                resolved: true,
            };
        }
    }
    ThrottleDecision {
        n: warps_per_tb,
        m: resident_tbs.saturating_sub(1),
        resolved: false,
    }
}

/// Analyze a kernel under a launch configuration (paper §4).
///
/// `regs_per_thread` is the register estimate feeding Eq. 2 — obtain it
/// from `catt_sim::lower(kernel)?.num_regs` (the role of `nvcc -v`).
pub fn analyze_kernel(
    kernel: &Kernel,
    launch: LaunchConfig,
    base_config: &GpuConfig,
    regs_per_thread: u32,
) -> Option<KernelAnalysis> {
    let smem = kernel.shared_mem_bytes();
    let mut plan = plan_l1_smem(
        base_config,
        smem,
        regs_per_thread,
        launch.threads_per_block(),
    )?;
    // The launch configuration is compile-time known (§4.3), so the
    // concurrency estimate can be sharpened: a grid with fewer blocks
    // than the occupancy bound never fills the SMs.
    let blocks_per_sm = launch
        .num_blocks()
        .div_ceil(base_config.num_sms.max(1))
        .max(1);
    plan.resident_tbs = plan.resident_tbs.min(blocks_per_sm);
    let warps_per_tb = launch.warps_per_block();
    let l1d_lines = (plan.l1d_bytes / plan.config.l1_line_bytes) as u64;
    let line_bytes = plan.config.l1_line_bytes;

    let mut env = AffineEnv::with_launch(
        (launch.block.x, launch.block.y, launch.block.z),
        (launch.grid.x, launch.grid.y, launch.grid.z),
    );
    let globals: HashSet<&str> = kernel
        .params
        .iter()
        .filter(|p| matches!(p.ty, ParamTy::Ptr(_)))
        .map(|p| p.name.as_str())
        .collect();

    let mut ctx = Walker {
        globals,
        loops: Vec::new(),
        next_loop_id: 0,
        line_bytes,
        block: (launch.block.x, launch.block.y),
    };
    ctx.walk(&kernel.body, &mut env, None, false);

    // Decide factors per loop.
    let mut loops = ctx.loops;
    for l in &mut loops {
        l.size_req_lines = l.accesses.iter().map(|a| a.req_warp as u64).sum::<u64>()
            * warps_per_tb as u64
            * plan.resident_tbs as u64;
        l.has_locality = l.accesses.iter().any(|a| a.has_locality);
        // Contention is only *predicted* from analyzable divergence: a
        // loop whose footprint estimate consists purely of irregular
        // accesses (each conservatively counted as one line, §4.2) never
        // triggers throttling — the conservative estimate exists to
        // prevent degradation from mis-throttling, not to cause it.
        let regular_divergence = l
            .accesses
            .iter()
            .any(|a| a.c_tid.is_some() && a.req_warp > 1);
        l.contended = l.has_locality
            && regular_divergence
            && !l.accesses.is_empty()
            && l.size_req_lines > l1d_lines;
        l.decision = if l.contended {
            let per_round: u64 = l.accesses.iter().map(|a| a.req_warp as u64).sum();
            search_factors(per_round, warps_per_tb, plan.resident_tbs, l1d_lines)
        } else {
            ThrottleDecision::NONE
        };
        // Loops whose body synchronizes — or that sit under a divergent
        // guard, where spliced barriers would deadlock real hardware —
        // cannot be warp-split; fall back to TB-level throttling with an
        // equivalent concurrency reduction when possible, otherwise leave
        // untouched.
        if (l.has_barrier || l.divergent_guard) && l.decision.is_throttled() && l.decision.n > 1 {
            let target_warps = (warps_per_tb / l.decision.n) * (plan.resident_tbs - l.decision.m);
            let tbs_needed = (target_warps / warps_per_tb).max(1);
            l.decision = ThrottleDecision {
                n: 1,
                m: plan.resident_tbs - tbs_needed.min(plan.resident_tbs),
                resolved: l.decision.resolved,
            };
        }
    }

    Some(KernelAnalysis {
        kernel_name: kernel.name.clone(),
        plan,
        warps_per_tb,
        regs_per_thread,
        loops,
    })
}

struct Walker<'a> {
    globals: HashSet<&'a str>,
    loops: Vec<LoopAnalysis>,
    next_loop_id: usize,
    line_bytes: u32,
    block: (u32, u32),
}

impl<'a> Walker<'a> {
    /// Record every global access in expression `e`, attributed to
    /// `loop_idx` (index into `self.loops`).
    fn record_expr(&mut self, e: &Expr, env: &AffineEnv, loop_idx: Option<usize>) {
        match e {
            Expr::Index(name, idx) => {
                self.record_access(name, idx, false, env, loop_idx);
                self.record_expr(idx, env, loop_idx);
            }
            Expr::Unary(_, a) | Expr::Cast(_, a) => self.record_expr(a, env, loop_idx),
            Expr::Binary(_, a, b) => {
                self.record_expr(a, env, loop_idx);
                self.record_expr(b, env, loop_idx);
            }
            Expr::Select(c, a, b) => {
                self.record_expr(c, env, loop_idx);
                self.record_expr(a, env, loop_idx);
                self.record_expr(b, env, loop_idx);
            }
            Expr::Call(_, args) => {
                for a in args {
                    self.record_expr(a, env, loop_idx);
                }
            }
            _ => {}
        }
    }

    fn record_access(
        &mut self,
        name: &str,
        idx: &Expr,
        is_store: bool,
        env: &AffineEnv,
        loop_idx: Option<usize>,
    ) {
        if !self.globals.contains(name) {
            return;
        }
        let Some(li) = loop_idx else {
            return; // accesses outside loops are not analyzed (§3)
        };
        let iter_var = self.loops[li].iter_var.clone();
        let form: IndexForm = catt_ir::affine::index_form(idx, iter_var.as_deref(), env);
        let a = AccessAnalysis {
            array: name.to_string(),
            is_store,
            c_tid: form.c_tid,
            c_iter: form.c_iter,
            req_warp: req_warp_lanes(form.c_tid, form.c_tid_y, self.block, self.line_bytes, 4),
            has_locality: has_locality(form.c_iter, self.line_bytes, 4),
        };
        self.loops[li].accesses.push(a);
    }

    /// Names assigned (not declared) anywhere in `stmts`.
    fn assigned_vars(stmts: &[Stmt]) -> HashSet<String> {
        let mut out = HashSet::new();
        catt_ir::visit::walk_stmts(stmts, &mut |s| {
            if let Stmt::Assign {
                lhs: LValue::Var(n),
                ..
            } = s
            {
                out.insert(n.clone());
            }
        });
        out
    }

    fn walk(
        &mut self,
        stmts: &[Stmt],
        env: &mut AffineEnv,
        loop_idx: Option<usize>,
        divergent: bool,
    ) {
        for s in stmts {
            match s {
                Stmt::DeclScalar { name, init, .. } => {
                    if let Some(e) = init {
                        self.record_expr(e, env, loop_idx);
                        match eval_poly(e, env) {
                            Some(p) => env.bind(name, p),
                            None => env.poison(name),
                        }
                    } else {
                        env.poison(name);
                    }
                }
                Stmt::DeclShared { .. } => {}
                Stmt::Assign { lhs, op, rhs } => {
                    if let LValue::Elem(name, idx) = lhs {
                        self.record_expr(idx, env, loop_idx);
                        self.record_access(name, idx, true, env, loop_idx);
                        // A compound store (`+=`) also loads the element.
                        if op.is_some() {
                            self.record_access(name, idx, false, env, loop_idx);
                        }
                    }
                    self.record_expr(rhs, env, loop_idx);
                    if let LValue::Var(name) = lhs {
                        if loop_idx.is_some() {
                            // Re-assignment inside a loop: value varies per
                            // iteration in a way forward substitution does
                            // not model.
                            env.poison(name);
                        } else {
                            match eval_poly(rhs, env) {
                                Some(p) => env.bind(name, p),
                                None => env.poison(name),
                            }
                        }
                    }
                }
                Stmt::If { cond, then, els } => {
                    self.record_expr(cond, env, loop_idx);
                    let div = divergent || !crate::transform::guard_block_uniform(cond, env);
                    self.walk(then, env, loop_idx, div);
                    self.walk(els, env, loop_idx, div);
                    // Conservatively forget anything either branch wrote.
                    for v in Self::assigned_vars(then).union(&Self::assigned_vars(els)) {
                        env.poison(v);
                    }
                }
                Stmt::For {
                    var,
                    init,
                    bound,
                    step,
                    body,
                    ..
                } => {
                    let id = self.next_loop_id;
                    self.next_loop_id += 1;
                    let mut has_barrier = false;
                    catt_ir::visit::walk_stmts(body, &mut |s| {
                        has_barrier |= matches!(s, Stmt::SyncThreads);
                    });
                    self.loops.push(LoopAnalysis {
                        loop_id: id,
                        parent: loop_idx,
                        iter_var: Some(var.clone()),
                        has_barrier,
                        divergent_guard: divergent,
                        accesses: Vec::new(),
                        size_req_lines: 0,
                        has_locality: false,
                        contended: false,
                        decision: ThrottleDecision::NONE,
                    });
                    let li = self.loops.len() - 1;
                    self.record_expr(init, env, loop_idx);
                    self.record_expr(bound, env, Some(li));
                    self.record_expr(step, env, Some(li));
                    // The iterator is its own symbol inside the body; any
                    // variables the body assigns are unknown per-iteration.
                    let mut inner = env.clone();
                    inner.bind(
                        var,
                        catt_ir::affine::Poly::sym(catt_ir::affine::Sym::Var(var.clone())),
                    );
                    for v in Self::assigned_vars(body) {
                        inner.poison(&v);
                    }
                    self.walk(body, &mut inner, Some(li), divergent);
                    // After the loop: anything it assigned is unknown.
                    for v in Self::assigned_vars(body) {
                        env.poison(&v);
                    }
                    env.poison(var);
                }
                Stmt::While { cond, body } => {
                    let id = self.next_loop_id;
                    self.next_loop_id += 1;
                    let mut has_barrier = false;
                    catt_ir::visit::walk_stmts(body, &mut |s| {
                        has_barrier |= matches!(s, Stmt::SyncThreads);
                    });
                    self.loops.push(LoopAnalysis {
                        loop_id: id,
                        parent: loop_idx,
                        iter_var: None,
                        has_barrier,
                        divergent_guard: divergent,
                        accesses: Vec::new(),
                        size_req_lines: 0,
                        has_locality: false,
                        contended: false,
                        decision: ThrottleDecision::NONE,
                    });
                    let li = self.loops.len() - 1;
                    self.record_expr(cond, env, Some(li));
                    let mut inner = env.clone();
                    for v in Self::assigned_vars(body) {
                        inner.poison(&v);
                    }
                    self.walk(body, &mut inner, Some(li), divergent);
                    for v in Self::assigned_vars(body) {
                        env.poison(&v);
                    }
                }
                Stmt::ExprStmt(e) => self.record_expr(e, env, loop_idx),
                Stmt::SyncThreads | Stmt::Break | Stmt::Return => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_frontend::parse_kernel;

    fn titan() -> GpuConfig {
        GpuConfig::titan_v()
    }

    /// The paper's running example: ATAX kernel 1 (Fig. 1) at the
    /// paper's own launch `<<<80*4, 256>>>` (4 blocks per SM). Eq. 8: per
    /// round the loop requests tmp (1 store + 1 load for `+=`) + A (32) +
    /// B (1) lines per warp — 35 lines × 8 warps × 4 TBs = 1120 lines >
    /// 1024 (128 KB L1D), so the loop is contended; N = 2 gives 560 ≤
    /// 1024, i.e. TLP (4, 4) — exactly Table 3's CATT column at max L1D.
    #[test]
    fn atax_fig1_is_contended_and_throttled() {
        let k = parse_kernel(
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
        .unwrap();
        let a = analyze_kernel(&k, LaunchConfig::d1(320, 256), &titan(), 32).unwrap();
        assert_eq!(a.baseline_tlp(), (8, 4));
        assert_eq!(a.loops.len(), 1);
        let l = &a.loops[0];
        // Accesses: store tmp, load tmp (compound), load A, load B.
        assert_eq!(l.accesses.len(), 4);
        let a_access = l.accesses.iter().find(|x| x.array == "A").unwrap();
        assert_eq!(a_access.c_tid, Some(40960));
        assert_eq!(a_access.c_iter, Some(1));
        assert_eq!(a_access.req_warp, 32);
        assert!(a_access.has_locality);
        let b_access = l.accesses.iter().find(|x| x.array == "B").unwrap();
        assert_eq!(b_access.req_warp, 1);
        assert!(l.contended);
        assert!(l.decision.is_throttled());
        assert_eq!(
            l.decision,
            ThrottleDecision {
                n: 2,
                m: 0,
                resolved: true
            }
        );
        assert_eq!(l.tlp(a.warps_per_tb, a.plan.resident_tbs), (4, 4));
    }

    /// ATAX kernel 2 (the transposed reduction) is well coalesced:
    /// `tmp[j]` is uniform per iteration, `A[j * NX + i]` has C_tid = 1 —
    /// no contention, CATT must not throttle (the case where CATT beats
    /// BFTT, §5.1).
    #[test]
    fn atax_kernel2_is_not_throttled() {
        let k = parse_kernel(
            "#define NX 4096
             __global__ void atax2(float *A, float *tmp, float *y) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 if (i < NX) {
                     for (int j = 0; j < NX; j++) {
                         y[i] += A[j * NX + i] * tmp[j];
                     }
                 }
             }",
        )
        .unwrap();
        let a = analyze_kernel(&k, LaunchConfig::d1(640, 256), &titan(), 32).unwrap();
        let l = &a.loops[0];
        let a_access = l.accesses.iter().find(|x| x.array == "A").unwrap();
        assert_eq!(a_access.c_tid, Some(1));
        assert_eq!(a_access.c_iter, Some(4096));
        assert_eq!(a_access.req_warp, 1);
        assert!(
            !a_access.has_locality,
            "A line is not reused next iteration"
        );
        // y[i] has locality (c_iter 0) but footprint is small.
        assert!(!l.contended);
        assert!(!l.decision.is_throttled());
        assert_eq!(l.tlp(a.warps_per_tb, a.plan.resident_tbs), (8, 8));
    }

    #[test]
    fn indirect_access_is_conservative() {
        // BFS-like gather: cols[j] is affine, x[cols[j]] is irregular.
        let k = parse_kernel(
            "__global__ void spmv(int *cols, float *x, float *y, int n) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 if (i < n) {
                     for (int j = 0; j < n; j++) {
                         y[i] += x[cols[j]];
                     }
                 }
             }",
        )
        .unwrap();
        let a = analyze_kernel(&k, LaunchConfig::d1(160, 256), &titan(), 24).unwrap();
        let l = &a.loops[0];
        let x = l.accesses.iter().find(|x| x.array == "x").unwrap();
        assert_eq!(x.c_tid, None, "indirect index must be irregular");
        assert_eq!(x.req_warp, 1, "conservative C_tid := 1 (§4.2)");
        // Small conservative footprint: untouched.
        assert!(!l.decision.is_throttled());
    }

    #[test]
    fn search_factors_walks_n_then_m() {
        // 35 lines/round, 8 warps, 8 TBs, 1024-line L1D (ATAX numbers):
        // 35·8·8 = 2240 > 1024; N=2 → 1120 > 1024; N=4 → 560 ≤ 1024.
        let d = search_factors(35, 8, 8, 1024);
        assert_eq!(
            d,
            ThrottleDecision {
                n: 4,
                m: 0,
                resolved: true
            }
        );
        // Tiny L1D forces M as well: 35 lines, 1 warp × 8 TB = 280 > 64;
        // M reduces TBs: 35·1·1 = 35 ≤ 64 at M = 7.
        let d = search_factors(35, 8, 8, 64);
        assert_eq!(
            d,
            ThrottleDecision {
                n: 8,
                m: 7,
                resolved: true
            }
        );
        // CORR case: unresolvable.
        let d = search_factors(100, 8, 8, 64);
        assert!(!d.resolved);
        // Fits outright.
        assert_eq!(search_factors(4, 8, 8, 1024), ThrottleDecision::NONE);
    }

    #[test]
    fn req_warp_equation7() {
        assert_eq!(req_warp(Some(0)), 1);
        assert_eq!(req_warp(Some(1)), 1);
        assert_eq!(req_warp(Some(8)), 8);
        assert_eq!(req_warp(Some(40960)), 32);
        assert_eq!(req_warp(Some(-4)), 4);
        assert_eq!(req_warp(None), 1);
    }

    #[test]
    fn locality_equation6() {
        assert!(has_locality(Some(0), 128, 4));
        assert!(has_locality(Some(1), 128, 4));
        assert!(has_locality(Some(32), 128, 4));
        assert!(!has_locality(Some(33), 128, 4));
        assert!(!has_locality(Some(4096), 128, 4));
        assert!(has_locality(None, 128, 4));
    }

    #[test]
    fn nested_loops_attribute_to_innermost() {
        let k = parse_kernel(
            "__global__ void gemm(float *A, float *B, float *C, int n) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 for (int r = 0; r < 4; r++) {
                     for (int j = 0; j < n; j++) {
                         C[i] += A[i * n + j] * B[j * n + i];
                     }
                 }
             }",
        )
        .unwrap();
        let a = analyze_kernel(&k, LaunchConfig::d1(16, 256), &titan(), 32).unwrap();
        assert_eq!(a.loops.len(), 2);
        assert!(
            a.loops[0].accesses.is_empty(),
            "outer loop has no direct accesses"
        );
        assert_eq!(a.loops[1].accesses.len(), 4);
        // B[j*n+i]: C_tid = 1, C_i = n (symbolic => n is a Var symbol, so
        // c_iter coefficient of j is n? no — `n` is a scalar param symbol;
        // j*n is a *non-linear* product of two symbols → irregular).
        let b = a.loops[1].accesses.iter().find(|x| x.array == "B").unwrap();
        assert_eq!(b.c_tid, None);
    }

    #[test]
    fn assignment_in_loop_poisons_variable() {
        let k = parse_kernel(
            "__global__ void k(float *A, int n) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 int base = i;
                 for (int j = 0; j < n; j++) {
                     A[base] = 0.0f;
                     base = base + 7;
                 }
             }",
        )
        .unwrap();
        let a = analyze_kernel(&k, LaunchConfig::d1(16, 256), &titan(), 16).unwrap();
        let acc = &a.loops[0].accesses[0];
        assert_eq!(acc.c_tid, None, "loop-carried base must be irregular");
    }

    #[test]
    fn barrier_loop_is_not_warp_split() {
        let k = parse_kernel(
            "#define N 40960
             __global__ void k(float *A, float *tmp) {
                 __shared__ float s[32];
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 for (int j = 0; j < N; j++) {
                     s[threadIdx.x % 32] = tmp[i];
                     __syncthreads();
                     tmp[i] += A[i * N + j] + s[0];
                 }
             }",
        )
        .unwrap();
        let a = analyze_kernel(&k, LaunchConfig::d1(160, 256), &titan(), 32).unwrap();
        let l = &a.loops[0];
        assert!(l.has_barrier);
        if l.decision.is_throttled() {
            assert_eq!(l.decision.n, 1, "barrier loops may only TB-throttle");
        }
    }

    #[test]
    fn launch_with_scalar_grid_param_still_analyzes() {
        // Grid-stride style loop where the bound is a scalar parameter.
        let k = parse_kernel(
            "__global__ void k(float *A, int n) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 for (int j = 0; j < n; j++) {
                     A[i * 1024 + j] += 1.0f;
                 }
             }",
        )
        .unwrap();
        let a = analyze_kernel(&k, LaunchConfig::d1(640, 256), &titan(), 16).unwrap();
        let acc = &a.loops[0].accesses[0];
        assert_eq!(acc.c_tid, Some(1024));
        assert_eq!(acc.c_iter, Some(1));
        assert!(a.loops[0].contended);
    }
}
