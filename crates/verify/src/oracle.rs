//! The differential transform oracle.
//!
//! For one [`TestCase`] the oracle (1) executes the original kernel
//! (functionally, sanitizer armed); (2) enumerates every transform variant the
//! compiler could emit — `warp_throttle` over the eligible loops ×
//! divisors of the block's warp count, `tb_throttle` over reachable TB
//! targets, and warp∘tb compositions as `pipeline`/`multiversion`
//! produce them; (3) runs each variant under the same launch and initial
//! memory and demands **bit-exact global memory** plus the **identical
//! [`SimError`] classification**.
//!
//! Originals the sanitizer flags are *dirty* (deliberate injections from
//! the generator): undefined behaviour has no semantics to preserve, so
//! the differential comparison is skipped and the skip is counted.
//! Conversely a sanitizer report on a *variant* of a clean original is a
//! classification violation — the transform introduced the undefined
//! behaviour (the historical divergent-barrier miscompile surfaces
//! exactly this way).

use crate::generate::TestCase;
use crate::ViolationKind;
use catt_core::{cta_swizzle, eligible_loops_for, tb_throttle, warp_throttle, SwizzlePolicy};
use catt_ir::visit::walk_stmts;
use catt_ir::{Kernel, LaunchConfig, Stmt};
use catt_sim::{Arg, GlobalMem, Gpu, GpuConfig, SimError};

/// Shared-memory carve-out assumed when enumerating `tb_throttle`
/// targets. 4 KB keeps every dummy allocation well inside the smallest
/// real carve-out option, so variants never fail for capacity reasons.
pub const ORACLE_CARVEOUT_BYTES: u32 = 4096;

/// TB-residency targets the oracle tries (`tb_throttle` returns `None`
/// for unreachable ones, which are skipped, not counted).
pub const TB_TARGETS: std::ops::RangeInclusive<u32> = 1..=4;

/// One transform variant, as a reproducible recipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recipe {
    /// `warp_throttle(kernel, loop_id, n, warps_per_tb)`.
    WarpThrottle { loop_id: usize, n: u32 },
    /// `tb_throttle(kernel, target_tbs, ORACLE_CARVEOUT_BYTES, smem)`.
    TbThrottle { target_tbs: u32 },
    /// Warp-level throttling followed by TB-level throttling (the
    /// composition the pipeline emits when both decisions fire).
    Composed {
        loop_id: usize,
        n: u32,
        target_tbs: u32,
    },
    /// `cta_swizzle(kernel, policy, grid)` — block-id remapping alone.
    CtaSwizzle { policy: SwizzlePolicy },
    /// CTA swizzle followed by warp-level throttling, the composition the
    /// autotuner emits when both knobs fire. Swizzle runs first, exactly
    /// as the tuner applies it, so the spliced barriers land in the
    /// already-remapped kernel.
    SwizzledWarp {
        policy: SwizzlePolicy,
        loop_id: usize,
        n: u32,
    },
}

/// Integer `k=v` encoding of a swizzle policy for recipe strings
/// (`serp=1`, `tile=4`, `xor=3`) — [`SwizzlePolicy::describe`] itself is
/// not used because `serpentine` carries no value and the recipe parser
/// is strictly key=integer.
fn policy_kv(policy: &SwizzlePolicy) -> String {
    match policy {
        SwizzlePolicy::Serpentine => "serp=1".into(),
        SwizzlePolicy::TileMajor(t) => format!("tile={t}"),
        SwizzlePolicy::XorFold(k) => format!("xor={k}"),
    }
}

fn policy_from_kv(kv: &std::collections::BTreeMap<&str, u64>) -> Option<SwizzlePolicy> {
    if kv.contains_key("serp") {
        return Some(SwizzlePolicy::Serpentine);
    }
    if let Some(t) = kv.get("tile") {
        return Some(SwizzlePolicy::TileMajor(*t as u32));
    }
    kv.get("xor").map(|k| SwizzlePolicy::XorFold(*k as u32))
}

impl Recipe {
    /// Stable one-line description (reports and corpus directives).
    pub fn describe(&self) -> String {
        match self {
            Recipe::WarpThrottle { loop_id, n } => {
                format!("warp_throttle loop={loop_id} n={n}")
            }
            Recipe::TbThrottle { target_tbs } => format!("tb_throttle target={target_tbs}"),
            Recipe::Composed {
                loop_id,
                n,
                target_tbs,
            } => format!("composed loop={loop_id} n={n} target={target_tbs}"),
            Recipe::CtaSwizzle { policy } => format!("cta_swizzle {}", policy_kv(policy)),
            Recipe::SwizzledWarp { policy, loop_id, n } => {
                format!("swizzled_warp {} loop={loop_id} n={n}", policy_kv(policy))
            }
        }
    }

    /// Parse [`Recipe::describe`] output back (corpus replay).
    pub fn parse(s: &str) -> Option<Recipe> {
        let mut kv = std::collections::BTreeMap::new();
        let mut words = s.split_whitespace();
        let head = words.next()?;
        for w in words {
            let (k, v) = w.split_once('=')?;
            kv.insert(k, v.parse::<u64>().ok()?);
        }
        match head {
            "warp_throttle" => Some(Recipe::WarpThrottle {
                loop_id: *kv.get("loop")? as usize,
                n: *kv.get("n")? as u32,
            }),
            "tb_throttle" => Some(Recipe::TbThrottle {
                target_tbs: *kv.get("target")? as u32,
            }),
            "composed" => Some(Recipe::Composed {
                loop_id: *kv.get("loop")? as usize,
                n: *kv.get("n")? as u32,
                target_tbs: *kv.get("target")? as u32,
            }),
            "cta_swizzle" => Some(Recipe::CtaSwizzle {
                policy: policy_from_kv(&kv)?,
            }),
            "swizzled_warp" => Some(Recipe::SwizzledWarp {
                policy: policy_from_kv(&kv)?,
                loop_id: *kv.get("loop")? as usize,
                n: *kv.get("n")? as u32,
            }),
            _ => None,
        }
    }
}

/// A raw oracle finding, before shrinking.
#[derive(Debug, Clone)]
pub struct ViolationSeed {
    pub kind: ViolationKind,
    pub recipe: Recipe,
    pub baseline: String,
    pub variant: String,
}

/// Outcome of [`check_case`].
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    /// The sanitizer flagged the *original*: differential comparison
    /// skipped (nothing to preserve).
    DirtyOriginal { class: String },
    Checked {
        /// Variants actually executed and compared.
        variants: u32,
        violations: Vec<ViolationSeed>,
    },
}

/// The simulator configuration all oracle runs use: the small test GPU
/// with the sanitizer on (`GpuConfig::sanitize`, what `catt run
/// --sanitize` sets) and a generous explicit fuel budget so borderline
/// heuristic budgets cannot turn a slowdown into a classification flip.
pub fn sim_config() -> GpuConfig {
    let mut c = GpuConfig::small();
    c.sanitize = Some(true);
    c.sim_fuel = Some(200_000_000);
    c
}

/// Stable classification of a launch outcome. Variant-independent:
/// program counters and cycle counts are deliberately excluded.
pub fn classify(e: &SimError) -> String {
    match e {
        SimError::BarrierDeadlock { .. } => "barrier-deadlock".into(),
        SimError::OutOfBounds { .. } => "out-of-bounds".into(),
        SimError::FuelExhausted { .. } => "fuel-exhausted".into(),
        SimError::BadArgument { .. } => "bad-argument".into(),
        SimError::MalformedProgram { .. } => "malformed-program".into(),
        SimError::Sanitizer(r) => format!("sanitizer: {}", r.kind.name()),
        SimError::Lower(_) => "lower-error".into(),
        SimError::Cancelled { .. } => "cancelled".into(),
    }
}

/// A case's initial device state: every buffer allocated and filled
/// ([`crate::fill_f32`]) once, then cloned for the original and each variant.
pub struct CaseImage {
    mem: GlobalMem,
    args: Vec<Arg>,
}

impl CaseImage {
    pub fn new(case: &TestCase) -> CaseImage {
        let mut mem = GlobalMem::new();
        let args = case
            .buffers
            .iter()
            .map(|(_, len)| {
                let data: Vec<f32> = (0..*len).map(crate::fill_f32).collect();
                Arg::Buf(mem.alloc_f32(&data))
            })
            .collect();
        CaseImage { mem, args }
    }

    /// Execute `kernel` on a copy of the image — functionally: the oracle
    /// compares memory and error classes, never cycles — with the sanitizer
    /// armed. Returns the classification and (for clean completions) the
    /// final global memory.
    pub fn run(&self, kernel: &Kernel, launch: LaunchConfig) -> (String, Option<GlobalMem>) {
        let mut mem = self.mem.clone();
        match Gpu::new(sim_config()).execute(kernel, launch, &self.args, &mut mem) {
            Ok(_) => ("ok".into(), Some(mem)),
            Err(e) => (classify(&e), None),
        }
    }
}

/// Run `kernel` under the case's launch geometry on fresh, deterministic
/// memory. Returns the classification and (for clean completions) the
/// global-memory content digest.
pub fn run_case(kernel: &Kernel, case: &TestCase) -> (String, Option<u64>) {
    let (class, mem) = CaseImage::new(case).run(kernel, case.launch);
    (class, mem.map(|m| m.content_digest()))
}

/// Pre-order ids of loops whose bodies contain no `__syncthreads()` —
/// the enumeration the compiler used *before* the block-uniformity
/// prover existed. Shares `warp_throttle`'s numbering (both walk
/// `For`/`While` pre-order, descending into `If` branches), so an id
/// here addresses the same loop the transform rewrites.
pub fn barrier_free_loops(kernel: &Kernel) -> Vec<usize> {
    fn barrier_free(body: &[Stmt]) -> bool {
        let mut clean = true;
        walk_stmts(body, &mut |s| {
            if matches!(s, Stmt::SyncThreads) {
                clean = false;
            }
        });
        clean
    }
    fn go(stmts: &[Stmt], counter: &mut usize, out: &mut Vec<usize>) {
        for s in stmts {
            match s {
                Stmt::For { body, .. } | Stmt::While { body, .. } => {
                    let id = *counter;
                    *counter += 1;
                    if barrier_free(body) {
                        out.push(id);
                    }
                    go(body, counter, out);
                }
                Stmt::If { then, els, .. } => {
                    go(then, counter, out);
                    go(els, counter, out);
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    go(&kernel.body, &mut 0, &mut out);
    out
}

/// Every variant recipe reachable for this kernel under this launch.
pub fn variant_recipes(kernel: &Kernel, case: &TestCase, legality_checked: bool) -> Vec<Recipe> {
    let launch = case.launch;
    let warps = launch.warps_per_block();
    let loops = if legality_checked {
        eligible_loops_for(
            kernel,
            (launch.block.x, launch.block.y, launch.block.z),
            Some((launch.grid.x, launch.grid.y, launch.grid.z)),
        )
    } else {
        barrier_free_loops(kernel)
    };
    let divisors: Vec<u32> = (2..=warps).filter(|n| warps.is_multiple_of(*n)).collect();

    let mut out = Vec::new();
    for &loop_id in &loops {
        for &n in &divisors {
            out.push(Recipe::WarpThrottle { loop_id, n });
        }
    }
    let smem = kernel.shared_mem_bytes();
    for target_tbs in TB_TARGETS {
        if tb_throttle(kernel, target_tbs, ORACLE_CARVEOUT_BYTES, smem).is_some() {
            out.push(Recipe::TbThrottle { target_tbs });
        }
    }
    for &loop_id in &loops {
        for &n in &divisors {
            out.push(Recipe::Composed {
                loop_id,
                n,
                target_tbs: 2,
            });
        }
    }
    let grid = (launch.grid.x, launch.grid.y, launch.grid.z);
    for policy in SwizzlePolicy::candidates() {
        if cta_swizzle(kernel, policy, grid).is_none() {
            continue; // not a bijection on this grid (t ∤ gx, 3-D, ...)
        }
        out.push(Recipe::CtaSwizzle { policy });
        // Swizzling rewrites expressions, never control flow, so the
        // loop numbering and legality verdicts carry over unchanged.
        for &loop_id in &loops {
            for &n in &divisors {
                out.push(Recipe::SwizzledWarp { policy, loop_id, n });
            }
        }
    }
    out
}

/// Apply a recipe. `None` when the transform rejects it (e.g. the loop
/// id vanished during shrinking). `grid` is the launch grid the swizzle
/// bijections are built for; throttling recipes ignore it.
pub fn apply_recipe(
    kernel: &Kernel,
    recipe: &Recipe,
    warps_per_tb: u32,
    grid: (u32, u32, u32),
) -> Option<Kernel> {
    match recipe {
        Recipe::WarpThrottle { loop_id, n } => warp_throttle(kernel, *loop_id, *n, warps_per_tb),
        Recipe::TbThrottle { target_tbs } => tb_throttle(
            kernel,
            *target_tbs,
            ORACLE_CARVEOUT_BYTES,
            kernel.shared_mem_bytes(),
        ),
        Recipe::Composed {
            loop_id,
            n,
            target_tbs,
        } => {
            let warped = warp_throttle(kernel, *loop_id, *n, warps_per_tb)?;
            tb_throttle(
                &warped,
                *target_tbs,
                ORACLE_CARVEOUT_BYTES,
                warped.shared_mem_bytes(),
            )
        }
        Recipe::CtaSwizzle { policy } => cta_swizzle(kernel, *policy, grid),
        Recipe::SwizzledWarp { policy, loop_id, n } => {
            let swizzled = cta_swizzle(kernel, *policy, grid)?;
            warp_throttle(&swizzled, *loop_id, *n, warps_per_tb)
        }
    }
}

/// Fast path for the shrinker: does *any* variant of `case` reproduce
/// the exact `(baseline, variant)` failure signature? Stops at the
/// first hit instead of enumerating every violation, which cuts the
/// shrinker's per-edit cost by the variant count in the common case.
pub fn signature_reproduces(
    case: &TestCase,
    legality_checked: bool,
    baseline: &str,
    variant: &str,
) -> bool {
    let image = CaseImage::new(case);
    let (base_class, base_mem) = image.run(&case.kernel, case.launch);
    if base_class != baseline || base_class.starts_with("sanitizer") {
        return false;
    }
    let warps = case.launch.warps_per_block();
    let grid = (case.launch.grid.x, case.launch.grid.y, case.launch.grid.z);
    for recipe in variant_recipes(&case.kernel, case, legality_checked) {
        let Some(v) = apply_recipe(&case.kernel, &recipe, warps, grid) else {
            continue;
        };
        let (var_class, var_mem) = image.run(&v, case.launch);
        let hit = if var_class != base_class {
            var_class == variant
        } else {
            var_class == "ok" && var_mem != base_mem && variant == "ok, but global memory differs"
        };
        if hit {
            return true;
        }
    }
    false
}

/// Differentially check one case. See the module docs for the protocol.
pub fn check_case(case: &TestCase, legality_checked: bool) -> CaseOutcome {
    let image = CaseImage::new(case);
    let (base_class, base_mem) = image.run(&case.kernel, case.launch);
    if base_class.starts_with("sanitizer") {
        return CaseOutcome::DirtyOriginal { class: base_class };
    }
    let warps = case.launch.warps_per_block();
    let grid = (case.launch.grid.x, case.launch.grid.y, case.launch.grid.z);
    let mut variants = 0;
    let mut violations = Vec::new();
    for recipe in variant_recipes(&case.kernel, case, legality_checked) {
        let Some(variant) = apply_recipe(&case.kernel, &recipe, warps, grid) else {
            continue;
        };
        variants += 1;
        let (var_class, var_mem) = image.run(&variant, case.launch);
        if var_class != base_class {
            violations.push(ViolationSeed {
                kind: ViolationKind::Classification,
                recipe,
                baseline: base_class.clone(),
                variant: var_class,
            });
        } else if var_class == "ok" && var_mem != base_mem {
            violations.push(ViolationSeed {
                kind: ViolationKind::ResultMismatch,
                recipe,
                baseline: "ok".into(),
                variant: "ok, but global memory differs".into(),
            });
        }
    }
    CaseOutcome::Checked {
        variants,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_case, GenOptions};
    use catt_frontend::parse_kernel;

    fn case_for(src: &str, launch: LaunchConfig, buffers: &[(&str, u32)]) -> TestCase {
        TestCase {
            kernel: parse_kernel(src).unwrap(),
            launch,
            buffers: buffers.iter().map(|(n, l)| (n.to_string(), *l)).collect(),
        }
    }

    #[test]
    fn recipe_describe_parses_back() {
        for r in [
            Recipe::WarpThrottle { loop_id: 3, n: 2 },
            Recipe::TbThrottle { target_tbs: 4 },
            Recipe::Composed {
                loop_id: 0,
                n: 4,
                target_tbs: 2,
            },
            Recipe::CtaSwizzle {
                policy: SwizzlePolicy::Serpentine,
            },
            Recipe::CtaSwizzle {
                policy: SwizzlePolicy::TileMajor(4),
            },
            Recipe::CtaSwizzle {
                policy: SwizzlePolicy::XorFold(3),
            },
            Recipe::SwizzledWarp {
                policy: SwizzlePolicy::XorFold(1),
                loop_id: 1,
                n: 2,
            },
        ] {
            assert_eq!(Recipe::parse(&r.describe()), Some(r));
        }
        assert_eq!(Recipe::parse("frob x=1"), None);
    }

    #[test]
    fn barrier_free_numbering_matches_warp_throttle() {
        // Loop 0 contains a barrier (excluded); loop 1 nests inside it
        // (included); loop 2 sits in an else branch (included). The ids
        // must address the loops warp_throttle rewrites.
        let src = "
            __global__ void k(float *a) {
                for (int u = 0; u < 4; u++) {
                    __syncthreads();
                    for (int v = 0; v < 2; v++) { a[threadIdx.x] += 1.0f; }
                }
                if (threadIdx.x < 64) { } else {
                    for (int w = 0; w < 8; w++) { a[threadIdx.x] += 2.0f; }
                }
            }";
        let k = parse_kernel(src).unwrap();
        assert_eq!(barrier_free_loops(&k), vec![1, 2]);
        // Blind application on id 2 duplicates the bound-8 loop.
        let t = warp_throttle(&k, 2, 2, 4).unwrap();
        let mut bound8 = 0;
        walk_stmts(&t.body, &mut |s| {
            if let Stmt::For { bound, .. } = s {
                if bound.const_int() == Some(8) {
                    bound8 += 1;
                }
            }
        });
        assert_eq!(bound8, 2, "loop 2 must be the one duplicated");
    }

    #[test]
    fn dirty_original_is_screened_not_compared() {
        let case = case_for(
            "__global__ void d(float *a, float *b, float *out) {
                 if (threadIdx.x % 2 == 0) { __syncthreads(); }
                 out[threadIdx.x] = 1.0f;
             }",
            LaunchConfig::d1(1, 32),
            &[("a", 1), ("b", 1), ("out", 32)],
        );
        match check_case(&case, true) {
            CaseOutcome::DirtyOriginal { class } => {
                assert_eq!(class, "sanitizer: barrier divergence")
            }
            other => panic!("expected a dirty screen, got {other:?}"),
        }
    }

    #[test]
    fn unchecked_mode_flags_the_divergent_barrier_miscompile() {
        // The canonical legality gap: a barrier-free loop under a
        // thread-divergent guard. Legal mode produces no warp variants;
        // unchecked mode throttles it and the variant trips the
        // sanitizer while the original screens clean.
        let case = case_for(
            "__global__ void m(float *a, float *b, float *out) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 float acc = 0.0f;
                 if (i < 40) {
                     for (int j = 0; j < 8; j++) { acc += a[i * 8 + j]; }
                 }
                 out[i] = acc;
             }",
            LaunchConfig::d1(1, 64),
            &[("a", 512), ("b", 1), ("out", 64)],
        );
        let CaseOutcome::Checked { violations, .. } = check_case(&case, true) else {
            panic!("original screened dirty");
        };
        assert!(
            violations.is_empty(),
            "legal mode must stay clean: {violations:?}"
        );
        let CaseOutcome::Checked { violations, .. } = check_case(&case, false) else {
            panic!("original screened dirty");
        };
        assert!(
            violations
                .iter()
                .any(|v| v.baseline == "ok" && v.variant == "sanitizer: barrier divergence"),
            "unchecked mode must rediscover the miscompile: {violations:?}"
        );
    }

    /// Swizzle recipes join the enumeration on grids where they are
    /// bijections, including the non-trivial XOR folds on 1-D grids, and
    /// every one of them is bit-exact on a clean kernel.
    #[test]
    fn swizzle_variants_are_enumerated_and_bit_exact() {
        let case = case_for(
            "__global__ void s(float *a, float *b, float *out) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 float acc = 0.0f;
                 for (int j = 0; j < 4; j++) { acc += a[i % 64] * b[(i + j) % 32]; }
                 out[i] = acc + (float)blockIdx.x;
             }",
            LaunchConfig::d1(4, 64),
            &[("a", 64), ("b", 32), ("out", 256)],
        );
        let recipes = variant_recipes(&case.kernel, &case, true);
        assert!(
            recipes.iter().any(|r| matches!(
                r,
                Recipe::CtaSwizzle {
                    policy: SwizzlePolicy::XorFold(_)
                }
            )),
            "XOR folds must be live on 1-D grids: {recipes:?}"
        );
        assert!(
            recipes
                .iter()
                .any(|r| matches!(r, Recipe::SwizzledWarp { .. })),
            "swizzle ∘ warp-throttle compositions missing: {recipes:?}"
        );
        match check_case(&case, true) {
            CaseOutcome::Checked {
                variants,
                violations,
            } => {
                assert!(violations.is_empty(), "{violations:?}");
                assert!(variants > 4, "too few variants actually ran: {variants}");
            }
            other => panic!("clean kernel screened dirty: {other:?}"),
        }
    }

    #[test]
    fn legal_variants_of_generated_kernels_are_clean() {
        for seed in 0..30u64 {
            let case = generate_case(seed, &GenOptions { dirty_p: 0.0 });
            match check_case(&case, true) {
                CaseOutcome::Checked { violations, .. } => assert!(
                    violations.is_empty(),
                    "seed {seed}: {violations:?}\n{}",
                    catt_ir::printer::kernel_to_string(&case.kernel)
                ),
                CaseOutcome::DirtyOriginal { class } => {
                    panic!("seed {seed}: clean kernel screened dirty: {class}")
                }
            }
        }
    }
}
