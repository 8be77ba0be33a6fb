//! The compile stages `parse → analyze → legalize → transform → emit`
//! as plain functions (emit is [`catt_ir::printer::kernel_to_string`]),
//! and [`contained`], which runs one stage under `catch_unwind`: an
//! escaped panic becomes an `E030` diagnostic naming the stage, not a
//! dead process.

use crate::analysis::{analyze_kernel, search_factors, KernelAnalysis, LoopAnalysis};
use crate::fault::FaultPlan;
use crate::transform::{tb_throttle, warp_throttle};
use catt_diag::{codes, Diagnostic};
use catt_frontend::parse_module_recover;
use catt_ir::kernel::{Kernel, LaunchConfig, Module};
use catt_sim::{GpuConfig, Program, SMEM_CONFIGS_KB};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The message of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run the stage named `pass` under `catch_unwind`. The diagnostics it
/// appends are tagged with the pass name, and an escaped panic is
/// reported as an `E030` diagnostic carrying the pass name. `None` means
/// the compile stops here; at least one error diagnostic says why.
pub fn contained<T>(
    pass: &'static str,
    diags: &mut Vec<Diagnostic>,
    stage: impl FnOnce(&mut Vec<Diagnostic>) -> Option<T>,
) -> Option<T> {
    let first = diags.len();
    let result = catch_unwind(AssertUnwindSafe(|| stage(diags)));
    for d in &mut diags[first..] {
        if d.pass.is_none() {
            d.pass = Some(pass);
        }
    }
    match result {
        Ok(output) => output,
        Err(payload) => {
            let msg = panic_message(payload);
            diags.push(
                Diagnostic::error(
                    codes::PASS_PANICKED,
                    format!("internal error: pass `{pass}` panicked: {msg}"),
                )
                .in_pass(pass),
            );
            None
        }
    }
}

/// `parse`: source text → IR module (recovering parser; all frontend
/// diagnostics surface here).
pub fn parse(src: &str, diags: &mut Vec<Diagnostic>) -> Option<Module> {
    let outcome = parse_module_recover(src);
    let clean = outcome.is_clean();
    diags.extend(outcome.diagnostics);
    clean.then_some(outcome.module)
}

/// What `analyze` hands on: the analysis, and the kernel's program, which
/// it lowers to count registers. The transform reuses the program when it
/// leaves the kernel as it is, so each kernel form is lowered once.
#[derive(Debug, Clone)]
pub struct Analyzed {
    pub analysis: KernelAnalysis,
    pub program: Program,
}

/// The shared-memory carve-out a TB throttle runs under, given the
/// kernel's own: that one, or, for a kernel without any, the largest the
/// target offers (the paper's Fig. 5 setting).
pub(crate) fn tb_throttle_carveout(carveout_bytes: u32) -> u32 {
    match carveout_bytes {
        0 => SMEM_CONFIGS_KB.last().copied().unwrap_or(96) * 1024,
        c => c,
    }
}

/// `analyze`: kernel → occupancy plan + per-loop footprint decisions
/// (paper §4.1–4.3), including the Fig. 5 carve-out reconfiguration
/// when a TB throttle needs shared-memory space.
pub fn analyze(
    kernel: &Kernel,
    launch: LaunchConfig,
    config: &GpuConfig,
    diags: &mut Vec<Diagnostic>,
) -> Option<Analyzed> {
    let program = match catt_sim::lower(kernel) {
        Ok(p) => p,
        Err(e) => {
            diags.push(
                Diagnostic::error(codes::LOWERING_FAILED, e.to_string())
                    .with_span(kernel.spans.name),
            );
            return None;
        }
    };
    let Some(mut analysis) = analyze_kernel(kernel, launch, config, program.num_regs as u32) else {
        diags.push(
            Diagnostic::error(
                codes::UNLAUNCHABLE,
                format!("kernel `{}` cannot launch on the target", kernel.name),
            )
            .with_span(kernel.spans.name),
        );
        return None;
    };

    // When any loop needs TB-level throttling on a kernel without free
    // shared-memory space, the carve-out must be reconfigured (§4.3),
    // and the factor search re-run against the L1D that is left.
    let carveout = tb_throttle_carveout(analysis.plan.smem_carveout_bytes);
    if analysis.tb_throttle_m() > 0 && carveout != analysis.plan.smem_carveout_bytes {
        let mut cfg = config.clone();
        cfg.smem_carveout_bytes = carveout;
        let l1d_lines = (cfg.l1d_bytes() / cfg.l1_line_bytes) as u64;
        for l in &mut analysis.loops {
            if l.decision.m > 0 {
                let per_round: u64 = l.accesses.iter().map(|a| a.req_warp as u64).sum();
                l.decision = search_factors(
                    per_round,
                    analysis.warps_per_tb,
                    analysis.plan.resident_tbs,
                    l1d_lines,
                );
            }
        }
        analysis.plan.smem_carveout_bytes = cfg.smem_carveout_bytes;
        analysis.plan.l1d_bytes = cfg.l1d_bytes();
        analysis.plan.config = cfg;
    }
    Some(Analyzed { analysis, program })
}

/// The legalized throttling plan: which transforms will actually be
/// applied, after every legality rejection has been reported.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LegalPlan {
    /// `(loop_id, N)` warp throttles, outermost selected loops only.
    pub warp: Vec<(usize, u32)>,
    /// `(target resident TBs, carve-out bytes)` for the kernel-wide TB
    /// throttle, when one is needed.
    pub tb: Option<(u32, u32)>,
}

impl LegalPlan {
    /// No warp split and no TB throttle: [`apply_plan`] returns the
    /// kernel unchanged.
    pub fn is_identity(&self) -> bool {
        self.warp.is_empty() && self.tb.is_none()
    }
}

fn loop_warning(
    kernel: &Kernel,
    l: &LoopAnalysis,
    code: catt_diag::Code,
    msg: String,
) -> Diagnostic {
    let mut d = Diagnostic::warning(code, msg);
    if let Some(span) = kernel.spans.loop_span(l.loop_id) {
        d = d.with_span(span);
    } else {
        d = d.with_span(kernel.spans.name);
    }
    d
}

/// `legalize`: analysis decisions → concrete transform plan. Every
/// loop the analysis wanted to throttle but legality rejects is
/// reported as a warning naming the loop's source span (`W010` barrier,
/// `W011` divergent guard, `W012` unresolved factors).
pub fn legalize(
    kernel: &Kernel,
    analysis: &KernelAnalysis,
    diags: &mut Vec<Diagnostic>,
) -> LegalPlan {
    // Report loops whose contention even maximum throttling cannot fix
    // (the CORR case, §5.1) — they stay untouched by design.
    for l in &analysis.loops {
        if !l.decision.resolved {
            diags.push(loop_warning(
                kernel,
                l,
                codes::LOOP_UNRESOLVED,
                format!(
                    "loop #{} stays unthrottled: even maximum throttling cannot fit its \
                     footprint in the L1D",
                    l.loop_id
                ),
            ));
        }
    }

    // Select loops: resolved, n > 1, no barrier, a block-uniform guard
    // (spliced barriers under divergent control flow deadlock on real
    // hardware), and no throttled ancestor.
    let wants_warp: Vec<&LoopAnalysis> = analysis
        .loops
        .iter()
        .filter(|l| l.decision.is_throttled() && l.decision.n > 1)
        .collect();
    let mut throttled: Vec<&LoopAnalysis> = Vec::new();
    for l in &wants_warp {
        if l.has_barrier {
            diags.push(loop_warning(
                kernel,
                l,
                codes::LOOP_SKIPPED_BARRIER,
                format!(
                    "loop #{} needs warp throttling (N={}) but contains a barrier; \
                     splitting it would interleave barrier sites",
                    l.loop_id, l.decision.n
                ),
            ));
        } else if l.divergent_guard {
            diags.push(loop_warning(
                kernel,
                l,
                codes::LOOP_SKIPPED_DIVERGENT,
                format!(
                    "loop #{} needs warp throttling (N={}) but sits under a \
                     thread-divergent guard; a spliced barrier would deadlock",
                    l.loop_id, l.decision.n
                ),
            ));
        } else {
            throttled.push(l);
        }
    }
    let warp: Vec<(usize, u32)> = throttled
        .iter()
        .filter(|l| {
            // Walk ancestors; drop if any ancestor is itself selected.
            let mut p = l.parent;
            while let Some(pid) = p {
                if throttled.iter().any(|t| t.loop_id == pid) {
                    return false;
                }
                p = analysis
                    .loops
                    .iter()
                    .find(|x| x.loop_id == pid)
                    .and_then(|x| x.parent);
            }
            true
        })
        .map(|l| (l.loop_id, l.decision.n))
        .collect();

    let m = analysis.tb_throttle_m();
    let tb = (m > 0 && m < analysis.plan.resident_tbs).then(|| {
        (
            analysis.plan.resident_tbs - m,
            analysis.plan.config.smem_carveout_bytes,
        )
    });

    LegalPlan { warp, tb }
}

/// What the transform stage produced: the (possibly) rewritten kernel
/// and its lowered program, plus the structured fallback diagnostic when
/// the transform had to be abandoned and the original code is used
/// instead.
#[derive(Debug, Clone)]
pub struct TransformOutcome {
    pub kernel: Kernel,
    pub program: Program,
    pub fallback: Option<Diagnostic>,
}

/// `transform`: apply the legalized plan with a guard rail — a
/// transform that panics or produces a kernel that no longer lowers
/// falls back to the *original* code (correct, merely unthrottled) with
/// a typed `W001`/`W002` diagnostic. The lowering that checks the
/// rewritten kernel is its program; the original kernel's program is the
/// one `analyze` lowered, so an identity plan lowers nothing here.
pub fn transform(
    kernel: &Kernel,
    analyzed: &Analyzed,
    plan: &LegalPlan,
    fault: &FaultPlan,
) -> TransformOutcome {
    let original = |fallback: Option<Diagnostic>| TransformOutcome {
        kernel: kernel.clone(),
        program: analyzed.program.clone(),
        fallback,
    };
    let fallback = |code, message: String| {
        original(Some(
            Diagnostic::warning(code, message).with_span(kernel.spans.name),
        ))
    };
    if fault.fail_transform {
        return fallback(
            codes::FAULT_FALLBACK,
            "fault injection: transform forced to fail".to_string(),
        );
    }
    if plan.is_identity() {
        return original(None);
    }
    let warps_per_tb = analyzed.analysis.warps_per_tb;
    match catch_unwind(AssertUnwindSafe(|| apply_plan(kernel, warps_per_tb, plan))) {
        Ok(transformed) => match catt_sim::lower(&transformed) {
            Ok(program) => TransformOutcome {
                kernel: transformed,
                program,
                fallback: None,
            },
            Err(e) => fallback(
                codes::TRANSFORM_FALLBACK,
                format!("transformed kernel fails to lower: {e}"),
            ),
        },
        Err(payload) => fallback(
            codes::TRANSFORM_FALLBACK,
            format!("transform panicked: {}", panic_message(payload)),
        ),
    }
}

/// Apply a legalized plan: warp throttles from the highest loop id down
/// (so earlier ids stay valid while later subtrees get duplicated),
/// then the kernel-wide TB throttle.
pub fn apply_plan(kernel: &Kernel, warps_per_tb: u32, plan: &LegalPlan) -> Kernel {
    let mut out = kernel.clone();
    let mut ordered = plan.warp.clone();
    ordered.sort_by_key(|&(id, _)| std::cmp::Reverse(id));
    for (id, n) in ordered {
        if let Some(t) = warp_throttle(&out, id, n, warps_per_tb) {
            out = t;
        }
    }
    if let Some((target, carveout)) = plan.tb {
        if let Some(t) = tb_throttle(&out, target, carveout, kernel.shared_mem_bytes()) {
            out = t;
        }
    }
    out
}
