//! The staged pass pipeline: an explicit [`Pass`] trait, a
//! [`PassManager`] that runs each pass under `catch_unwind` (an escaped
//! panic becomes an `E030` diagnostic naming the pass, not a dead
//! process), plus the concrete compile passes
//! `parse → analyze → legalize → transform → emit`.

use crate::analysis::{analyze_kernel, search_factors, KernelAnalysis, LoopAnalysis};
use crate::fault::FaultPlan;
use crate::transform::{tb_throttle, warp_throttle};
use catt_diag::{codes, Diagnostic};
use catt_frontend::parse_module_recover;
use catt_ir::kernel::{Kernel, LaunchConfig, Module};
use catt_ir::printer;
use catt_sim::{GpuConfig, SMEM_CONFIGS_KB};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One stage of the compile pipeline.
///
/// A pass consumes its input, appends any number of typed diagnostics,
/// and either produces an output or fails (`None`, in which case at
/// least one error diagnostic explains why).
pub trait Pass {
    type Input<'a>;
    type Output;

    /// Stable pass name (appears in diagnostics).
    fn name(&self) -> &'static str;

    /// Run the pass. Errors and warnings go into `diags`; a `None`
    /// return means the pipeline stops after this pass.
    fn run(&self, input: Self::Input<'_>, diags: &mut Vec<Diagnostic>) -> Option<Self::Output>;
}

/// The message of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs passes with panic containment.
pub struct PassManager;

impl PassManager {
    /// Run `pass` on `input` under `catch_unwind`: its diagnostics are
    /// tagged with the pass name, and an escaped panic is reported as an
    /// `E030` diagnostic carrying the pass name.
    pub fn run<P: Pass>(
        pass: &P,
        input: P::Input<'_>,
        diags: &mut Vec<Diagnostic>,
    ) -> Option<P::Output> {
        let first = diags.len();
        let result = catch_unwind(AssertUnwindSafe(|| pass.run(input, diags)));
        for d in &mut diags[first..] {
            if d.pass.is_none() {
                d.pass = Some(pass.name());
            }
        }
        match result {
            Ok(output) => output,
            Err(payload) => {
                let msg = panic_message(payload);
                diags.push(
                    Diagnostic::error(
                        codes::PASS_PANICKED,
                        format!("internal error: pass `{}` panicked: {msg}", pass.name()),
                    )
                    .in_pass(pass.name()),
                );
                None
            }
        }
    }
}

// ---------------------------------------------------------------------
// Concrete passes.
// ---------------------------------------------------------------------

/// `parse`: source text → IR module (recovering parser; all frontend
/// diagnostics surface here).
pub struct ParsePass;

impl Pass for ParsePass {
    type Input<'a> = &'a str;
    type Output = Module;

    fn name(&self) -> &'static str {
        "parse"
    }

    fn run(&self, input: &str, diags: &mut Vec<Diagnostic>) -> Option<Module> {
        let outcome = parse_module_recover(input);
        let clean = outcome.is_clean();
        diags.extend(outcome.diagnostics);
        clean.then_some(outcome.module)
    }
}

/// `analyze`: kernel → occupancy plan + per-loop footprint decisions
/// (paper §4.1–4.3), including the Fig. 5 carve-out reconfiguration
/// when a TB throttle needs shared-memory space.
pub struct AnalyzePass<'c> {
    pub config: &'c GpuConfig,
    pub launch: LaunchConfig,
}

impl Pass for AnalyzePass<'_> {
    type Input<'a> = &'a Kernel;
    type Output = KernelAnalysis;

    fn name(&self) -> &'static str {
        "analyze"
    }

    fn run(&self, kernel: &Kernel, diags: &mut Vec<Diagnostic>) -> Option<KernelAnalysis> {
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
        let Some(mut analysis) =
            analyze_kernel(kernel, self.launch, self.config, program.num_regs as u32)
        else {
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
        // shared-memory space, the carve-out must be reconfigured (§4.3).
        // Follow the paper's Fig. 5 setting: largest carve-out, 32 KB L1D,
        // and re-run the factor search against that capacity.
        if analysis.tb_throttle_m() > 0 && analysis.plan.smem_carveout_bytes == 0 {
            let max_kb = SMEM_CONFIGS_KB.last().copied().unwrap_or(96);
            let mut cfg = self.config.clone();
            cfg.smem_carveout_bytes = max_kb * 1024;
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
            analysis.plan.config = cfg;
            analysis.plan.smem_carveout_bytes = max_kb * 1024;
            analysis.plan.l1d_bytes = analysis.plan.config.l1d_bytes();
        }
        Some(analysis)
    }
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

/// `legalize`: analysis decisions → concrete transform plan. Every
/// loop the analysis wanted to throttle but legality rejects is
/// reported as a warning naming the loop's source span (`W010` barrier,
/// `W011` divergent guard, `W012` unresolved factors).
pub struct LegalizePass;

impl Pass for LegalizePass {
    type Input<'a> = (&'a Kernel, &'a KernelAnalysis);
    type Output = LegalPlan;

    fn name(&self) -> &'static str {
        "legalize"
    }

    fn run(
        &self,
        (kernel, analysis): (&Kernel, &KernelAnalysis),
        diags: &mut Vec<Diagnostic>,
    ) -> Option<LegalPlan> {
        Some(legalize(kernel, analysis, diags))
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

/// Select the transforms the analysis decisions legally permit, with a
/// typed warning for every rejection.
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

/// What the transform stage produced: the (possibly) rewritten kernel,
/// plus the structured fallback diagnostic when the transform had to be
/// abandoned and the original code is used instead.
#[derive(Debug, Clone)]
pub struct TransformOutcome {
    pub kernel: Kernel,
    pub fallback: Option<Diagnostic>,
}

/// `transform`: apply the legalized plan with a guard rail — a
/// transform that panics or produces a kernel that no longer lowers
/// falls back to the *original* code (correct, merely unthrottled) with
/// a typed `W001`/`W002` diagnostic.
pub struct TransformPass<'f> {
    pub fault: &'f FaultPlan,
}

impl Pass for TransformPass<'_> {
    type Input<'a> = (&'a Kernel, &'a KernelAnalysis, &'a LegalPlan);
    type Output = TransformOutcome;

    fn name(&self) -> &'static str {
        "transform"
    }

    fn run(
        &self,
        (kernel, analysis, plan): (&Kernel, &KernelAnalysis, &LegalPlan),
        _diags: &mut Vec<Diagnostic>,
    ) -> Option<TransformOutcome> {
        if self.fault.fail_transform {
            return Some(TransformOutcome {
                kernel: kernel.clone(),
                fallback: Some(
                    Diagnostic::warning(
                        codes::FAULT_FALLBACK,
                        "fault injection: transform forced to fail",
                    )
                    .with_span(kernel.spans.name),
                ),
            });
        }
        match catch_unwind(AssertUnwindSafe(|| apply_plan(kernel, analysis, plan))) {
            Ok(transformed) => match catt_sim::lower(&transformed) {
                Ok(_) => Some(TransformOutcome {
                    kernel: transformed,
                    fallback: None,
                }),
                Err(e) => Some(TransformOutcome {
                    kernel: kernel.clone(),
                    fallback: Some(
                        Diagnostic::warning(
                            codes::TRANSFORM_FALLBACK,
                            format!("transformed kernel fails to lower: {e}"),
                        )
                        .with_span(kernel.spans.name),
                    ),
                }),
            },
            Err(payload) => {
                let msg = panic_message(payload);
                Some(TransformOutcome {
                    kernel: kernel.clone(),
                    fallback: Some(
                        Diagnostic::warning(
                            codes::TRANSFORM_FALLBACK,
                            format!("transform panicked: {msg}"),
                        )
                        .with_span(kernel.spans.name),
                    ),
                })
            }
        }
    }
}

/// Apply a legalized plan: warp throttles from the highest loop id down
/// (so earlier ids stay valid while later subtrees get duplicated),
/// then the kernel-wide TB throttle.
pub fn apply_plan(kernel: &Kernel, analysis: &KernelAnalysis, plan: &LegalPlan) -> Kernel {
    let mut out = kernel.clone();
    let mut ordered = plan.warp.clone();
    ordered.sort_by_key(|&(id, _)| std::cmp::Reverse(id));
    for (id, n) in ordered {
        if let Some(t) = warp_throttle(&out, id, n, analysis.warps_per_tb) {
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

/// `emit`: kernel → CUDA source (the pretty printer; cannot fail).
pub struct EmitPass;

impl Pass for EmitPass {
    type Input<'a> = &'a Kernel;
    type Output = String;

    fn name(&self) -> &'static str {
        "emit"
    }

    fn run(&self, kernel: &Kernel, _diags: &mut Vec<Diagnostic>) -> Option<String> {
        Some(printer::kernel_to_string(kernel))
    }
}
