//! The end-to-end CATT compiler: the compile stages of [`crate::passes`],
//! `parse → analyze → legalize → transform → emit`, called in order.
//!
//! Each stage runs under [`contained`]: its diagnostics name the pass,
//! and an escaped panic becomes an `E030` diagnostic naming the pass.

use crate::analysis::KernelAnalysis;
use crate::fault::FaultPlan;
use crate::passes::{
    analyze, apply_plan, contained, legalize, parse, tb_throttle_carveout, transform, LegalPlan,
};
use catt_diag::{codes, Diagnostic, Severity};
use catt_ir::kernel::{Kernel, LaunchConfig, Module};
use catt_ir::printer;
use catt_sim::{GpuConfig, Program};
use std::fmt;

/// Pipeline failure: one or more error diagnostics (parse errors,
/// lowering failures, an unlaunchable kernel, a panicked pass).
///
/// `message` mirrors the first error's message for quick formatting;
/// `diagnostics` carries every typed diagnostic (errors *and* the
/// warnings that accompanied them) with codes and source spans.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineError {
    pub message: String,
    pub diagnostics: Vec<Diagnostic>,
}

impl PipelineError {
    /// Build from a diagnostic list; guarantees at least one error
    /// diagnostic is present (every pipeline `Err` must explain itself).
    pub fn from_diags(mut diagnostics: Vec<Diagnostic>) -> PipelineError {
        if !diagnostics.iter().any(|d| d.severity == Severity::Error) {
            diagnostics.push(Diagnostic::error(
                codes::PASS_PANICKED,
                "internal error: pipeline failed without reporting an error",
            ));
        }
        let message = diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
            .map(|d| d.message.clone())
            .unwrap_or_default();
        PipelineError {
            message,
            diagnostics,
        }
    }

    /// The error-severity diagnostics (skips riding-along warnings).
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CATT pipeline: {}", self.message)?;
        let extra = self.errors().count().saturating_sub(1);
        if extra > 0 {
            write!(
                f,
                " (and {extra} more error{})",
                if extra == 1 { "" } else { "s" }
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for PipelineError {}

/// One compiled (analyzed + transformed) kernel.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Kernel as parsed.
    pub original: Kernel,
    /// Kernel with CATT's throttling code inserted (identical to
    /// `original` when nothing needed throttling).
    pub transformed: Kernel,
    /// `transformed`, lowered: what a launch runs and what the simulation
    /// cache key digests. Lowered once per kernel form by the passes.
    pub program: Program,
    /// Launch configuration the analysis assumed.
    pub launch: LaunchConfig,
    /// Full analysis record (Table 3 data).
    pub analysis: KernelAnalysis,
    /// Re-emitted CUDA source of the transformed kernel.
    pub emitted_source: String,
    /// Why the throttling transform was abandoned, when it was: the
    /// kernel fell back to its original code (`transformed == original`)
    /// and this records the typed diagnostic (`W001` transform fallback,
    /// `W002` injected fault). `None` on a clean compile.
    pub fallback_diagnostic: Option<Diagnostic>,
    /// Warnings from the compile — chiefly legality rejections (`W010`
    /// barrier, `W011` divergent guard, `W012` unresolvable footprint),
    /// each naming the offending loop's source span.
    pub warnings: Vec<Diagnostic>,
}

impl CompiledKernel {
    /// Whether CATT changed this kernel.
    pub fn is_transformed(&self) -> bool {
        self.original != self.transformed
    }

    /// Whether the transform failed and the original code is being used.
    pub fn is_fallback(&self) -> bool {
        self.fallback_diagnostic.is_some()
    }
}

/// A compiled application: all kernels of a translation unit.
#[derive(Debug, Clone)]
pub struct CompiledApp {
    pub kernels: Vec<CompiledKernel>,
}

impl CompiledApp {
    /// The transformed kernels, in order (convenience for runners).
    pub fn transformed_kernels(&self) -> Vec<Kernel> {
        self.kernels.iter().map(|k| k.transformed.clone()).collect()
    }
}

/// The CATT compiler pipeline, parameterized by the target GPU.
#[derive(Debug, Clone)]
pub struct Pipeline {
    base_config: GpuConfig,
    /// Armed fault injections (`fail-transform` forces the fallback path).
    fault: FaultPlan,
}

impl Pipeline {
    /// A pipeline targeting `config` (e.g. [`GpuConfig::titan_v`]), with
    /// no fault armed.
    pub fn new(base_config: GpuConfig) -> Pipeline {
        Pipeline {
            base_config,
            fault: FaultPlan::none(),
        }
    }

    /// Replace the fault plan (builder-style; the chaos harness and the
    /// fault-injection tests).
    pub fn with_fault_plan(mut self, fault: FaultPlan) -> Pipeline {
        self.fault = fault;
        self
    }

    /// The target configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.base_config
    }

    /// Run the `parse` pass alone: source text to IR module. Its
    /// diagnostics name the pass and are located against `src`.
    pub fn parse(&self, src: &str) -> Result<Module, PipelineError> {
        let mut diags: Vec<Diagnostic> = Vec::new();
        match contained("parse", &mut diags, |d| parse(src, d)) {
            Some(module) => Ok(module),
            None => {
                catt_diag::locate(&mut diags, src);
                Err(PipelineError::from_diags(diags))
            }
        }
    }

    /// Compile a whole translation unit. `launches` pairs each kernel name
    /// with the launch configuration the host uses (the compile-time-known
    /// launch parameters of §4.3): exactly one per kernel, and none for a
    /// name the unit does not define.
    pub fn compile_source(
        &self,
        src: &str,
        launches: &[(&str, LaunchConfig)],
    ) -> Result<CompiledApp, PipelineError> {
        let module = self.parse(src)?;
        let mut diags: Vec<Diagnostic> = Vec::new();
        for (i, &(name, _)) in launches.iter().enumerate() {
            let kernel = module.kernels.iter().find(|k| k.name == name);
            let diag = match kernel {
                None => {
                    let defined: Vec<String> = module
                        .kernels
                        .iter()
                        .map(|k| format!("`{}`", k.name))
                        .collect();
                    Diagnostic::error(
                        codes::KERNEL_NOT_FOUND,
                        format!("launch `{name}` names no kernel of the translation unit"),
                    )
                    .note(format!("kernels defined: {}", defined.join(", ")), None)
                }
                Some(k) if launches[..i].iter().any(|&(n, _)| n == name) => Diagnostic::error(
                    codes::DUPLICATE_LAUNCH,
                    format!("more than one launch configuration for kernel `{name}`"),
                )
                .with_span(k.spans.name),
                Some(_) => continue,
            };
            diags.push(diag);
            catt_diag::locate(&mut diags, src);
            return Err(PipelineError::from_diags(diags));
        }
        let mut kernels = Vec::new();
        for k in &module.kernels {
            let Some(launch) = launches.iter().find(|(n, _)| *n == k.name).map(|(_, l)| *l) else {
                diags.push(
                    Diagnostic::error(
                        codes::MISSING_LAUNCH,
                        format!("no launch configuration for kernel `{}`", k.name),
                    )
                    .with_span(k.spans.name),
                );
                catt_diag::locate(&mut diags, src);
                return Err(PipelineError::from_diags(diags));
            };
            match self.compile_kernel(k, launch) {
                Ok(mut compiled) => {
                    catt_diag::locate(&mut compiled.warnings, src);
                    if let Some(fb) = &mut compiled.fallback_diagnostic {
                        catt_diag::locate(std::slice::from_mut(fb), src);
                    }
                    kernels.push(compiled);
                }
                Err(mut e) => {
                    catt_diag::locate(&mut e.diagnostics, src);
                    return Err(e);
                }
            }
        }
        Ok(CompiledApp { kernels })
    }

    /// Compile one kernel: `analyze`, `legalize`, `transform` and `emit`,
    /// each under [`contained`].
    pub fn compile_kernel(
        &self,
        kernel: &Kernel,
        launch: LaunchConfig,
    ) -> Result<CompiledKernel, PipelineError> {
        let mut diags: Vec<Diagnostic> = Vec::new();
        let d = &mut diags;
        let stages = (|| {
            let analyzed = contained("analyze", d, |d| {
                analyze(kernel, launch, &self.base_config, d)
            })?;
            let plan = contained("legalize", d, |d| {
                Some(legalize(kernel, &analyzed.analysis, d))
            })?;
            let outcome = contained("transform", d, |_| {
                Some(transform(kernel, &analyzed, &plan, &self.fault))
            })?;
            let emitted = contained("emit", d, |_| {
                Some(printer::kernel_to_string(&outcome.kernel))
            })?;
            Some((analyzed, outcome, emitted))
        })();
        // An error diagnostic next to a finished compile means a stage
        // panicked mid-flight — fail loudly rather than ship a suspect
        // kernel.
        let Some((analyzed, outcome, emitted_source)) =
            stages.filter(|_| !diags.iter().any(|d| d.severity == Severity::Error))
        else {
            return Err(PipelineError::from_diags(diags));
        };
        Ok(CompiledKernel {
            original: kernel.clone(),
            transformed: outcome.kernel,
            program: outcome.program,
            launch,
            analysis: analyzed.analysis,
            emitted_source,
            fallback_diagnostic: outcome.fallback,
            warnings: diags,
        })
    }
}

/// Apply a *uniform* `(n, m)` throttling to a kernel — the BFTT baseline's
/// transform: the same warp factor on every eligible outermost loop and
/// one TB reduction, regardless of per-loop analysis. A TB throttle on a
/// kernel without a carve-out reconfigures to the largest one, as
/// `analyze` does (Fig. 5).
pub fn apply_uniform(
    kernel: &Kernel,
    n: u32,
    m: u32,
    warps_per_tb: u32,
    resident_tbs: u32,
    carveout_bytes: u32,
) -> Kernel {
    let mut plan = LegalPlan::default();
    if n > 1 {
        // The block shape is implied by `warps_per_tb`; it feeds the
        // block-uniformity proof for guards over the linear thread id.
        let block = (warps_per_tb * crate::analysis::WARP_SIZE, 1, 1);
        let loops = crate::transform::eligible_loops_for(kernel, block, None);
        plan.warp = loops.into_iter().map(|id| (id, n)).collect();
    }
    if m > 0 && m < resident_tbs {
        plan.tb = Some((resident_tbs - m, tb_throttle_carveout(carveout_bytes)));
    }
    apply_plan(kernel, warps_per_tb, &plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ATAX_SRC: &str = "
        #define NX 4096
        __global__ void atax1(float *A, float *B, float *tmp) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < NX) {
                for (int j = 0; j < NX; j++) {
                    tmp[i] += A[i * NX + j] * B[j];
                }
            }
        }
        __global__ void atax2(float *A, float *tmp, float *y) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            if (i < NX) {
                for (int j = 0; j < NX; j++) {
                    y[i] += A[j * NX + i] * tmp[j];
                }
            }
        }";

    #[test]
    fn compiles_atax_throttling_only_kernel1() {
        let pipe = Pipeline::new(GpuConfig::titan_v());
        let launch = LaunchConfig::d1(640, 256);
        let app = pipe
            .compile_source(ATAX_SRC, &[("atax1", launch), ("atax2", launch)])
            .unwrap();
        assert_eq!(app.kernels.len(), 2);
        let k1 = &app.kernels[0];
        let k2 = &app.kernels[1];
        assert!(k1.is_transformed(), "kernel 1 has the divergent loop");
        assert!(
            !k2.is_transformed(),
            "kernel 2 is coalesced and must be untouched (the CATT-vs-BFTT case)"
        );
        assert!(k1.emitted_source.contains("__syncthreads();"));
        // The emitted source re-parses.
        assert!(catt_frontend::parse_kernel(&k1.emitted_source).is_ok());
    }

    #[test]
    fn missing_launch_is_an_error() {
        let pipe = Pipeline::new(GpuConfig::titan_v());
        let err = pipe
            .compile_source(ATAX_SRC, &[("atax1", LaunchConfig::d1(640, 256))])
            .unwrap_err();
        assert!(err.message.contains("atax2"));
        let first = err.errors().next().expect("a typed diagnostic");
        assert_eq!(first.code, codes::MISSING_LAUNCH);
        assert!(first.span.is_some(), "points at the kernel name");
        assert!(first.line > 0, "line/col located against the source");
    }

    #[test]
    fn launch_of_an_undefined_kernel_is_an_error() {
        let pipe = Pipeline::new(GpuConfig::titan_v());
        let launch = LaunchConfig::d1(640, 256);
        let err = pipe
            .compile_source(
                ATAX_SRC,
                &[("atax1", launch), ("atax2", launch), ("atax3", launch)],
            )
            .unwrap_err();
        let first = err.errors().next().expect("a typed diagnostic");
        assert_eq!(first.code, codes::KERNEL_NOT_FOUND);
        assert!(first.message.contains("`atax3`"), "{}", first.message);
    }

    #[test]
    fn second_launch_of_a_kernel_is_an_error() {
        let pipe = Pipeline::new(GpuConfig::titan_v());
        let err = pipe
            .compile_source(
                ATAX_SRC,
                &[
                    ("atax1", LaunchConfig::d1(640, 256)),
                    ("atax2", LaunchConfig::d1(640, 256)),
                    ("atax1", LaunchConfig::d1(320, 512)),
                ],
            )
            .unwrap_err();
        let first = err.errors().next().expect("a typed diagnostic");
        assert_eq!(first.code, codes::DUPLICATE_LAUNCH);
        assert!(first.message.contains("`atax1`"), "{}", first.message);
        assert!(first.line > 0, "points at the kernel name");
    }

    #[test]
    fn parse_errors_carry_spanned_diagnostics() {
        let pipe = Pipeline::new(GpuConfig::titan_v());
        let err = pipe
            .compile_source(
                "__global__ void k(float *A) { A[0] = ; }",
                &[("k", LaunchConfig::d1(1, 64))],
            )
            .unwrap_err();
        assert!(!err.diagnostics.is_empty());
        for d in err.errors() {
            assert!(
                d.span.is_some(),
                "{}: parse errors carry spans",
                d.headline()
            );
        }
    }

    #[test]
    fn resubmitted_broken_source_reports_the_same_diagnostics() {
        let pipe = Pipeline::new(GpuConfig::titan_v());
        let bad = "__global__ void k(float *a, int n) { a[0] = @; }";
        let launches = [("k", LaunchConfig::d1(1, 64))];
        let e1 = pipe.compile_source(bad, &launches).unwrap_err();
        let e2 = pipe.compile_source(bad, &launches).unwrap_err();
        assert!(!e1.diagnostics.is_empty());
        assert_eq!(e1.diagnostics, e2.diagnostics);
    }

    /// A stage that always panics: [`contained`] must convert the unwind
    /// into an `E030` diagnostic naming the pass.
    #[test]
    fn escaped_panics_become_e030_diagnostics() {
        let mut diags = Vec::new();
        let out: Option<()> = contained("panicky", &mut diags, |_| {
            panic!("deliberate test panic");
        });
        assert!(out.is_none());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::PASS_PANICKED);
        assert_eq!(diags[0].pass, Some("panicky"));
        assert!(
            diags[0].message.contains("deliberate test panic"),
            "panic payload surfaced: {}",
            diags[0].message
        );
    }

    #[test]
    fn uniform_transform_throttles_every_eligible_loop() {
        let k = catt_frontend::parse_kernel(ATAX_SRC).unwrap();
        let t = apply_uniform(&k, 2, 0, 8, 8, 0);
        let src = printer::kernel_to_string(&t);
        assert_eq!(src.matches("__syncthreads();").count(), 2);
        // n=1, m=0 is the identity.
        let id = apply_uniform(&k, 1, 0, 8, 8, 0);
        assert_eq!(id, k);
    }

    #[test]
    fn uniform_tb_throttle_reconfigures_carveout() {
        let k = catt_frontend::parse_kernel(ATAX_SRC).unwrap();
        let t = apply_uniform(&k, 1, 6, 8, 8, 0);
        // 8-6=2 TBs on the reconfigured 96 KB carve-out → 48 KB dummy.
        assert_eq!(t.shared_mem_bytes(), 48 * 1024);
    }

    #[test]
    fn tb_decision_triggers_carveout_reconfiguration() {
        // Force TB throttling by shrinking the L1D cap so even one warp
        // group overflows at full TB count.
        let mut cfg = GpuConfig::titan_v();
        cfg.l1_cap_bytes = Some(8 * 1024); // 64 lines
        let pipe = Pipeline::new(cfg);
        let app = pipe
            .compile_source(
                ATAX_SRC,
                &[
                    ("atax1", LaunchConfig::d1(640, 256)),
                    ("atax2", LaunchConfig::d1(640, 256)),
                ],
            )
            .unwrap();
        let k1 = &app.kernels[0];
        let m = k1.analysis.tb_throttle_m();
        if m > 0 {
            assert!(k1.analysis.plan.smem_carveout_bytes > 0);
            assert!(k1.transformed.shared_mem_bytes() > 0);
        }
    }

    #[test]
    fn legality_rejections_surface_as_spanned_warnings() {
        // A barrier inside a contended loop: the analysis wants to warp-
        // throttle it, legality refuses, and the compile records a W010
        // naming the loop's span.
        let src = "
            #define NX 4096
            __global__ void k(float *A, float *tmp) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                for (int j = 0; j < NX; j++) {
                    tmp[i] += A[i * NX + j];
                    __syncthreads();
                }
            }";
        let pipe = Pipeline::new(GpuConfig::titan_v());
        let app = pipe
            .compile_source(src, &[("k", LaunchConfig::d1(640, 256))])
            .unwrap();
        let k = &app.kernels[0];
        if k.analysis
            .loops
            .iter()
            .any(|l| l.decision.n > 1 && l.has_barrier)
        {
            let w = k
                .warnings
                .iter()
                .find(|d| d.code == codes::LOOP_SKIPPED_BARRIER)
                .expect("barrier rejection reported");
            let span = w.span.expect("names the loop span");
            let text = &src[span.start as usize..span.end as usize];
            assert!(text.starts_with("for"), "span covers the loop: {text:?}");
            assert_eq!(w.pass, Some("legalize"), "tagged with its stage");
        }
    }

    #[test]
    fn lowering_errors_name_the_analyze_pass() {
        // Parses, but reads a variable it never declares: `analyze`
        // lowers the kernel to count registers and reports the failure.
        let src = "__global__ void k(float *A) { A[0] = x; }";
        let pipe = Pipeline::new(GpuConfig::titan_v());
        let err = pipe
            .compile_source(src, &[("k", LaunchConfig::d1(1, 64))])
            .unwrap_err();
        let first = err.errors().next().expect("a typed diagnostic");
        assert_eq!(first.code, codes::LOWERING_FAILED);
        assert_eq!(first.pass, Some("analyze"));
    }
}
