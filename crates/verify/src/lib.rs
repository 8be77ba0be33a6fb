//! # catt-verify — translation validation for the CATT transforms
//!
//! The throttling transforms (`warp_throttle`, paper Fig. 4;
//! `tb_throttle`, Fig. 5) are meant to be *semantics-preserving*: a
//! throttled kernel must compute exactly what the original computes, only
//! with fewer threads making progress concurrently. This crate checks
//! that claim mechanically, the way translation-validation tools check a
//! compiler pass:
//!
//! 1. **Generate** — [`generate`] derives deterministic random kernels in
//!    the CUDA subset the frontend accepts (affine global accesses,
//!    nested `for`/`while`, divergent `if` guards, `__shared__` staging
//!    with pre-existing barriers) from a [`catt_prng::Rng`] seed, and
//!    checks the printer/parser round-trip `parse(print(k)) == k` on
//!    every one.
//! 2. **Differential oracle** — [`oracle`] enumerates every transform
//!    variant the compiler could emit for the kernel (all
//!    `warp_throttle` loop/divisor combinations, all reachable
//!    `tb_throttle` targets, and their composition) and runs each
//!    against the original under [`catt_sim::Gpu::execute`] (functional
//!    execution: no timing) with the simulator sanitizer armed. Variants
//!    must produce bit-identical global memory and the identical
//!    [`catt_sim::SimError`] classification.
//! 3. **Shrink** — [`shrink`] minimizes any counterexample by statement
//!    deletion, control-structure hoisting, and loop-bound reduction
//!    until no single edit still reproduces the failure.
//! 4. **Corpus** — [`corpus`] persists counterexamples as replayable
//!    `.cu` files (`tests/corpus/` at the repository root) so every
//!    past miscompile becomes a regression test.
//!
//! Everything is seeded through `catt-prng` and free of wall-clock or
//! hash-order dependence: the same seed produces a byte-identical
//! [`FuzzReport`].
//!
//! A second campaign targets the *frontend* instead of the transforms:
//! [`frontfuzz`] (`catt fuzz --frontend`) mutates real kernel sources
//! (byte flips, truncation, token splices) and asserts the lexer/parser
//! contract on arbitrary input — no panics, every rejection carries an
//! error diagnostic, every span in bounds.
//!
//! The oracle can also run with the legality analysis *disabled*
//! ([`FuzzOptions::legality_checked`] = false, `catt fuzz --unchecked`),
//! enumerating every barrier-free loop the way the compiler did before
//! the block-uniformity prover existed. In that mode it rediscovers the
//! historical divergent-barrier miscompile (a throttled loop under a
//! thread-divergent guard emits `__syncthreads()` in divergent control
//! flow) and shrinks it to a handful of statements — the seed entry of
//! the regression corpus.

pub mod corpus;
pub mod frontfuzz;
pub mod generate;
pub mod oracle;
pub mod shrink;

pub use frontfuzz::{
    mutated_sources, run_frontend_fuzz, FrontFuzzOptions, FrontFuzzReport, FrontViolation,
};
pub use generate::{GenOptions, TestCase};
pub use oracle::{CaseOutcome, Recipe};

use catt_frontend::parse_kernel;
use catt_ir::printer::kernel_to_string;

/// Deterministic fill for fuzzing buffers. Word `i` of every buffer is
/// `fill_f32(i)` — shared between the fuzzer and corpus replay so a
/// counterexample file reproduces the exact launch that failed.
pub fn fill_f32(i: u32) -> f32 {
    ((i % 13) + 1) as f32 * 0.5
}

/// Knobs of one fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed; each case derives its own sub-seed from it.
    pub seed: u64,
    /// Number of kernels to generate and check.
    pub iters: u32,
    /// Minimize counterexamples before reporting them.
    pub shrink: bool,
    /// `true`: throttle only loops the legality analysis admits
    /// (`eligible_loops_for`) — the production configuration, expected to
    /// find nothing. `false`: throttle every barrier-free loop, legal or
    /// not, to exercise the oracle itself.
    pub legality_checked: bool,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            seed: 1,
            iters: 100,
            shrink: true,
            legality_checked: true,
        }
    }
}

/// What kind of disagreement a counterexample witnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// `parse(print(kernel))` differed from `kernel`.
    RoundTrip,
    /// Original and variant completed, with different global memory.
    ResultMismatch,
    /// Original and variant finished with different [`catt_sim::SimError`]
    /// classifications (including: variant flagged by the sanitizer while
    /// the original screened clean).
    Classification,
}

impl ViolationKind {
    /// Stable lowercase label used in reports and corpus files.
    pub fn label(&self) -> &'static str {
        match self {
            ViolationKind::RoundTrip => "round-trip",
            ViolationKind::ResultMismatch => "result-mismatch",
            ViolationKind::Classification => "classification",
        }
    }
}

/// A verified counterexample: a generated kernel plus the transform
/// recipe whose output disagrees with it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Per-case sub-seed (reproduce with `catt fuzz --seed <sub-seed>
    /// --iters 1` after deriving; recorded for the corpus file).
    pub case_seed: u64,
    pub kind: ViolationKind,
    /// The transform that produced the disagreement (`None` for
    /// round-trip failures, which involve no transform).
    pub recipe: Option<Recipe>,
    /// Classification of the original kernel's run (e.g. `"ok"`).
    pub baseline: String,
    /// Classification of the variant's run (e.g. `"sanitizer: barrier
    /// divergence"`), or a description of the mismatch.
    pub variant: String,
    /// The witnessing case — shrunk if shrinking was enabled.
    pub case: TestCase,
    /// IR statement count of `case.kernel` (after shrinking).
    pub stmt_count: usize,
}

/// Aggregated, deterministic result of [`run_fuzz`]: same options ⇒
/// byte-identical [`FuzzReport::render`] output.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    pub seed: u64,
    pub iters: u32,
    /// Kernels generated (== `iters`).
    pub cases: u32,
    /// Print/parse round-trips checked (every generated kernel).
    pub round_trips: u32,
    /// Originals the sanitizer screen flagged (differential comparison
    /// skipped: a kernel that is already undefined behaviour has no
    /// semantics to preserve).
    pub skipped_dirty: u32,
    /// Transform variants executed and compared.
    pub variants_checked: u32,
    pub violations: Vec<Violation>,
}

impl FuzzReport {
    /// Render the report as stable text (no timestamps, no hash order).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "catt-fuzz report (seed {}, {} iters)",
            self.seed, self.iters
        );
        let _ = writeln!(out, "  kernels generated ....... {}", self.cases);
        let _ = writeln!(out, "  round-trips checked ..... {}", self.round_trips);
        let _ = writeln!(out, "  dirty originals skipped . {}", self.skipped_dirty);
        let _ = writeln!(out, "  variants checked ........ {}", self.variants_checked);
        let _ = writeln!(out, "  violations .............. {}", self.violations.len());
        for (i, v) in self.violations.iter().enumerate() {
            let _ = writeln!(
                out,
                "  [{}] {} (case seed {:#018x}, {} stmts)",
                i + 1,
                v.kind.label(),
                v.case_seed,
                v.stmt_count
            );
            if let Some(r) = &v.recipe {
                let _ = writeln!(out, "      variant: {}", r.describe());
            }
            let _ = writeln!(
                out,
                "      original: {} | variant: {}",
                v.baseline, v.variant
            );
            for line in kernel_to_string(&v.case.kernel).lines() {
                let _ = writeln!(out, "      | {line}");
            }
        }
        out
    }
}

/// Run one fuzzing campaign. Pure apart from simulation: no filesystem
/// access (corpus I/O is the caller's job, see [`corpus`]).
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzReport {
    let mut report = FuzzReport {
        seed: opts.seed,
        iters: opts.iters,
        cases: 0,
        round_trips: 0,
        skipped_dirty: 0,
        variants_checked: 0,
        violations: Vec::new(),
    };
    let mut rng = catt_prng::Rng::seed(opts.seed);
    for _ in 0..opts.iters {
        let case_seed = rng.next_u64();
        let case = generate::generate_case(case_seed, &GenOptions::default());
        report.cases += 1;

        // Translation validation leg 1: the frontend round-trip.
        let printed = kernel_to_string(&case.kernel);
        let round_trip_ok = match parse_kernel(&printed) {
            Ok(reparsed) => reparsed == case.kernel,
            Err(_) => false,
        };
        report.round_trips += 1;
        if !round_trip_ok {
            report.violations.push(Violation {
                case_seed,
                kind: ViolationKind::RoundTrip,
                recipe: None,
                baseline: "parse(print(k)) == k".into(),
                variant: "round-trip mismatch".into(),
                stmt_count: shrink::stmt_count(&case.kernel.body),
                case,
            });
            continue;
        }

        // Leg 2: the differential transform oracle.
        match oracle::check_case(&case, opts.legality_checked) {
            CaseOutcome::DirtyOriginal { .. } => report.skipped_dirty += 1,
            CaseOutcome::Checked {
                variants,
                violations,
            } => {
                report.variants_checked += variants;
                // One witness per failure signature: a miscompiled case
                // typically fails under many recipes at once, and
                // shrinking (a full delta-debug run each) is the
                // expensive part.
                let mut seen: Vec<(ViolationKind, String, String)> = Vec::new();
                let violations: Vec<_> = violations
                    .into_iter()
                    .filter(|v| {
                        let sig = (v.kind, v.baseline.clone(), v.variant.clone());
                        if seen.contains(&sig) {
                            false
                        } else {
                            seen.push(sig);
                            true
                        }
                    })
                    .collect();
                for seed_v in violations {
                    let (shrunk, kind) = if opts.shrink {
                        shrink::shrink_case(&case, opts.legality_checked, &seed_v)
                    } else {
                        (case.clone(), seed_v.kind)
                    };
                    report.violations.push(Violation {
                        case_seed,
                        kind,
                        recipe: Some(seed_v.recipe.clone()),
                        baseline: seed_v.baseline.clone(),
                        variant: seed_v.variant.clone(),
                        stmt_count: shrink::stmt_count(&shrunk.kernel.body),
                        case: shrunk,
                    });
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_pattern_is_stable() {
        // Corpus files depend on this exact sequence; changing it
        // invalidates every recorded counterexample.
        let head: Vec<f32> = (0..5).map(fill_f32).collect();
        assert_eq!(head, vec![0.5, 1.0, 1.5, 2.0, 2.5]);
        assert_eq!(fill_f32(13), 0.5);
    }

    #[test]
    fn same_seed_same_report() {
        let opts = FuzzOptions {
            seed: 42,
            iters: 10,
            shrink: false,
            legality_checked: true,
        };
        let a = run_fuzz(&opts);
        let b = run_fuzz(&opts);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.cases, 10);
        assert_eq!(a.round_trips, 10);
    }

    #[test]
    fn legal_mode_is_clean_on_a_small_campaign() {
        let report = run_fuzz(&FuzzOptions {
            seed: 7,
            iters: 25,
            shrink: false,
            legality_checked: true,
        });
        assert!(
            report.violations.is_empty(),
            "legal transforms must preserve semantics:\n{}",
            report.render()
        );
        assert!(report.variants_checked > 0, "oracle never exercised");
    }
}
