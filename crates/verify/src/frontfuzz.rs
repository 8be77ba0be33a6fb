//! Frontend fuzz campaign (`catt fuzz --frontend`): mutational fuzzing
//! of the lexer/parser over printed registry kernels.
//!
//! Each iteration takes a real kernel source, applies a small stack of
//! mutations (byte flips, truncation, token splices, slice duplication,
//! deep nesting),
//! and feeds the result to [`catt_frontend::parse_module_recover`] under
//! `catch_unwind`. The frontend's contract on *arbitrary* input:
//!
//! 1. **No panics** — every input produces a `ParseOutcome`, never an
//!    unwind.
//! 2. **Errors explain themselves** — when the outcome is not clean, at
//!    least one error-severity diagnostic is present (and the strict
//!    [`catt_frontend::parse_module`] mirror returns `Err` carrying the
//!    same diagnostics).
//! 3. **Spans stay in bounds** — every diagnostic byte span lies within
//!    the mutated source.
//!
//! Everything derives from the master seed through `catt-prng`: the same
//! seed and seed-corpus produce a byte-identical report.

use catt_diag::Severity;
use catt_frontend::parse_module_recover;
use catt_frontend::parser::MAX_NESTING;
use catt_prng::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Knobs of one frontend campaign.
#[derive(Debug, Clone)]
pub struct FrontFuzzOptions {
    /// Master seed; each case derives its own sub-seed.
    pub seed: u64,
    /// Number of mutated sources to check.
    pub iters: u32,
}

impl Default for FrontFuzzOptions {
    fn default() -> FrontFuzzOptions {
        FrontFuzzOptions {
            seed: 1,
            iters: 300,
        }
    }
}

/// One frontend contract violation.
#[derive(Debug, Clone)]
pub struct FrontViolation {
    pub case_seed: u64,
    /// `"panic"`, `"missing-diagnostic"`, or `"span-out-of-bounds"`.
    pub kind: &'static str,
    pub detail: String,
    /// The mutated source that witnessed the violation.
    pub source: String,
}

/// Deterministic result of [`run_frontend_fuzz`].
#[derive(Debug, Clone)]
pub struct FrontFuzzReport {
    pub seed: u64,
    pub iters: u32,
    pub cases: u32,
    /// Mutated sources the recovering parser still accepted cleanly.
    pub parsed_clean: u32,
    /// Mutated sources rejected (with diagnostics, when the contract holds).
    pub rejected: u32,
    /// Total diagnostics observed across the campaign.
    pub diagnostics_seen: u64,
    pub violations: Vec<FrontViolation>,
}

impl FrontFuzzReport {
    /// Render as stable text (mirrors `FuzzReport::render`'s shape).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "catt-fuzz frontend report (seed {}, {} iters)",
            self.seed, self.iters
        );
        let _ = writeln!(out, "  sources mutated ......... {}", self.cases);
        let _ = writeln!(out, "  parsed clean ............ {}", self.parsed_clean);
        let _ = writeln!(out, "  rejected with errors .... {}", self.rejected);
        let _ = writeln!(out, "  diagnostics seen ........ {}", self.diagnostics_seen);
        let _ = writeln!(out, "  violations .............. {}", self.violations.len());
        for (i, v) in self.violations.iter().enumerate() {
            let _ = writeln!(
                out,
                "  [{}] {} (case seed {:#018x}): {}",
                i + 1,
                v.kind,
                v.case_seed,
                v.detail
            );
            for line in v.source.lines().take(12) {
                let _ = writeln!(out, "      | {line}");
            }
        }
        out
    }
}

/// Token pool for splice mutations: frontend keywords, punctuation that
/// changes nesting, and lexer edge cases (huge literals, half-open
/// comments, stray directives).
const SPLICE_TOKENS: &[&str] = &[
    "for",
    "while",
    "if",
    "else",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    "++",
    "--",
    "+=",
    "__syncthreads();",
    "__shared__",
    "__global__",
    "#define",
    "/*",
    "*/",
    "//",
    "?",
    ":",
    "@",
    "$",
    "0x",
    "1e",
    "1e999",
    "99999999999999999999",
    ".5f",
    "threadIdx.x",
    "threadIdx.q",
    "u",
    "\u{fffd}",
];

/// Opener and closer of each construct the parser's nesting limit
/// counts: parentheses, unary chains, casts, index, calls, ternaries,
/// operator chains and statement bodies.
const NESTERS: &[(&str, &str)] = &[
    ("(", ")"),
    ("- ", ""),
    ("!", ""),
    ("(float)", ""),
    ("a[", "]"),
    ("sqrtf(", ")"),
    ("i ? x : ", ""),
    ("x + ", ""),
    ("if (i) { ", " }"),
];

/// Apply one PRNG-chosen mutation to `bytes`.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Rng) {
    if bytes.is_empty() {
        bytes.extend_from_slice(b"{");
        return;
    }
    match rng.bounded_u64(5) {
        // Byte flip: any byte value, including invalid UTF-8 lead bytes.
        0 => {
            let at = rng.bounded_u64(bytes.len() as u64) as usize;
            bytes[at] = rng.bounded_u64(256) as u8;
        }
        // Truncation.
        1 => {
            let at = rng.bounded_u64(bytes.len() as u64) as usize;
            bytes.truncate(at);
        }
        // Token splice.
        2 => {
            let tok = SPLICE_TOKENS[rng.bounded_u64(SPLICE_TOKENS.len() as u64) as usize];
            let at = rng.bounded_u64(bytes.len() as u64 + 1) as usize;
            let mut out = Vec::with_capacity(bytes.len() + tok.len());
            out.extend_from_slice(&bytes[..at]);
            out.extend_from_slice(tok.as_bytes());
            out.extend_from_slice(&bytes[at..]);
            *bytes = out;
        }
        // Duplicate a slice (grows nesting depth, repeats constructs).
        3 => {
            let a = rng.bounded_u64(bytes.len() as u64) as usize;
            let b = rng.bounded_u64(bytes.len() as u64) as usize;
            let (lo, hi) = (a.min(b), a.max(b).min(a.min(b) + 256));
            let slice = bytes[lo..hi].to_vec();
            let at = rng.bounded_u64(bytes.len() as u64 + 1) as usize;
            let mut out = Vec::with_capacity(bytes.len() + slice.len());
            out.extend_from_slice(&bytes[..at]);
            out.extend_from_slice(&slice);
            out.extend_from_slice(&bytes[at..]);
            *bytes = out;
        }
        _ => {
            let at = rng.bounded_u64(bytes.len() as u64 + 1) as usize;
            nest_deep(bytes, at, rng);
        }
    }
}

/// Insert one construct nested from well inside the parser's limit to
/// far past it at byte `at`.
fn nest_deep(bytes: &mut Vec<u8>, at: usize, rng: &mut Rng) {
    let (open, close) = NESTERS[rng.bounded_u64(NESTERS.len() as u64) as usize];
    let depth = rng.range_u32(MAX_NESTING / 4, 3 * MAX_NESTING) as usize;
    let nest = format!("{}x{}", open.repeat(depth), close.repeat(depth));
    bytes.splice(at..at, nest.into_bytes());
}

/// The campaign's inputs: `(case seed, mutated source)` for each of
/// `opts.iters` cases, derived from `opts.seed` alone. `seeds` are the
/// kernel sources to mutate (a fixed one-line kernel when empty).
pub fn mutated_sources<'s>(
    seeds: &'s [String],
    opts: &FrontFuzzOptions,
) -> impl Iterator<Item = (u64, String)> + 's {
    const FALLBACK: &str = "__global__ void k(float *a, int n) { a[0] = 1.0f; }";
    let mut rng = Rng::seed(opts.seed);
    (0..opts.iters).map(move |_| {
        let case_seed = rng.next_u64();
        let mut case_rng = Rng::seed(case_seed);
        let base = if seeds.is_empty() {
            FALLBACK
        } else {
            &seeds[case_rng.bounded_u64(seeds.len() as u64) as usize]
        };
        let mut bytes = base.as_bytes().to_vec();
        for _ in 0..case_rng.range_u32(1, 4) {
            mutate(&mut bytes, &mut case_rng);
        }
        // The frontend consumes `&str`; lossy conversion models what any
        // caller feeding it file contents would do. Replacement chars are
        // themselves a lexer edge case (multi-byte unexpected character).
        (case_seed, String::from_utf8_lossy(&bytes).into_owned())
    })
}

/// Run a frontend fuzz campaign over `seeds` (kernel sources — typically
/// the printed registry workloads). Pure: no filesystem access, no
/// wall-clock dependence.
pub fn run_frontend_fuzz(seeds: &[String], opts: &FrontFuzzOptions) -> FrontFuzzReport {
    let mut report = FrontFuzzReport {
        seed: opts.seed,
        iters: opts.iters,
        cases: 0,
        parsed_clean: 0,
        rejected: 0,
        diagnostics_seen: 0,
        violations: Vec::new(),
    };
    for (case_seed, src) in mutated_sources(seeds, opts) {
        report.cases += 1;

        let outcome = catch_unwind(AssertUnwindSafe(|| parse_module_recover(&src)));
        let outcome = match outcome {
            Ok(o) => o,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                report.violations.push(FrontViolation {
                    case_seed,
                    kind: "panic",
                    detail: msg,
                    source: src,
                });
                continue;
            }
        };
        report.diagnostics_seen += outcome.diagnostics.len() as u64;

        // Invariant 3: every span in bounds.
        let mut oob = None;
        for d in &outcome.diagnostics {
            if let Some(span) = d.span {
                if !span.in_bounds(src.len()) {
                    oob = Some(format!(
                        "[{}] span {}..{} outside {}-byte source",
                        d.code,
                        span.start,
                        span.end,
                        src.len()
                    ));
                    break;
                }
            }
            for n in &d.notes {
                if let Some(span) = n.span {
                    if !span.in_bounds(src.len()) {
                        oob = Some(format!(
                            "note span {}..{} outside {}-byte source",
                            span.start,
                            span.end,
                            src.len()
                        ));
                        break;
                    }
                }
            }
        }
        if let Some(detail) = oob {
            report.violations.push(FrontViolation {
                case_seed,
                kind: "span-out-of-bounds",
                detail,
                source: src,
            });
            continue;
        }

        if outcome.is_clean() {
            report.parsed_clean += 1;
        } else {
            report.rejected += 1;
            // Invariant 2: a rejection must carry an error diagnostic.
            if !outcome
                .diagnostics
                .iter()
                .any(|d| d.severity == Severity::Error)
            {
                report.violations.push(FrontViolation {
                    case_seed,
                    kind: "missing-diagnostic",
                    detail: format!(
                        "outcome not clean but no error among {} diagnostics",
                        outcome.diagnostics.len()
                    ),
                    source: src,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds() -> Vec<String> {
        vec![
            "#define NX 512\n__global__ void atax1(float *A, float *B, float *tmp) {\n\
             int i = blockIdx.x * blockDim.x + threadIdx.x;\n\
             if (i < NX) { for (int j = 0; j < NX; j++) { tmp[i] += A[i * NX + j] * B[j]; } }\n}"
                .to_string(),
            "__global__ void s(float *a, int n) {\n\
             __shared__ float buf[64];\n\
             buf[threadIdx.x] = a[threadIdx.x];\n\
             __syncthreads();\n\
             a[threadIdx.x] = buf[63 - threadIdx.x];\n}"
                .to_string(),
        ]
    }

    #[test]
    fn same_seed_same_report() {
        let opts = FrontFuzzOptions { seed: 9, iters: 40 };
        let a = run_frontend_fuzz(&seeds(), &opts);
        let b = run_frontend_fuzz(&seeds(), &opts);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.cases, 40);
    }

    #[test]
    fn campaign_is_clean_and_exercises_both_paths() {
        let report = run_frontend_fuzz(
            &seeds(),
            &FrontFuzzOptions {
                seed: 0xF00D,
                iters: 300,
            },
        );
        assert!(
            report.violations.is_empty(),
            "frontend contract violated:\n{}",
            report.render()
        );
        assert!(report.rejected > 0, "mutations never produced a reject");
        assert!(report.diagnostics_seen > 0, "no diagnostics observed");
    }

    #[test]
    fn deep_nesting_mutations_land_on_both_sides_of_the_limit() {
        let (mut refused, mut accepted) = (0, 0);
        let mut rng = Rng::seed(5);
        let seed = "__global__ void k(float *a, int i, float x) {\n    a[i] = ;\n}";
        // Nest where `a[i] = ` expects an expression.
        let at = seed.find(" ;").unwrap() + 1;
        for _ in 0..400 {
            let mut bytes = seed.as_bytes().to_vec();
            nest_deep(&mut bytes, at, &mut rng);
            let src = String::from_utf8(bytes).unwrap();
            let outcome = parse_module_recover(&src);
            if outcome
                .diagnostics
                .iter()
                .any(|d| d.code == catt_diag::codes::NESTING_TOO_DEEP)
            {
                refused += 1;
            } else if outcome.is_clean() {
                accepted += 1;
            }
        }
        assert!(
            refused > 0 && accepted > 0,
            "{refused} refused, {accepted} clean"
        );
    }

    #[test]
    fn empty_seed_corpus_falls_back() {
        let report = run_frontend_fuzz(&[], &FrontFuzzOptions { seed: 3, iters: 25 });
        assert_eq!(report.cases, 25);
        assert!(report.violations.is_empty(), "{}", report.render());
    }
}
