//! Golden of the frontend's observable output: for every input below, the
//! token stream (kind, text, line, col, span), `kernel_to_string` of each
//! kernel the recovering parser produced, and every diagnostic (code,
//! span, line, col, message, pass), exactly as `Pipeline::parse` reports
//! it. The lexer and parser may change how they work; none of this may
//! change.
//!
//! Inputs: every registry workload's source, `tests/corpus/*.cu`, each
//! kernel in `scripts/serve-smoke.jsonl` (its deep-nesting `E023`
//! request included), and 200 `catt fuzz --frontend` mutations at seed 1.
//!
//! `tests/golden/frontend.txt` holds one block per input: the input's
//! name and size, an FNV-1a digest of its token lines and of each printed
//! kernel, and its diagnostics in full. On a mismatch the fresh rendering
//! is written next to the test binaries (the path is in the failure
//! message); copy it over the golden only when the change is intended.

use catt_repro::core::pipeline::Pipeline;
use catt_repro::diag::json;
use catt_repro::frontend::{parse_module_recover, Lexer, TokenKind};
use catt_repro::ir::printer::kernel_to_string;
use catt_repro::sim::{Fnv64, GpuConfig};
use catt_repro::verify::{mutated_sources, FrontFuzzOptions};
use catt_repro::workloads::registry::all_workloads;
use std::fmt::Write;
use std::path::Path;

const GOLDEN: &str = "tests/golden/frontend.txt";

/// Every input, named.
fn inputs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = all_workloads()
        .iter()
        .map(|w| (format!("registry {}", w.abbrev), w.source.to_string()))
        .collect();
    let mut corpus: Vec<_> = std::fs::read_dir("tests/corpus")
        .expect("tests/corpus")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "cu"))
        .collect();
    corpus.sort();
    for path in corpus {
        let src = std::fs::read_to_string(&path).expect("corpus file");
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        out.push((format!("corpus {name}"), src));
    }
    let smoke = std::fs::read_to_string("scripts/serve-smoke.jsonl").expect("serve smoke batch");
    for line in smoke.lines() {
        let Ok(req) = json::parse(line) else { continue };
        if let (Some(id), Some(src)) = (
            req.get("id").and_then(|v| v.as_str()),
            req.get("kernel").and_then(|v| v.as_str()),
        ) {
            out.push((format!("smoke {id}"), src.to_string()));
        }
    }
    let seeds: Vec<String> = all_workloads()
        .iter()
        .map(|w| w.source.to_string())
        .collect();
    let opts = FrontFuzzOptions {
        seed: 1,
        iters: 200,
    };
    for (i, (case_seed, src)) in mutated_sources(&seeds, &opts).enumerate() {
        out.push((format!("fuzz #{i} case {case_seed:016x}"), src));
    }
    out
}

fn digest(text: &str) -> String {
    format!("{:016x}", Fnv64::new().write(text.as_bytes()).finish())
}

/// One input's block of the golden.
fn render(name: &str, src: &str, pipe: &Pipeline) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {name} ({} bytes)", src.len());

    let (tokens, _) = Lexer::tokenize_recover(src);
    let mut lines = String::new();
    for t in &tokens {
        let kind = match &t.kind {
            TokenKind::Ident(_) => "ident".to_string(),
            TokenKind::Int(v) => format!("int {v}"),
            TokenKind::Float(v) => format!("float {:016x}", v.to_bits()),
            TokenKind::Punct(p) => format!("punct {p}"),
            TokenKind::HashDefine => "define".to_string(),
            TokenKind::Eof => "eof".to_string(),
        };
        let text = src
            .as_bytes()
            .get(t.span.start as usize..t.span.end as usize)
            .map(String::from_utf8_lossy)
            .unwrap_or_default();
        let _ = writeln!(
            lines,
            "{}:{} {}..{} {kind} {text:?}",
            t.line, t.col, t.span.start, t.span.end
        );
    }
    let _ = writeln!(out, "tokens {} {}", tokens.len(), digest(&lines));

    for k in &parse_module_recover(src).module.kernels {
        let _ = writeln!(out, "kernel {} {}", k.name, digest(&kernel_to_string(k)));
    }
    if let Err(e) = pipe.parse(src) {
        for d in &e.diagnostics {
            let _ = writeln!(out, "diag {d:?}");
        }
    }
    out
}

#[test]
fn frontend_output_matches_the_golden() {
    let pipe = Pipeline::new(GpuConfig::titan_v_1sm());
    let fresh: String = inputs()
        .iter()
        .map(|(name, src)| render(name, src, &pipe))
        .collect();
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if fresh == golden {
        return;
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("frontend.txt");
    let _ = std::fs::write(&out, &fresh);
    let first = fresh
        .lines()
        .zip(golden.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| fresh.lines().count().min(golden.lines().count()));
    panic!(
        "frontend output drifted from {GOLDEN} at line {}:\n  golden: {:?}\n  fresh:  {:?}\n\
         fresh rendering written to {}",
        first + 1,
        golden.lines().nth(first).unwrap_or("<end>"),
        fresh.lines().nth(first).unwrap_or("<end>"),
        out.display()
    );
}
