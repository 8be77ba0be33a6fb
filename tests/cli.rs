//! Smoke tests for the `catt` command-line tool.

use std::process::Command;

fn catt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_catt"))
}

fn demo_file() -> tempfile_path::TempPath {
    tempfile_path::write(
        "#define N 512
         __global__ void walk(float *A, float *tmp) {
             int i = blockIdx.x * blockDim.x + threadIdx.x;
             if (i < N) {
                 for (int j = 0; j < 64; j++) {
                     tmp[i] += A[i * 64 + j];
                 }
             }
         }",
    )
}

/// Minimal temp-file helper (no external crates).
mod tempfile_path {
    use std::path::PathBuf;

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    pub fn write(contents: &str) -> TempPath {
        let p = std::env::temp_dir().join(format!(
            "catt_cli_test_{}_{:?}.cu",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&p, contents).unwrap();
        TempPath(p)
    }
}

#[test]
fn analyze_reports_decision() {
    let f = demo_file();
    let out = catt()
        .args([
            "analyze",
            f.0.to_str().unwrap(),
            "--launch",
            "walk=2x256",
            "--l1",
            "32",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("kernel `walk`"), "{stdout}");
    assert!(stdout.contains("contended=true"), "{stdout}");
}

#[test]
fn compile_emits_parsable_source() {
    let f = demo_file();
    let out_file = std::env::temp_dir().join(format!("catt_cli_out_{}.cu", std::process::id()));
    let out = catt()
        .args([
            "compile",
            f.0.to_str().unwrap(),
            "--launch",
            "walk=2x256",
            "--l1",
            "32",
            "-o",
            out_file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let emitted = std::fs::read_to_string(&out_file).unwrap();
    let _ = std::fs::remove_file(&out_file);
    assert!(emitted.contains("__syncthreads();"), "{emitted}");
    catt_frontend::parse_module(&emitted).expect("emitted source parses");
}

/// `catt run`'s stdout is pinned byte for byte: its `--args` go through
/// the serve crate's spec parser and fill patterns.
#[test]
fn run_reports_speedup() {
    let f = demo_file();
    let out = catt()
        .args([
            "run",
            f.0.to_str().unwrap(),
            "--launch",
            "walk=2x256",
            "--l1",
            "32",
            "--args",
            "f:32768,f:512",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout,
        "kernel `walk`: baseline TLP (8, 2), L1D 32 KB, smem carve-out 0 KB, 20 regs/thread\n\
         \x20 loop  1:   544 lines/round x TLP, contended=true resolved=true -> N=4 M=0 TLP (2, 2)\n\
         kernel 1 `walk`: baseline 278667 cycles (0.0% L1D hits) | CATT 50046 cycles (96.5% hits) | speedup 5.57x\n"
    );
}

#[test]
fn profile_emits_reports_and_valid_trace() {
    let trace = std::env::temp_dir().join(format!("catt_cli_trace_{}.json", std::process::id()));
    let out = catt()
        .args(["profile", "ATAX", "--trace-out", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stall breakdown"), "{stdout}");
    assert!(stdout.contains("memory"), "{stdout}");
    assert!(stdout.contains("L1D heat map"), "{stdout}");
    assert!(stdout.contains("pred lines"), "{stdout}");
    let json = std::fs::read_to_string(&trace).unwrap();
    let _ = std::fs::remove_file(&trace);
    catt_diag::json::parse(&json).expect("trace is valid JSON");
    assert!(json.contains("\"traceEvents\""), "trace envelope present");
}

/// `CATT_DIAG_FORMAT=json` prints one JSON array of diagnostics, and that
/// array is the `diagnostics` field `catt serve` sends for the same
/// source: one wire form for a diagnostic, and one compile path — both
/// parse through the pipeline's `parse` pass, so the arrays are equal,
/// `"pass":"parse"` included.
#[test]
fn diag_format_json_matches_the_serve_wire_form() {
    use catt_diag::json::{self, Json};
    use std::io::Write;
    use std::process::Stdio;
    let src = "__global__ void k(float *a, int n) {\n    int i = threadIdx.x;\n    if (i < n) { a[i] = a[i] * ; }\n    @ \"q\\t\"\n}\n";
    let f = tempfile_path::write(src);
    let out = catt()
        .args(["analyze", f.0.to_str().unwrap(), "--launch", "k=1x32"])
        .env("CATT_DIAG_FORMAT", "json")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    let first = stderr.lines().next().unwrap_or_default();
    let cli = json::parse(first).unwrap_or_else(|e| panic!("{e}: {stderr}"));
    let Json::Arr(diags) = &cli else {
        panic!("not an array: {stderr}")
    };
    assert!(diags.len() >= 2, "{stderr}");
    assert!(
        diags
            .iter()
            .all(|d| d.get("pass").and_then(Json::as_str) == Some("parse")),
        "{stderr}"
    );
    let request = json::obj(vec![
        ("id", Json::Str("broken".into())),
        ("kernel", Json::Str(src.into())),
        ("grid", Json::Num(1.0)),
        ("block", Json::Num(32.0)),
    ]);
    let mut child = catt()
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    writeln!(child.stdin.take().unwrap(), "{}", request.render()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let reply = json::parse(stdout.trim()).unwrap_or_else(|e| panic!("{e}: {stdout}"));
    assert_eq!(
        reply.get("kind").and_then(Json::as_str),
        Some("compile-error"),
        "{stdout}"
    );
    let served = reply
        .get("diagnostics")
        .expect("compile-error carries diagnostics");
    assert_eq!(served, &cli, "{stdout}");
}

#[test]
fn profile_rejects_unknown_workload() {
    let out = catt().args(["profile", "NOPE"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = catt().args(["analyze"]).output().unwrap();
    assert!(!out.status.success());
    let out = catt()
        .args(["frobnicate", "x.cu", "--launch", "k=1x32"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// Every numeric flag is parsed strictly: a malformed value, `--l1` KB
/// that overflow a byte count, or an `--l1` of 0 KB (an L1D without a
/// set) is a usage error (exit 2) naming the flag, not a silently
/// different configuration. `catt tune` has no `--seed` or `--iters`:
/// either is an unknown option, also exit 2.
#[test]
fn malformed_numeric_flags_are_usage_errors() {
    let f = demo_file();
    let file = f.0.to_str().unwrap();
    let cases: &[(&[&str], &str)] = &[
        (&["tune", "DM", "--l1", "abc"], "catt tune: bad --l1 value"),
        (
            &["tune", "DM", "--seed", "7"],
            "catt tune: unknown option `--seed`",
        ),
        (
            &["tune", "DM", "--iters", "3"],
            "catt tune: unknown option `--iters`",
        ),
        (
            &["profile", "DM", "--l1", "32k"],
            "catt profile: bad --l1 value",
        ),
        (&["fuzz", "--seed", "1.5"], "catt fuzz: bad --seed value"),
        (&["fuzz", "--iters", "many"], "catt fuzz: bad --iters value"),
        (
            &["analyze", file, "--launch", "walk=2x256", "--l1", "4194304"],
            "catt analyze: bad --l1 value",
        ),
        (
            &["compile", file, "--launch", "walk=2x256", "--l1", ""],
            "catt compile: bad --l1 value",
        ),
        (
            &["run", file, "--launch", "walk=2x256", "--fuel", "x"],
            "catt run: bad --fuel value",
        ),
        (
            &["tune", "DC", "--l1", "0"],
            "catt tune: bad --l1 value `0`",
        ),
        (
            &["profile", "DC", "--l1", "0"],
            "catt profile: bad --l1 value `0`",
        ),
        (
            &["run", file, "--launch", "walk=2x256", "--l1", "0"],
            "catt run: bad --l1 value `0`",
        ),
    ];
    for (args, message) in cases {
        let out = catt().args(*args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

/// A `--launch` no device runs — an empty grid or block, or more than
/// 1 024 threads per block — is rejected as `catt serve` rejects it.
#[test]
fn unrunnable_launch_specs_are_rejected() {
    let f = demo_file();
    let file = f.0.to_str().unwrap();
    for spec in [
        "walk=1x0",
        "walk=0x32",
        "walk=1x2000",
        "walk=1,0x32",
        "walk=2x64,32",
    ] {
        let out = catt()
            .args(["analyze", file, "--launch", spec])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{spec}: {stderr}");
        assert!(stderr.contains("bad --launch spec"), "{spec}: {stderr}");
    }
    let out = catt()
        .args(["analyze", file, "--launch", "walk=1x1024"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A `--launch` naming no kernel of the file, or a second `--launch` for
/// one kernel, fails the compile (exit 1) with a rendered diagnostic
/// instead of being dropped.
#[test]
fn launches_must_match_the_kernels_one_to_one() {
    let f = tempfile_path::write(
        "__global__ void k(float *a) {\n    a[blockIdx.x * blockDim.x + threadIdx.x] = 1.0f;\n}\n",
    );
    let file = f.0.to_str().unwrap();
    let cases: &[(&[&str], &[&str])] = &[
        (
            &["--launch", "k=1x256", "--launch", "nope=1x32"],
            &[
                "error[E016]: launch `nope` names no kernel of the translation unit",
                "= note: kernels defined: `k`",
            ],
        ),
        (
            &["--launch", "k=1x256", "--launch", "k=4x64"],
            &[
                "error[E024]: more than one launch configuration for kernel `k`",
                &format!("--> {file}:1:17"),
            ],
        ),
    ];
    for (launches, rendered) in cases {
        let out = catt()
            .arg("analyze")
            .arg(file)
            .args(*launches)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{launches:?}: {stderr}");
        for line in *rendered {
            assert!(stderr.contains(line), "{launches:?}: {stderr}");
        }
        assert!(out.stdout.is_empty(), "{launches:?}: analyzed anyway");
    }
}

/// `catt reproduce <id> --check` reads `results/` under the working
/// directory and writes nothing; an unknown id is a usage error that
/// names what is accepted.
#[test]
fn reproduce_checks_a_committed_table() {
    let repo = env!("CARGO_MANIFEST_DIR");
    let out = catt()
        .args(["reproduce", "table1", "--check"])
        .current_dir(repo)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("ok") && stdout.contains("results/table1.txt"),
        "{stdout}"
    );

    let out = catt().args(["reproduce", "fig1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("fig7"));
}

#[test]
fn fuzz_small_campaign_is_deterministic_and_clean() {
    let run = || {
        catt()
            .args(["fuzz", "--seed", "1", "--iters", "30"])
            .output()
            .unwrap()
    };
    let a = run();
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let b = run();
    assert_eq!(
        a.stdout, b.stdout,
        "same seed must give a byte-identical report"
    );
    let stdout = String::from_utf8_lossy(&a.stdout);
    assert!(stdout.contains("violations .............. 0"), "{stdout}");
    assert!(stdout.contains("kernels generated ....... 30"), "{stdout}");
}

#[test]
fn fuzz_replays_the_regression_corpus() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let out = catt()
        .args([
            "fuzz",
            "--seed",
            "2",
            "--iters",
            "5",
            "--corpus",
            corpus.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("corpus replay:"), "{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn fuzz_unchecked_fails_and_persists_counterexamples() {
    let dir = std::env::temp_dir().join(format!(
        "catt_cli_fuzz_corpus_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let out = catt()
        .args([
            "fuzz",
            "--seed",
            "1",
            "--iters",
            "16",
            "--unchecked",
            "--shrink",
            "--corpus",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "an unchecked campaign over these seeds must find the miscompile"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("new counterexample written"), "{stderr}");
    let wrote_cex = std::fs::read_dir(&dir)
        .unwrap()
        .any(|e| e.unwrap().file_name().to_string_lossy().starts_with("cex-"));
    assert!(wrote_cex, "no cex-*.cu file persisted in {}", dir.display());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_rejects_unknown_options() {
    let out = catt().args(["fuzz", "--frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}

/// `CATT_FAULT_PLAN` reaches the daemon through the binary: under
/// `fuel=1` the one submit of a one-line batch is still answered — with
/// the typed fuel-exhaustion fault the plan injects — and stdin EOF
/// drains the server to a clean exit.
#[test]
fn serve_stdio_answers_a_batch_under_an_env_fault_plan() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = catt()
        .args(["serve", "--stdio"])
        .env("CATT_FAULT_PLAN", "delay-job=1,fuel=1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let line = r#"{"id":"one","tenant":"cli","kernel":"__global__ void k(float *a, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) { a[i] = a[i] * 2.0f; } }","grid":2,"block":32,"args":"f:64,si:64"}"#;
    writeln!(child.stdin.take().unwrap(), "{line}").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let replies: Vec<&str> = stdout.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(replies.len(), 1, "{stdout}");
    assert!(
        replies[0].contains(r#""id":"one""#) && replies[0].contains("fuel-exhausted"),
        "{stdout}"
    );
}
