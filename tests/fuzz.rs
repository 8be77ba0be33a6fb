//! End-to-end tests of the `catt-verify` translation-validation
//! subsystem: the regression corpus replays clean, fuzzing is
//! deterministic, legal-mode campaigns find nothing, and the
//! legality-unchecked mode rediscovers and shrinks the historical
//! divergent-barrier miscompile.

use catt_repro::verify::{corpus, oracle, run_fuzz, FuzzOptions, Recipe, ViolationKind};
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn regression_corpus_replays_clean() {
    let entries = corpus::read_dir_sorted(&corpus_dir()).unwrap();
    assert!(
        !entries.is_empty(),
        "tests/corpus must contain at least the seeded divergent-barrier entry"
    );
    for (path, entry) in &entries {
        let variants = corpus::replay(entry).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            variants > 0,
            "{}: replay exercised no variants",
            path.display()
        );
    }
}

#[test]
fn seeded_entry_is_still_a_live_counterexample_for_the_blind_transform() {
    let entries = corpus::read_dir_sorted(&corpus_dir()).unwrap();
    let (_, entry) = entries
        .iter()
        .find(|(p, _)| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains("divergent-barrier"))
        })
        .expect("seeded divergent-barrier entry missing");
    assert_eq!(
        entry.recipe,
        Some(Recipe::WarpThrottle { loop_id: 0, n: 2 }),
        "recorded recipe changed"
    );
    assert!(entry.note.contains("barrier divergence"), "{}", entry.note);

    // The original is clean...
    let (base, _) = oracle::run_case(&entry.case.kernel, &entry.case);
    assert_eq!(base, "ok");
    // ...the legality prover rejects the loop (so the legal oracle never
    // builds this variant; that is what `replay` checks)...
    let recipes = oracle::variant_recipes(&entry.case.kernel, &entry.case, true);
    assert!(
        !recipes.contains(entry.recipe.as_ref().unwrap()),
        "legality prover admitted the divergent loop again: {recipes:?}"
    );
    // ...but applying the recorded recipe blindly still trips the
    // sanitizer: the entry documents a real, still-detectable hazard.
    let warps = entry.case.launch.warps_per_block();
    let grid = (
        entry.case.launch.grid.x,
        entry.case.launch.grid.y,
        entry.case.launch.grid.z,
    );
    let bad = oracle::apply_recipe(
        &entry.case.kernel,
        entry.recipe.as_ref().unwrap(),
        warps,
        grid,
    )
    .expect("blind application must succeed");
    let (class, _) = oracle::run_case(&bad, &entry.case);
    assert_eq!(class, "sanitizer: barrier divergence");
}

#[test]
fn fuzz_report_is_deterministic() {
    let opts = FuzzOptions {
        seed: 9,
        iters: 15,
        shrink: false,
        legality_checked: true,
    };
    assert_eq!(run_fuzz(&opts).render(), run_fuzz(&opts).render());
}

#[test]
fn unchecked_fuzzing_rediscovers_and_shrinks_the_miscompile() {
    // Legal mode over these seeds: nothing.
    let legal = run_fuzz(&FuzzOptions {
        seed: 1,
        iters: 16,
        shrink: false,
        legality_checked: true,
    });
    assert!(
        legal.violations.is_empty(),
        "legal transforms regressed:\n{}",
        legal.render()
    );

    // Same seeds with the legality analysis disabled: the fuzzer must
    // find the divergent-barrier miscompile on its own and shrink it to
    // a handful of statements, independently classified by the
    // sanitizer as barrier divergence.
    let report = run_fuzz(&FuzzOptions {
        seed: 1,
        iters: 16,
        shrink: true,
        legality_checked: false,
    });
    let v = report
        .violations
        .iter()
        .find(|v| v.variant == "sanitizer: barrier divergence")
        .unwrap_or_else(|| panic!("miscompile not rediscovered:\n{}", report.render()));
    assert_eq!(v.kind, ViolationKind::Classification);
    assert_eq!(v.baseline, "ok");
    assert!(
        v.stmt_count <= 10,
        "shrinker left {} statements:\n{}",
        v.stmt_count,
        report.render()
    );
    assert!(
        matches!(
            v.recipe,
            Some(Recipe::WarpThrottle { .. })
                | Some(Recipe::Composed { .. })
                | Some(Recipe::SwizzledWarp { .. })
        ),
        "unexpected recipe: {:?}",
        v.recipe
    );
}

/// `catt fuzz --seed 1 --iters 200` and the same `--unchecked`, as printed
/// by the commit before the oracle moved to functional execution and the
/// sanitizer to the paged shadow: verdict for verdict, byte for byte.
#[test]
fn reports_match_the_goldens_recorded_on_the_timed_oracle() {
    for (legality_checked, golden) in [
        (true, include_str!("golden/fuzz-seed1-iters200.txt")),
        (
            false,
            include_str!("golden/fuzz-unchecked-seed1-iters200.txt"),
        ),
    ] {
        let report = run_fuzz(&FuzzOptions {
            seed: 1,
            iters: 200,
            shrink: false,
            legality_checked,
        });
        assert_eq!(
            report.render(),
            golden,
            "legality_checked = {legality_checked}"
        );
    }
}
