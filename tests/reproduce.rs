//! The committed paper tables regenerate exactly: every `results/<id>.txt`
//! whose renderer runs in about a second goes through the comparison
//! `catt reproduce <id> --check` makes (byte for byte; `analysis_overhead`
//! without its host-time column). The slow figures (Figs. 2, 6, 7, 9, 10,
//! the granularity ablation, DYNCTA and the tuner) are checked by
//! `scripts/check.sh`'s `catt reproduce all --check`.

use catt_repro::reproduce::check;
use std::path::Path;

fn assert_reproduces(id: &str) {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    if let Err(e) = check(id, &results) {
        panic!("results/{id}.txt: {e} (regenerate with `catt reproduce {id}`)");
    }
}

macro_rules! reproduces {
    ($($id:ident),* $(,)?) => {
        $(
            #[test]
            fn $id() {
                assert_reproduces(stringify!($id));
            }
        )*
    };
}

reproduces!(
    table1,
    table2,
    table3,
    fig3,
    fig8,
    ablation_transforms,
    ablation_irregular,
    analysis_overhead,
);
