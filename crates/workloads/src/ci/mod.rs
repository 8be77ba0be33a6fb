//! Cache-insensitive applications (paper Table 2, CI group).
//!
//! Table 2's garbled "DC" row is interpreted as the Polybench `doitgen`
//! kernel (multi-resolution analysis); see `dc.rs`. The complex Rodinia
//! applications (heart wall, myocyte, huffman, lavaMD) are ported as
//! representative kernels that preserve their memory-access character —
//! see DESIGN.md "Substitutions".

pub mod bp;
pub mod bt;
pub mod dc;
pub mod gemm;
pub mod gram;
pub mod hm;
pub mod hp;
pub mod hw;
pub mod lud;
pub mod lvmd;
pub mod mc;
pub mod mm2;
pub mod mm3;
pub mod syrk;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::harness;
    use crate::registry::Workload;

    /// The CI-group invariant (paper §5.1.1 / Fig. 8): CATT's analysis
    /// must conclude that no throttling is needed at the maximum L1D, so
    /// the transformed kernels are byte-identical to the originals — and
    /// the run must still validate.
    pub fn assert_untouched_and_valid(w: &Workload) {
        let cfg = harness::eval_config_max_l1d();
        let (out, app) = harness::run_catt(w, &cfg).expect("policy run succeeds");
        assert!(out.cycles > 0, "{}", w.abbrev);
        for (i, k) in app.kernels.iter().enumerate() {
            assert!(
                !k.is_transformed(),
                "{} kernel {i} (`{}`) must not be throttled: CI group",
                w.abbrev,
                k.original.name
            );
        }
    }
}
