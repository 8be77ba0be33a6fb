//! Content digests for simulation inputs.
//!
//! The evaluation engine (`catt-core::engine`) memoizes simulation results
//! in a content-addressed cache, so the digest must be a function of the
//! simulated inputs alone. `std::hash::DefaultHasher` is randomly keyed per
//! process, so this module implements FNV-1a 64-bit by hand and makes it a
//! [`std::hash::Hasher`]: the hashed values feed it through their derived
//! `Hash` impls — structure, not text. A new op or operand field is part of
//! the derived impl, so it changes the digest of every program that uses
//! it; [`GpuConfig::content_digest`] names every field of the config, so a
//! new field does not compile until the digest decides about it.

use crate::bytecode::Program;
use crate::config::{DynctaConfig, GpuConfig};
use std::hash::{Hash, Hasher};

/// FNV-1a, 64-bit.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Fresh hasher.
    pub fn new() -> Fnv64 {
        Fnv64 {
            state: Self::OFFSET,
        }
    }

    /// Fold raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Fold a string (as UTF-8 bytes plus a separator so `"ab","c"` and
    /// `"a","bc"` digest differently).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes()).write(&[0xFF])
    }

    /// Final digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        Fnv64::write(self, bytes);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

impl Program {
    /// Digest of the lowered kernel: instruction stream, register and
    /// shared-memory layout. Two kernels with identical lowering get
    /// identical digests, whatever source they came from.
    pub fn content_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        self.name.hash(&mut h);
        self.ops.hash(&mut h);
        self.num_regs.hash(&mut h);
        self.param_regs.hash(&mut h);
        self.shared_layout.hash(&mut h);
        self.smem_bytes.hash(&mut h);
        h.finish()
    }
}

impl GpuConfig {
    /// Digest over every architectural parameter (geometry, capacities,
    /// latencies, DYNCTA settings). Any change invalidates cached
    /// simulation results keyed on this config. The cycle-fuel budget
    /// (`sim_fuel`) is excluded: fuel bounds a simulation, it never
    /// changes the result of one that completes, so tightening or lifting
    /// the budget must not invalidate cached results. `sm_parallel` has no
    /// effect on a launch, so it is excluded too, and so is the profiling
    /// knob (`profile`) — the sink only observes, so a profiled run's
    /// stats serve the unprofiled run of the same job (see DESIGN.md
    /// "Profiling & trace subsystem") — as is the
    /// sanitizer knob (`sanitize`): a clean sanitized launch is
    /// bit-identical to an unsanitized one, and sanitized runs bypass the
    /// cache so the checks always execute.
    pub fn content_digest(&self) -> u64 {
        // Destructured field by field: a new field must be placed on one
        // side of the digest before this compiles.
        let GpuConfig {
            num_sms,
            warp_size,
            max_warps_per_sm,
            max_tbs_per_sm,
            schedulers_per_sm,
            regfile_bytes_per_sm,
            onchip_bytes_per_sm,
            smem_carveout_bytes,
            l1_cap_bytes,
            l1_line_bytes,
            l1_assoc,
            l2_kb: _,
            latencies,
            trace_requests,
            dyncta,
            sim_fuel: _,
            sm_parallel: _,
            profile: _,
            sanitize: _,
            // The cancellation token is an execution handle, not a
            // simulated parameter: a deadline-carrying `catt serve`
            // request must share its cache entry (and single-flight slot)
            // with tokenless runs.
            cancel: _,
        } = self;
        let mut h = Fnv64::new();
        (
            num_sms,
            warp_size,
            max_warps_per_sm,
            max_tbs_per_sm,
            schedulers_per_sm,
            regfile_bytes_per_sm,
            onchip_bytes_per_sm,
            smem_carveout_bytes,
            l1_cap_bytes,
            l1_line_bytes,
            l1_assoc,
        )
            .hash(&mut h);
        // The L2 capacity is *architectural* — unlike the knobs above it
        // changes cycle counts — but `None` and an explicit `Some` of the
        // default must share a cache entry, so the digest folds the
        // resolved capacity, not the raw option.
        self.l2_kb_resolved().hash(&mut h);
        (latencies, trace_requests).hash(&mut h);
        dyncta
            .map(
                |DynctaConfig {
                     window,
                     t_high,
                     t_low,
                 }| { (window, t_high.to_bits(), t_low.to_bits()) },
            )
            .hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{CmpOp, FBinOp, FUnOp, IBinOp, Op};

    fn program(ops: Vec<Op>) -> Program {
        Program {
            name: "k".to_string(),
            ops,
            num_regs: 8,
            param_regs: vec![3, 4],
            shared_layout: vec![("s".to_string(), 0, 128)],
            smem_bytes: 128,
        }
    }

    /// Every `Op` variant, each paired with one copy per field where only
    /// that field (or the variant itself) differs.
    fn op_mutations() -> Vec<(Op, Vec<Op>)> {
        let (d, a, b, c) = (1, 2, 3, 4);
        vec![
            (
                Op::MovImm { dst: d, imm: 7 },
                vec![Op::MovImm { dst: a, imm: 7 }, Op::MovImm { dst: d, imm: 8 }],
            ),
            (
                Op::Mov { dst: d, src: a },
                vec![Op::Mov { dst: b, src: a }, Op::Mov { dst: d, src: b }],
            ),
            (
                Op::IBin {
                    op: IBinOp::Add,
                    dst: d,
                    a,
                    b,
                },
                vec![
                    Op::IBin {
                        op: IBinOp::Sub,
                        dst: d,
                        a,
                        b,
                    },
                    Op::IBin {
                        op: IBinOp::Add,
                        dst: c,
                        a,
                        b,
                    },
                    Op::IBin {
                        op: IBinOp::Add,
                        dst: d,
                        a: c,
                        b,
                    },
                    Op::IBin {
                        op: IBinOp::Add,
                        dst: d,
                        a,
                        b: c,
                    },
                    Op::FBin {
                        op: FBinOp::Add,
                        dst: d,
                        a,
                        b,
                    },
                ],
            ),
            (
                Op::FBin {
                    op: FBinOp::Mul,
                    dst: d,
                    a,
                    b,
                },
                vec![
                    Op::FBin {
                        op: FBinOp::Div,
                        dst: d,
                        a,
                        b,
                    },
                    Op::FBin {
                        op: FBinOp::Mul,
                        dst: c,
                        a,
                        b,
                    },
                    Op::FBin {
                        op: FBinOp::Mul,
                        dst: d,
                        a: c,
                        b,
                    },
                    Op::FBin {
                        op: FBinOp::Mul,
                        dst: d,
                        a,
                        b: c,
                    },
                ],
            ),
            (
                Op::FUn {
                    op: FUnOp::Sqrt,
                    dst: d,
                    a,
                },
                vec![
                    Op::FUn {
                        op: FUnOp::Exp,
                        dst: d,
                        a,
                    },
                    Op::FUn {
                        op: FUnOp::Sqrt,
                        dst: b,
                        a,
                    },
                    Op::FUn {
                        op: FUnOp::Sqrt,
                        dst: d,
                        a: b,
                    },
                ],
            ),
            (
                Op::INeg { dst: d, a },
                vec![
                    Op::INeg { dst: b, a },
                    Op::INeg { dst: d, a: b },
                    Op::IAbs { dst: d, a },
                    Op::Not { dst: d, a },
                    Op::CvtIF { dst: d, a },
                    Op::CvtFI { dst: d, a },
                ],
            ),
            (
                Op::Cmp {
                    op: CmpOp::Lt,
                    float: false,
                    dst: d,
                    a,
                    b,
                },
                vec![
                    Op::Cmp {
                        op: CmpOp::Le,
                        float: false,
                        dst: d,
                        a,
                        b,
                    },
                    Op::Cmp {
                        op: CmpOp::Lt,
                        float: true,
                        dst: d,
                        a,
                        b,
                    },
                    Op::Cmp {
                        op: CmpOp::Lt,
                        float: false,
                        dst: c,
                        a,
                        b,
                    },
                    Op::Cmp {
                        op: CmpOp::Lt,
                        float: false,
                        dst: d,
                        a: c,
                        b,
                    },
                    Op::Cmp {
                        op: CmpOp::Lt,
                        float: false,
                        dst: d,
                        a,
                        b: c,
                    },
                ],
            ),
            (
                Op::Sel { dst: d, c, a, b },
                vec![
                    Op::Sel { dst: 5, c, a, b },
                    Op::Sel { dst: d, c: 5, a, b },
                    Op::Sel { dst: d, c, a: 5, b },
                    Op::Sel { dst: d, c, a, b: 5 },
                ],
            ),
            (
                Op::Ldg { dst: d, addr: a },
                vec![
                    Op::Ldg { dst: b, addr: a },
                    Op::Ldg { dst: d, addr: b },
                    Op::Lds { dst: d, addr: a },
                ],
            ),
            (
                Op::Stg { src: d, addr: a },
                vec![
                    Op::Stg { src: b, addr: a },
                    Op::Stg { src: d, addr: b },
                    Op::Sts { src: d, addr: a },
                ],
            ),
            (
                Op::If {
                    cond: c,
                    else_pc: 10,
                    end_pc: 12,
                },
                vec![
                    Op::If {
                        cond: d,
                        else_pc: 10,
                        end_pc: 12,
                    },
                    Op::If {
                        cond: c,
                        else_pc: 11,
                        end_pc: 12,
                    },
                    Op::If {
                        cond: c,
                        else_pc: 10,
                        end_pc: 13,
                    },
                ],
            ),
            (
                Op::Else { end_pc: 12 },
                vec![
                    Op::Else { end_pc: 13 },
                    Op::LoopBegin { end_pc: 12 },
                    Op::LoopJump { cond_pc: 12 },
                ],
            ),
            (Op::LoopTest { cond: c }, vec![Op::LoopTest { cond: d }]),
            (Op::Bar, vec![Op::EndIf, Op::Break, Op::Ret, Op::Exit]),
        ]
    }

    #[test]
    fn equal_lowerings_give_equal_digests() {
        for (op, _) in op_mutations() {
            let p = program(vec![op, Op::Exit]);
            assert_eq!(p.content_digest(), p.clone().content_digest(), "{op:?}");
        }
        // The source a program came from is not part of its identity.
        let parsed = |src: &str| {
            let k = catt_frontend::parse_kernel(src).unwrap();
            crate::lower(&k).unwrap().content_digest()
        };
        assert_eq!(
            parsed("__global__ void k(float *a) { a[threadIdx.x] = 1.0f; }"),
            parsed(
                "__global__ void k(float *a) {\n  // same kernel\n  a[threadIdx.x] = (1.0f);\n}"
            )
        );
    }

    #[test]
    fn changing_any_one_op_field_changes_the_digest() {
        for (op, mutants) in op_mutations() {
            let base = program(vec![op, Op::Exit]).content_digest();
            for m in mutants {
                assert_ne!(
                    base,
                    program(vec![m, Op::Exit]).content_digest(),
                    "{op:?} vs {m:?}"
                );
            }
        }
        // The layout fields count too.
        let base = program(vec![Op::Exit]);
        let mut regs = base.clone();
        regs.num_regs += 1;
        let mut params = base.clone();
        params.param_regs[1] = 5;
        let mut shared = base.clone();
        shared.shared_layout[0].2 = 256;
        let mut smem = base.clone();
        smem.smem_bytes = 256;
        for other in [regs, params, shared, smem] {
            assert_ne!(base.content_digest(), other.content_digest());
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Reference FNV-1a vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xCBF2_9CE4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn str_framing_disambiguates() {
        let mut a = Fnv64::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn config_digest_tracks_fields() {
        let base = GpuConfig::titan_v_1sm();
        let mut capped = base.clone();
        capped.l1_cap_bytes = Some(32 * 1024);
        assert_ne!(base.content_digest(), capped.content_digest());
        assert_eq!(base.content_digest(), base.clone().content_digest());
    }

    #[test]
    fn config_digest_covers_latencies_tracing_and_dyncta() {
        let base = GpuConfig::titan_v_1sm();
        let mut slower = base.clone();
        slower.latencies.offchip += 1;
        let mut traced = base.clone();
        traced.trace_requests = true;
        let mut dyncta = base.clone();
        dyncta.dyncta = Some(DynctaConfig::default());
        let mut dyncta_high = dyncta.clone();
        if let Some(d) = &mut dyncta_high.dyncta {
            d.t_high = 0.75;
        }
        let digests: Vec<u64> = [&base, &slower, &traced, &dyncta, &dyncta_high]
            .iter()
            .map(|c| c.content_digest())
            .collect();
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
        let mut tokened = base.clone();
        tokened.cancel = Some(crate::CancelToken::new());
        assert_eq!(base.content_digest(), tokened.content_digest());
    }

    #[test]
    fn fuel_budget_does_not_change_the_digest() {
        let base = GpuConfig::titan_v_1sm();
        let mut fueled = base.clone();
        fueled.sim_fuel = Some(1_000);
        assert_eq!(base.content_digest(), fueled.content_digest());
    }

    #[test]
    fn profile_knob_does_not_change_the_digest() {
        // Profiling only observes: a profiled run writes the entry an
        // unprofiled run of the same job reads.
        let base = GpuConfig::titan_v_1sm();
        let mut profiled = base.clone();
        profiled.profile = Some(true);
        assert_eq!(base.content_digest(), profiled.content_digest());
        profiled.profile = Some(false);
        assert_eq!(base.content_digest(), profiled.content_digest());
    }

    #[test]
    fn l2_capacity_changes_the_digest_by_resolved_value() {
        // Capacity is architectural: different sizes must not share a
        // cache entry, but `None` (default) and an explicit `Some` of
        // the resolved default must.
        let base = GpuConfig::titan_v_1sm();
        let mut shrunk = base.clone();
        shrunk.l2_kb = Some(512);
        assert_ne!(base.content_digest(), shrunk.content_digest());
        let mut disabled = base.clone();
        disabled.l2_kb = Some(0);
        assert_ne!(base.content_digest(), disabled.content_digest());
        let mut explicit_default = base.clone();
        explicit_default.l2_kb = Some(base.l2_kb_resolved());
        assert_eq!(base.content_digest(), explicit_default.content_digest());
    }

    #[test]
    fn sanitize_knob_does_not_change_the_digest() {
        // The sanitizer only observes; a cached result must survive
        // flipping it (sanitized runs bypass the cache regardless).
        let base = GpuConfig::titan_v_1sm();
        let mut sanitized = base.clone();
        sanitized.sanitize = Some(true);
        assert_eq!(base.content_digest(), sanitized.content_digest());
        sanitized.sanitize = Some(false);
        assert_eq!(base.content_digest(), sanitized.content_digest());
    }
}
