//! Deterministic random kernel generation.
//!
//! Kernels are drawn from the CUDA subset the frontend accepts and the
//! transforms target: a linear thread id, a scalar accumulator, affine
//! reads of global arrays, canonical `for` loops, counted `while` loops,
//! `if` guards (both block-uniform and thread-divergent), and optional
//! `__shared__` staging with a pre-existing `__syncthreads()`. Every
//! global read index carries a generation-time bound, and buffers are
//! sized to cover it, so a clean generated kernel never touches
//! unallocated memory — any sanitizer finding on an *original* kernel is
//! a deliberate dirty injection (see [`GenOptions::dirty_p`]), screened
//! out by the oracle before differential comparison.
//!
//! Generation is pure xoshiro (via `catt-prng`): the same seed always
//! yields the same [`TestCase`].

use catt_ir::expr::{BinOp, Builtin, Expr};
use catt_ir::kernel::{Kernel, LaunchConfig, Param};
use catt_ir::stmt::{LValue, Stmt};
use catt_ir::types::DType;
use catt_prng::Rng;

/// Generator knobs.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Probability of injecting one deliberate undefined behaviour
    /// (divergent barrier, wild read, or inter-block write) into a case.
    /// These exercise the oracle's sanitizer screen; set to `0.0` for
    /// guaranteed-clean kernels.
    pub dirty_p: f64,
}

impl Default for GenOptions {
    fn default() -> GenOptions {
        GenOptions { dirty_p: 0.08 }
    }
}

/// A generated kernel plus everything needed to launch it.
#[derive(Debug, Clone, PartialEq)]
pub struct TestCase {
    pub kernel: Kernel,
    pub launch: LaunchConfig,
    /// `(pointer-parameter name, length in f32 words)`, in parameter
    /// order. Word `w` of every buffer is initialized to
    /// [`crate::fill_f32`]`(w)`.
    pub buffers: Vec<(String, u32)>,
}

struct Gen {
    rng: Rng,
    /// Total threads in the launch (`grid.x * block.x`).
    nthreads: i64,
    block: i64,
    grid: i64,
    /// Running upper bound of indices read from `a` / `b`.
    len_a: i64,
    len_b: i64,
    next_for: u32,
    next_while: u32,
    shared_emitted: bool,
}

/// `acc += <array>[<affine index>];` — the workhorse statement. Indices
/// combine the linear tid `i` and the innermost loop variable; the bound
/// of each form is known at generation time and folded into the buffer
/// length.
impl Gen {
    fn accum(&mut self, loops: &[(String, i64)]) -> Stmt {
        let use_a = self.rng.bool(0.5);
        let i = Expr::var("i");
        let (idx, bound) = if loops.is_empty() || self.rng.bool(0.3) {
            (i, self.nthreads)
        } else {
            let (v, trip) = loops[loops.len() - 1].clone();
            let j = Expr::var(v);
            match self.rng.bounded_u64(4) {
                0 => (j, trip),
                1 => (i.mul(Expr::int(trip)).add(j), self.nthreads * trip),
                2 => (i.add(j.mul(Expr::int(self.nthreads))), self.nthreads * trip),
                _ => (i.add(j).rem(Expr::int(self.nthreads)), self.nthreads),
            }
        };
        let arr = if use_a {
            self.len_a = self.len_a.max(bound);
            "a"
        } else {
            self.len_b = self.len_b.max(bound);
            "b"
        };
        Stmt::Assign {
            lhs: LValue::Var("acc".into()),
            op: Some(BinOp::Add),
            rhs: idx.index_into(arr),
        }
    }

    /// A guard condition: block-uniform (`i < c*blockDim`) or
    /// thread-divergent (parity, partial-warp, or off-boundary cuts).
    fn guard(&mut self) -> Expr {
        let i = Expr::var("i");
        match self.rng.bounded_u64(4) {
            0 => {
                // Uniform: cut on a block boundary within the grid.
                let m = 1 + self.rng.bounded_u64(self.grid as u64) as i64;
                i.lt(Expr::int(self.block * m))
            }
            1 => Expr::Builtin(Builtin::ThreadIdxX)
                .rem(Expr::int(2))
                .eq_(Expr::int(0)),
            2 => {
                // Divergent: the cut lands mid-block.
                let m = 1 + self.rng.bounded_u64(self.grid as u64) as i64;
                i.lt(Expr::int(self.block * m - self.block / 2))
            }
            _ => Expr::Builtin(Builtin::ThreadIdxX).lt(Expr::int(16)),
        }
    }

    fn gen_items(&mut self, depth: u32, loops: &mut Vec<(String, i64)>, out: &mut Vec<Stmt>) {
        let n_items = 1 + self.rng.bounded_u64(if depth == 0 { 3 } else { 2 });
        for _ in 0..n_items {
            let roll = self.rng.bounded_u64(10);
            if depth >= 2 || roll < 4 {
                let s = self.accum(loops);
                out.push(s);
            } else if roll < 7 {
                let trip = *self.rng.choose(&[2i64, 4, 8]);
                let var = format!("j{}", self.next_for);
                self.next_for += 1;
                loops.push((var.clone(), trip));
                let mut body = Vec::new();
                self.gen_items(depth + 1, loops, &mut body);
                loops.pop();
                out.push(Stmt::for_up(var, Expr::int(trip), body));
            } else if roll < 8 {
                // Counted while loop (trip count still compile-time
                // bounded, so fuel budgets hold).
                let trip = *self.rng.choose(&[2i64, 4]);
                let var = format!("w{}", self.next_while);
                self.next_while += 1;
                out.push(Stmt::decl_i32(var.clone(), Expr::int(0)));
                loops.push((var.clone(), trip));
                let mut body = Vec::new();
                self.gen_items(depth + 1, loops, &mut body);
                loops.pop();
                body.push(Stmt::assign(
                    var.clone(),
                    Expr::var(var.clone()).add(Expr::int(1)),
                ));
                out.push(Stmt::While {
                    cond: Expr::var(var).lt(Expr::int(trip)),
                    body,
                });
            } else if roll < 9 {
                let cond = self.guard();
                let mut body = Vec::new();
                self.gen_items(depth + 1, loops, &mut body);
                out.push(Stmt::if_then(cond, body));
            } else if depth == 0 && !self.shared_emitted {
                // Shared staging with a pre-existing barrier, in uniform
                // (top-level) control flow: s0[tid] = a[i]; sync;
                // acc += s0[(tid + off) % blockDim].
                self.shared_emitted = true;
                self.len_a = self.len_a.max(self.nthreads);
                out.push(Stmt::DeclShared {
                    name: "s0".into(),
                    elem: DType::F32,
                    len: self.block as u32,
                });
                out.push(Stmt::store(
                    "s0",
                    Expr::Builtin(Builtin::ThreadIdxX),
                    Expr::var("i").index_into("a"),
                ));
                out.push(Stmt::SyncThreads);
                let off = self.rng.bounded_u64(self.block as u64) as i64;
                out.push(Stmt::Assign {
                    lhs: LValue::Var("acc".into()),
                    op: Some(BinOp::Add),
                    rhs: Expr::Builtin(Builtin::ThreadIdxX)
                        .add(Expr::int(off))
                        .rem(Expr::int(self.block))
                        .index_into("s0"),
                });
            } else {
                let s = self.accum(loops);
                out.push(s);
            }
        }
    }
}

/// Generate the deterministic test case for `seed`.
pub fn generate_case(seed: u64, opts: &GenOptions) -> TestCase {
    let mut rng = Rng::seed(seed);
    let block = *rng.choose(&[32i64, 64, 128]);
    let grid = *rng.choose(&[1i64, 2, 4]);
    let mut g = Gen {
        rng,
        nthreads: block * grid,
        block,
        grid,
        len_a: 1,
        len_b: 1,
        next_for: 0,
        next_while: 0,
        shared_emitted: false,
    };

    let mut body = vec![
        Stmt::decl_i32("i", Expr::linear_tid()),
        Stmt::decl_f32("acc", Expr::Float(0.0)),
    ];
    let mut loops = Vec::new();
    g.gen_items(0, &mut loops, &mut body);

    if g.rng.bool(opts.dirty_p) {
        match g.rng.bounded_u64(3) {
            0 => body.push(Stmt::if_then(
                Expr::Builtin(Builtin::ThreadIdxX)
                    .rem(Expr::int(2))
                    .eq_(Expr::int(0)),
                vec![Stmt::SyncThreads],
            )),
            // Wild read far past every allocation (bounds deliberately
            // NOT folded into the buffer length).
            1 => body.push(Stmt::Assign {
                lhs: LValue::Var("acc".into()),
                op: Some(BinOp::Add),
                rhs: Expr::var("i").add(Expr::int(1 << 20)).index_into("a"),
            }),
            // Inter-block write-write race (same addresses from every
            // block); degenerates to a benign store on 1-block grids,
            // which is fine — dirt is probabilistic, not guaranteed.
            _ => body.push(Stmt::store(
                "out",
                Expr::Builtin(Builtin::ThreadIdxX),
                Expr::var("acc"),
            )),
        }
    }

    // The output store is tid-disjoint by construction: no clean kernel
    // ever races on `out`.
    let store = Stmt::store("out", Expr::var("i"), Expr::var("acc"));
    if g.rng.bool(0.25) {
        body.push(Stmt::if_then(
            Expr::var("i").lt(Expr::int(g.nthreads)),
            vec![store],
        ));
    } else {
        body.push(store);
    }

    let kernel = Kernel::new(
        "fz",
        vec![
            Param::ptr("a", DType::F32),
            Param::ptr("b", DType::F32),
            Param::ptr("out", DType::F32),
        ],
        body,
    );
    TestCase {
        kernel,
        launch: LaunchConfig::d1(grid as u32, block as u32),
        buffers: vec![
            ("a".into(), g.len_a.max(1) as u32),
            ("b".into(), g.len_b.max(1) as u32),
            ("out".into(), g.nthreads as u32),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_frontend::parse_kernel;
    use catt_ir::printer::kernel_to_string;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let a = generate_case(seed, &GenOptions::default());
            let b = generate_case(seed, &GenOptions::default());
            assert_eq!(a, b, "seed {seed:#x} diverged");
        }
    }

    #[test]
    fn every_generated_kernel_round_trips_and_lowers() {
        for seed in 0..150u64 {
            let case = generate_case(seed, &GenOptions::default());
            let printed = kernel_to_string(&case.kernel);
            let reparsed = parse_kernel(&printed).unwrap_or_else(|e| {
                panic!("seed {seed}: printed kernel does not parse: {e}\n{printed}")
            });
            assert_eq!(
                reparsed, case.kernel,
                "seed {seed}: round-trip mismatch\n{printed}"
            );
            catt_sim::lower(&case.kernel)
                .unwrap_or_else(|e| panic!("seed {seed}: does not lower: {e}\n{printed}"));
        }
    }

    #[test]
    fn generator_covers_the_grammar() {
        // Across a modest seed range we must see loops, whiles, guards,
        // and shared staging — otherwise the fuzzer is not exercising
        // the transforms' input space.
        let (mut fors, mut whiles, mut ifs, mut shared) = (0, 0, 0, 0);
        for seed in 0..150u64 {
            let case = generate_case(seed, &GenOptions::default());
            catt_ir::visit::walk_stmts(&case.kernel.body, &mut |s| match s {
                Stmt::For { .. } => fors += 1,
                Stmt::While { .. } => whiles += 1,
                Stmt::If { .. } => ifs += 1,
                Stmt::DeclShared { .. } => shared += 1,
                _ => {}
            });
        }
        assert!(fors > 20, "too few for loops: {fors}");
        assert!(whiles > 5, "too few while loops: {whiles}");
        assert!(ifs > 20, "too few guards: {ifs}");
        assert!(shared > 3, "too little shared staging: {shared}");
    }

    #[test]
    fn clean_generation_never_reads_past_its_buffers() {
        // With dirt disabled, a sanitized run of the original must be
        // clean for every seed (buffers sized from generation-time
        // bounds).
        use catt_sim::{Arg, GlobalMem, Gpu, Init, SimError};
        for seed in 0..40u64 {
            let case = generate_case(seed, &GenOptions { dirty_p: 0.0 });
            let (mut mem, bufs) = GlobalMem::from_inits(
                case.buffers
                    .iter()
                    .map(|(_, len)| Init::F32((0..*len).map(crate::fill_f32).collect())),
            );
            let args: Vec<Arg> = bufs.into_iter().map(Arg::Buf).collect();
            let mut config = catt_sim::GpuConfig::small();
            config.sanitize = Some(true);
            if let Err(e) = Gpu::new(config).launch(&case.kernel, case.launch, &args, &mut mem) {
                match e {
                    SimError::Sanitizer(r) => panic!("seed {seed}: clean kernel flagged: {r}"),
                    other => panic!("seed {seed}: launch failed: {other}"),
                }
            }
        }
    }
}
