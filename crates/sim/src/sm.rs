//! The streaming-multiprocessor execution engine.
//!
//! Each SM owns: warp slots filled by the occupancy-limited thread-block
//! dispatcher, per-scheduler greedy-then-oldest (GTO) warp arbitration, a
//! scoreboard per warp (register-ready cycles), one L1D port that accepts
//! one 128-byte transaction per cycle, an off-chip port modelling per-SM
//! L2/DRAM bandwidth, and the L1D tag store from [`crate::cache`].
//!
//! Timing model summary (per issued warp-instruction):
//! * ALU: result ready after `latencies.alu` (transcendental: `sfu`);
//! * global load: addresses coalesce into 128-byte lines; transactions
//!   serialize on the L1D port; each miss occupies the off-chip port for
//!   `offchip_port` cycles and completes after `offchip` more; the
//!   destination register becomes ready when the slowest transaction
//!   completes;
//! * global store: write-through, consumes L1D + off-chip port bandwidth,
//!   does not block the warp;
//! * shared memory: fixed `shared` latency, one L1D-port cycle
//!   (bank conflicts are not modelled — see DESIGN.md);
//! * `__syncthreads`: the warp parks until every non-finished warp of its
//!   block is parked (arrival-count semantics, so warps that exited early
//!   never deadlock the block).

use crate::bytecode::{builtin_reg, CmpOp, FBinOp, FUnOp, IBinOp, Op, Program};
use crate::cache::L1Cache;
use crate::config::{GpuConfig, Latencies};
use crate::error::SimError;
use crate::mem::{Arg, GlobalMem};
use crate::metrics::{ExecCounts, LaunchStats, RequestTrace};
use crate::occupancy::max_resident_tbs;
use crate::profile::{LaunchProfile, NullSink, ProfileSink, SmProfile, StallReason};
use crate::sanitize::{SanitizerKind, SanitizerReport, SanitizerState};
use crate::warp::{Frame, Warp, WarpState};
use catt_ir::expr::Builtin;
use catt_ir::LaunchConfig;
use std::borrow::Cow;
use std::collections::VecDeque;

/// Execute a full launch: distribute blocks round-robin over SMs and run
/// each SM to completion, one SM after another on the caller's thread.
/// SMs interact only through (functional) global memory, which every SM
/// reads and writes in place, so SM *k + 1* sees the stores of SM *k*;
/// timing-wise each has its own L1D, L2 slice and off-chip port, so they
/// are simulated independently and total `cycles` is the maximum over SMs
/// (DESIGN.md "Sequential SMs").
///
/// Every user-reachable failure — bad arguments, unlaunchable geometry,
/// barrier deadlock, cycle-budget exhaustion — returns a structured
/// [`SimError`] instead of panicking, so one bad candidate in a sweep is a
/// recordable outcome, not a dead worker.
pub fn run_launch(
    config: &GpuConfig,
    program: &Program,
    launch: LaunchConfig,
    args: &[Arg],
    mem: &mut GlobalMem,
) -> Result<LaunchStats, SimError> {
    // The cache geometry is resolved once per launch (`L1Cache::new`); a
    // degenerate one must fail typed here, not divide by zero there.
    let bad_geometry = if config.l1_line_bytes == 0 || !config.l1_line_bytes.is_multiple_of(4) {
        Some(("l1_line_bytes", config.l1_line_bytes))
    } else if config.l1_assoc == 0 {
        Some(("l1_assoc", 0))
    } else if u64::from(config.l1d_bytes())
        < u64::from(config.l1_line_bytes) * u64::from(config.l1_assoc)
    {
        Some(("l1d_bytes()", config.l1d_bytes()))
    } else {
        None
    };
    if let Some((field, value)) = bad_geometry {
        return Err(SimError::BadArgument {
            kernel: program.name.clone(),
            message: format!(
                "GpuConfig::{field} = {value}: the line size must be a positive \
                 multiple of 4 bytes, the associativity at least 1 and the L1D \
                 at least one set (line size × associativity bytes)"
            ),
        });
    }
    if config.profile_enabled() {
        // Profiled launch: the same simulation, monomorphized over the
        // recording sink. The finished profile is delivered to the
        // thread-local capture buffer (see `crate::profile`); on error a
        // partial profile is still delivered, flagged `complete = false`.
        let mut profile = LaunchProfile::new(program.name.clone(), launch, config.l1_config());
        let res = launch_impl::<SmProfile>(config, program, launch, args, mem, Some(&mut profile));
        profile.complete = res.is_ok();
        crate::profile::submit(profile);
        res
    } else {
        launch_impl::<NullSink>(config, program, launch, args, mem, None)
    }
}

/// Warp-instructions a launch issues between two reads of its
/// [`CancelToken`](crate::CancelToken) (see [`cancel_due`]).
const CANCEL_POLL_PERIOD: u64 = 256;

/// The cancellation poll of both drivers' issue loops: whether the
/// launch's token has fired. It is read on the first iteration, then
/// on the first iteration that finds `issued` (the launch's
/// warp-instructions so far) at `*next_poll` or past it, which moves
/// `*next_poll` [`CANCEL_POLL_PERIOD`] further. A token with a deadline
/// reads the clock, which costs more than an iteration of the timed loop;
/// without a token this is one pointer test.
#[inline]
fn cancel_due(config: &GpuConfig, issued: u64, next_poll: &mut u64) -> bool {
    let Some(token) = &config.cancel else {
        return false;
    };
    if issued < *next_poll {
        return false;
    }
    *next_poll = issued + CANCEL_POLL_PERIOD;
    token.is_cancelled()
}

/// Launch admission, shared by both drivers so they reject the same
/// launches with the same [`SimError`] class: the argument count, the
/// shared-memory carve-out (auto-raised, like the CUDA driver does, when
/// the kernel's static shared memory exceeds the configured one) and the
/// occupancy. Returns the effective configuration and resident TBs per SM.
fn admit<'c>(
    config: &'c GpuConfig,
    program: &Program,
    launch: LaunchConfig,
    args: &[Arg],
) -> Result<(Cow<'c, GpuConfig>, u32), SimError> {
    let bad = |message: String| SimError::BadArgument {
        kernel: program.name.clone(),
        message,
    };
    if args.len() != program.param_regs.len() {
        return Err(bad(format!(
            "takes {} argument(s), {} given",
            program.param_regs.len(),
            args.len()
        )));
    }
    let config = if program.smem_bytes > config.smem_carveout_bytes {
        let raised = config.clone().with_smem_for(program.smem_bytes);
        Cow::Owned(raised.ok_or_else(|| {
            bad(format!(
                "declares {} B of shared memory, above the largest carve-out",
                program.smem_bytes
            ))
        })?)
    } else {
        Cow::Borrowed(config)
    };
    let occ = max_resident_tbs(
        &config,
        program.smem_bytes,
        program.num_regs as u32,
        launch.threads_per_block(),
    );
    let resident = occ.resident_tbs();
    if resident == 0 {
        return Err(bad(format!(
            "cannot launch: a single block exceeds SM resources \
             (smem {} B, {} regs/thread, {} threads/block)",
            program.smem_bytes,
            program.num_regs,
            launch.threads_per_block()
        )));
    }
    Ok((config, resident))
}

/// The launch body, generic over the profiling sink. With [`NullSink`]
/// every hook is an empty `#[inline]` default method and every
/// `S::ENABLED` block is compile-time dead, so the unprofiled hot path
/// carries no profiling cost at all.
fn launch_impl<S: ProfileSink>(
    config: &GpuConfig,
    program: &Program,
    launch: LaunchConfig,
    args: &[Arg],
    mem: &mut GlobalMem,
    mut profile: Option<&mut LaunchProfile>,
) -> Result<LaunchStats, SimError> {
    let (config, resident) = admit(config, program, launch, args)?;
    let config = &*config;
    if let Some(p) = profile.as_deref_mut() {
        // The carve-out auto-raise may have shrunk the L1; keep the
        // profile's recorded geometry in sync with what the SMs simulate.
        p.l1 = config.l1_config();
    }

    let num_blocks = launch.num_blocks();
    let mut total = LaunchStats {
        resident_tbs_per_sm: resident,
        ..LaunchStats::default()
    };
    if num_blocks == 0 {
        return Ok(total);
    }

    let fuel = config.fuel_budget(mem.footprint_bytes() as u64);

    // Shared, launch-wide precomputation: the decoded op table (read on
    // every ready-check and every issue) and the dispatch tables (per-warp
    // lane indices, uniform dims, parameter images).
    let decoded = decode(program);
    let tables = DispatchTables::new(program, launch, args);

    // Round-robin distribution of linear block ids over SMs.
    let num_sms = config.num_sms.max(1);
    let per_sm: Vec<(u32, VecDeque<u32>)> = (0..num_sms)
        .map(|sm_id| {
            let blocks: VecDeque<u32> = (0..num_blocks).filter(|b| b % num_sms == sm_id).collect();
            (sm_id, blocks)
        })
        .filter(|(_, blocks)| !blocks.is_empty())
        .collect();

    // One launch-wide sanitizer state observes every block's global
    // accesses, so races between blocks on different SMs are caught.
    let mut san_state = config
        .sanitize_enabled()
        .then(|| SanitizerState::with_footprint(mem.footprint_bytes()));
    let nwarps = (resident * launch.warps_per_block()) as usize;

    // Every SM mutates global memory directly, in ascending SM-id order.
    // One workspace (register files, TB slots) is reused across SMs
    // instead of reallocating per SM. The first failing SM stops the
    // launch: lower SMs' stores are in memory, and so are the partial
    // stores of the failing one.
    let mut ws = SmWorkspace::default();
    for (sm_id, blocks) in per_sm {
        let trace_this_sm = config.trace_requests && sm_id == 0;
        let mut sink = S::for_sm(sm_id, config.l1_config(), nwarps, resident as usize);
        let res = run_sm(
            config,
            program,
            &decoded,
            &tables,
            launch,
            mem,
            resident,
            trace_this_sm,
            fuel,
            &mut ws,
            &mut sink,
            san_state.as_mut(),
            blocks,
        );
        // Merge the shard before propagating an error so a failing SM
        // still leaves its partial profile behind.
        if let Some(p) = profile.as_deref_mut() {
            sink.finish_into(p);
        }
        fold_stats(&mut total, &res?);
    }
    Ok(total)
}

/// Fold one SM's stats into the launch total: the counters add as
/// [`LaunchStats::accumulate`] adds them, but `cycles` is the max over
/// SMs — they run concurrently on the device, even though the simulator
/// runs them one after another. Only SM 0 records a
/// request trace, so the total's trace is SM 0's.
fn fold_stats(total: &mut LaunchStats, stats: &LaunchStats) {
    let cycles = total.cycles.max(stats.cycles);
    total.accumulate(stats);
    total.cycles = cycles;
}

/// Sanitizer barrier-site identity check at a release point: every parked
/// warp of the block must be at the same `__syncthreads()` site (same pc)
/// with the same dynamic arrival count, and no finished warp may have
/// arrived at fewer barriers than the parked ones (it would have exited
/// past a barrier its siblings are waiting at — on hardware the block
/// deadlocks or desynchronizes; arrival-count release masks it). Returns
/// a report with an empty `kernel` (the caller fills it in).
fn barrier_site_mismatch(ws: &[Warp], block: Option<u32>) -> Option<SanitizerReport> {
    let block = block.unwrap_or(0);
    let mut site: Option<(u32, u32)> = None;
    for w in ws {
        if w.state != WarpState::AtBarrier {
            continue;
        }
        match site {
            None => site = Some((w.bar_pc, w.bar_count)),
            Some((pc, count)) if (pc, count) != (w.bar_pc, w.bar_count) => {
                return Some(SanitizerReport {
                    kind: SanitizerKind::BarrierDivergence,
                    kernel: String::new(),
                    pc: pc.max(w.bar_pc),
                    detail: format!(
                        "warps of block {} parked at different __syncthreads() sites: \
                         pc {} (barrier #{}) vs pc {} (barrier #{})",
                        block, pc, count, w.bar_pc, w.bar_count
                    ),
                });
            }
            Some(_) => {}
        }
    }
    let (pc, count) = site?;
    for w in ws {
        if w.state == WarpState::Done && w.bar_count < count {
            return Some(SanitizerReport {
                kind: SanitizerKind::BarrierDivergence,
                kernel: String::new(),
                pc,
                detail: format!(
                    "a warp of block {} finished after {} barrier(s) while its siblings \
                     are parked at barrier #{} (pc {}): the finished warp never reached \
                     this __syncthreads()",
                    block, w.bar_count, count, pc
                ),
            });
        }
    }
    None
}

/// Run one SM over its block list, borrowing warp/TB storage from `ws`
/// and returning it when done (so the caller reuses the allocations —
/// register files included — for the next SM).
#[allow(clippy::too_many_arguments)]
fn run_sm<S: ProfileSink>(
    config: &GpuConfig,
    program: &Program,
    decoded: &[Decoded],
    tables: &DispatchTables,
    launch: LaunchConfig,
    mem: &mut GlobalMem,
    resident: u32,
    trace: bool,
    fuel: u64,
    ws: &mut SmWorkspace,
    sink: &mut S,
    san: Option<&mut SanitizerState>,
    blocks: VecDeque<u32>,
) -> Result<LaunchStats, SimError> {
    ws.prepare(program, resident, launch.warps_per_block());
    let mut sm = Sm {
        config,
        program,
        decoded,
        tables,
        launch,
        mem,
        cycle: 0,
        warps: std::mem::take(&mut ws.warps),
        tbs: std::mem::take(&mut ws.tbs),
        fuel,
        stats: LaunchStats::default(),
        sink,
        san,
        t: Timed::new(config, program, launch, resident, trace),
    };
    let result = sm.run(blocks);
    if S::ENABLED && result.is_err() {
        // The success path records final aggregates inside `run`; on error
        // close the shard with whatever the SM reached so partial profiles
        // still carry cycle and instruction totals.
        sm.sink.sm_end(
            sm.cycle,
            sm.t.last_issued.len() as u32,
            sm.stats.instructions,
        );
    }
    ws.warps = std::mem::take(&mut sm.warps);
    ws.tbs = std::mem::take(&mut sm.tbs);
    result
}

struct TbSlot {
    /// Linear block id currently resident, if any.
    block: Option<u32>,
    /// Shared-memory segment for this block.
    smem: Vec<u32>,
}

/// Flattened operator of a decoded op: one variant per lane kernel, so
/// [`Sm::issue`] dispatches once and each ALU arm runs its 32-lane loop
/// with the operator a compile-time constant.
#[derive(Clone, Copy)]
enum Kind {
    MovImm,
    Mov,
    IAdd,
    ISub,
    IMul,
    IDiv,
    IRem,
    IMin,
    IMax,
    IShl,
    IShr,
    IAnd,
    IOr,
    IXor,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FMin,
    FMax,
    FPow,
    CmpLtI,
    CmpLeI,
    CmpGtI,
    CmpGeI,
    CmpEqI,
    CmpNeI,
    CmpLtF,
    CmpLeF,
    CmpGtF,
    CmpGeF,
    CmpEqF,
    CmpNeF,
    FNeg,
    FSqrt,
    FExp,
    FLog,
    FAbs,
    FSin,
    FCos,
    INeg,
    IAbs,
    Not,
    Sel,
    CvtIF,
    CvtFI,
    Ldg,
    Stg,
    Lds,
    Sts,
    Bar,
    If,
    Else,
    EndIf,
    LoopBegin,
    LoopTest,
    LoopJump,
    Break,
    Ret,
    Exit,
}

/// One op as the SM reads it — the only per-pc structure on the issue
/// path, built once per launch by [`decode`]: what to execute (`kind`,
/// operands) and what the scheduler's ready-check needs (`regs`, port).
#[derive(Clone, Copy)]
struct Decoded {
    kind: Kind,
    /// Destination register, then the sources (`a` is the address of a
    /// memory op and the condition of `If`/`LoopTest`, `b` a store's value,
    /// `c` the selector of `Sel`).
    dst: u16,
    a: u16,
    b: u16,
    c: u16,
    /// Immediate of `MovImm`, or the branch target of a control op.
    imm: u32,
    /// Scoreboard set: source and destination registers (at most 3 reads
    /// + 1 write); the first `n` entries are in use.
    regs: [u16; 4],
    n: u8,
    /// Whether the op serializes on the L1D port (global/shared memory).
    uses_l1_port: bool,
    /// Latency class of an ALU op: special-function unit, not the ALU.
    sfu: bool,
}

/// Decode every op of the program, indexed by pc.
fn decode(program: &Program) -> Vec<Decoded> {
    use Kind::*;
    // `Kind` of each bytecode sub-operator, indexed by its declaration
    // order (`CMP`: the integer compares, then the float ones).
    const IBIN: [Kind; 12] = [
        IAdd, ISub, IMul, IDiv, IRem, IMin, IMax, IShl, IShr, IAnd, IOr, IXor,
    ];
    const FBIN: [Kind; 7] = [FAdd, FSub, FMul, FDiv, FMin, FMax, FPow];
    const FUN: [Kind; 7] = [FNeg, FSqrt, FExp, FLog, FAbs, FSin, FCos];
    const CMP: [Kind; 12] = [
        CmpLtI, CmpLeI, CmpGtI, CmpGeI, CmpEqI, CmpNeI, CmpLtF, CmpLeF, CmpGtF, CmpGeF, CmpEqF,
        CmpNeF,
    ];
    program
        .ops
        .iter()
        .map(|op| {
            let (kind, [dst, a, b, c], imm) = match *op {
                Op::MovImm { dst, imm } => (MovImm, [dst, 0, 0, 0], imm),
                Op::Mov { dst, src } => (Mov, [dst, src, 0, 0], 0),
                Op::IBin { op, dst, a, b } => (IBIN[op as usize], [dst, a, b, 0], 0),
                Op::FBin { op, dst, a, b } => (FBIN[op as usize], [dst, a, b, 0], 0),
                Op::FUn { op, dst, a } => (FUN[op as usize], [dst, a, 0, 0], 0),
                Op::INeg { dst, a } => (INeg, [dst, a, 0, 0], 0),
                Op::IAbs { dst, a } => (IAbs, [dst, a, 0, 0], 0),
                Op::Not { dst, a } => (Not, [dst, a, 0, 0], 0),
                Op::Cmp {
                    op,
                    float,
                    dst,
                    a,
                    b,
                } => (CMP[float as usize * 6 + op as usize], [dst, a, b, 0], 0),
                Op::Sel { dst, c, a, b } => (Sel, [dst, a, b, c], 0),
                Op::CvtIF { dst, a } => (CvtIF, [dst, a, 0, 0], 0),
                Op::CvtFI { dst, a } => (CvtFI, [dst, a, 0, 0], 0),
                Op::Ldg { dst, addr } => (Ldg, [dst, addr, 0, 0], 0),
                Op::Stg { src, addr } => (Stg, [0, addr, src, 0], 0),
                Op::Lds { dst, addr } => (Lds, [dst, addr, 0, 0], 0),
                Op::Sts { src, addr } => (Sts, [0, addr, src, 0], 0),
                Op::Bar => (Bar, [0; 4], 0),
                Op::If { cond, else_pc, .. } => (If, [0, cond, 0, 0], else_pc),
                Op::Else { end_pc } => (Else, [0; 4], end_pc),
                Op::EndIf => (EndIf, [0; 4], 0),
                Op::LoopBegin { end_pc } => (LoopBegin, [0; 4], end_pc),
                Op::LoopTest { cond } => (LoopTest, [0, cond, 0, 0], 0),
                Op::LoopJump { cond_pc } => (LoopJump, [0; 4], cond_pc),
                Op::Break => (Break, [0; 4], 0),
                Op::Ret => (Ret, [0; 4], 0),
                Op::Exit => (Exit, [0; 4], 0),
            };
            let mut regs = [0u16; 4];
            let mut n = 0;
            for r in op.reads().into_iter().flatten().chain(op.writes()) {
                regs[n] = r;
                n += 1;
            }
            Decoded {
                kind,
                dst,
                a,
                b,
                c,
                imm,
                regs,
                n: n as u8,
                uses_l1_port: matches!(kind, Ldg | Stg | Lds | Sts),
                sfu: matches!(kind, FPow | FSqrt | FExp | FLog | FSin | FCos),
            }
        })
        .collect()
}

/// Per-warp-in-block initial state shared by every dispatch of the launch.
struct WarpInit {
    /// Valid-lane mask (partial warps when `blockDim % 32 != 0`).
    valid: u32,
    /// Per-lane threadIdx.{x,y,z} register images.
    tidx: [[u32; 32]; 3],
}

/// Everything about a dispatch that does not depend on *which* block is
/// dispatched, computed once per launch: per-warp lane-index tables (the
/// divisions in the old per-lane loop), the warp-uniform block/grid dims,
/// and the parameter register images.
struct DispatchTables {
    warps: Vec<WarpInit>,
    /// (register, value) pairs uniform across lanes and blocks.
    uniforms: [(u16, u32); 6],
    /// (register, image) pairs for the kernel parameters.
    params: Vec<(u16, [u32; 32])>,
}

impl DispatchTables {
    fn new(program: &Program, launch: LaunchConfig, args: &[Arg]) -> DispatchTables {
        let (bx, by) = (launch.block.x.max(1), launch.block.y.max(1));
        let threads = launch.threads_per_block();
        let warps = (0..launch.warps_per_block())
            .map(|wi| {
                let base_lin = wi * 32;
                let mut valid = 0u32;
                let mut tidx = [[0u32; 32]; 3];
                for lane in 0..32u32 {
                    let lin = base_lin + lane;
                    if lin < threads {
                        valid |= 1 << lane;
                    }
                    tidx[0][lane as usize] = lin % bx;
                    tidx[1][lane as usize] = (lin / bx) % by;
                    tidx[2][lane as usize] = lin / (bx * by);
                }
                WarpInit { valid, tidx }
            })
            .collect();
        let uniforms = [
            (builtin_reg(Builtin::BlockDimX), launch.block.x),
            (builtin_reg(Builtin::BlockDimY), launch.block.y),
            (builtin_reg(Builtin::BlockDimZ), launch.block.z),
            (builtin_reg(Builtin::GridDimX), launch.grid.x),
            (builtin_reg(Builtin::GridDimY), launch.grid.y),
            (builtin_reg(Builtin::GridDimZ), launch.grid.z),
        ];
        let params = program
            .param_regs
            .iter()
            .zip(args)
            .map(|(p, arg)| (*p, [arg.register_image(); 32]))
            .collect();
        DispatchTables {
            warps,
            uniforms,
            params,
        }
    }
}

/// Reusable per-launch SM storage: warp slots (register files included)
/// and TB slots survive from one SM to the next instead of being
/// reallocated per SM — the dominant allocation cost of a multi-SM launch.
#[derive(Default)]
struct SmWorkspace {
    warps: Vec<Warp>,
    tbs: Vec<TbSlot>,
}

impl SmWorkspace {
    /// Shape the warp and TB slots for one SM of this launch. Storage is
    /// reused whenever the geometry matches; warp register files are *not*
    /// cleared here — `Warp::reset` zeroes them at dispatch, exactly as
    /// the per-SM allocation path did.
    fn prepare(&mut self, program: &Program, resident: u32, warps_per_tb: u32) {
        let nwarps = (resident * warps_per_tb) as usize;
        let num_regs = program.num_regs as usize;
        if self.warps.len() != nwarps
            || self.warps.first().is_some_and(|w| w.regs.len() != num_regs)
        {
            self.warps = (0..nwarps).map(|_| Warp::idle(num_regs)).collect();
        } else {
            for w in &mut self.warps {
                w.state = WarpState::Idle;
            }
        }
        let smem_words = (program.smem_bytes as usize).div_ceil(4);
        if self.tbs.len() != resident as usize
            || self.tbs.first().is_some_and(|t| t.smem.len() != smem_words)
        {
            self.tbs = (0..resident)
                .map(|_| TbSlot {
                    block: None,
                    smem: vec![0; smem_words],
                })
                .collect();
        } else {
            for t in &mut self.tbs {
                t.block = None;
            }
        }
    }
}

/// The seam between *what a warp computes* and *when it issues*. [`Sm`]
/// owns the functional state and executes every op exactly once; through
/// these hooks it tells the timing side what the op means for time.
/// [`Timed`] is the cycle-level model; [`Untimed`] keeps every default — an
/// empty `#[inline]` body, the compile-out trick of [`NullSink`] — so the
/// functional driver carries no cache, port, scoreboard or scheduler code.
trait Timing {
    /// Warp slot `wi` was reset for a warp of a newly dispatched block.
    #[inline]
    fn warp_dispatched(&mut self, _wi: usize) {}
    /// Every warp of one block has been dispatched.
    #[inline]
    fn block_dispatched<S: ProfileSink>(&mut self) {}
    /// Warp `wi` was released from its barrier and is `Ready` again.
    #[inline]
    fn warp_released<S: ProfileSink>(&mut self, _wi: usize) {}
    /// Warp `wi` issued an ALU (`sfu`: special-function) op writing `dst`.
    #[inline]
    fn alu(&mut self, _cycle: u64, _wi: usize, _dst: u16, _sfu: bool) {}
    /// Warp `wi` issued a shared-memory load into `dst`, or a store (`None`).
    #[inline]
    fn shared(&mut self, _cycle: u64, _wi: usize, _dst: Option<u16>) {}
    /// Warp `wi` issued a global load into `dst`, or a store (`None`), of
    /// `addrs` in the lanes of mask `active`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn global<S: ProfileSink>(
        &mut self,
        _sink: &mut S,
        _cycle: u64,
        _wi: usize,
        _dst: Option<u16>,
        _addrs: &[u32; 32],
        _active: u32,
    ) {
    }
}

/// No timing at all: what [`run_functional`] instantiates [`Sm`] with.
struct Untimed;
impl Timing for Untimed {}

/// Everything that exists only because a run is timed: the L1D/L2 tag
/// stores, the two ports, the register scoreboard, and the GTO scheduler's
/// per-warp state — struct-of-arrays, so the per-cycle ready-scan and the
/// skip-ahead min-reduction never touch the heap-heavy [`Warp`] structs.
struct Timed {
    lat: Latencies,
    cache: L1Cache,
    /// This SM's slice of the shared L2 (`None` when the L2 is
    /// disabled, see [`GpuConfig::l2_slice_config`]). Probed only by
    /// L1D load misses; stores bypass it (write-through, no-allocate
    /// at both levels). The slice is per-SM: no timing state is shared
    /// across SMs, so each SM's timing is independent of the order the
    /// SMs are simulated in.
    l2: Option<L1Cache>,
    /// Next cycle the L1D port is free (1 transaction / cycle).
    l1_port_free: u64,
    /// Next cycle the off-chip port is free.
    offchip_free: u64,
    /// Per-warp wake time — the scheduler's event queue: a lower bound on
    /// the warp's next issue cycle, or `u64::MAX` while it is not Ready
    /// (`wake[i] < u64::MAX` ⟺ `warps[i].state == Ready`).
    wake: Vec<u64>,
    /// SoA mirror of `Warp::pc`, synced after every issue.
    soa_pc: Vec<u32>,
    /// SoA dispatch age for GTO arbitration (smaller = older).
    age: Vec<u64>,
    /// Each scheduler's partition in dispatch-age order, interleaved like
    /// the warp slots themselves: `order[s + k * nsched]` is scheduler
    /// `s`'s `k`-th oldest warp. Re-sorted in `block_dispatched`, the only
    /// place ages change.
    order: Vec<u32>,
    /// Flattened scoreboard: `ready[i * num_regs + r]`.
    ready: Vec<u64>,
    num_regs: usize,
    /// Per-scheduler last-issued warp (greedy part of GTO).
    last_issued: Vec<Option<usize>>,
    /// Per-scheduler lower bound on the next cycle its partition can
    /// issue. A failed `pick` scan leaves every partition warp's `wake`
    /// at its exact next issue time, so the min it saw is that bound;
    /// until then `pick` returns `None` in O(1) instead of re-scanning.
    /// Any event that can make a warp issuable earlier (block dispatch,
    /// barrier release) resets the bounds to 0, forcing a fresh scan.
    sched_next: Vec<u64>,
    dispatch_age: u64,
    /// Resident blocks currently holding a TB slot — the O(1) form of
    /// "any `tbs[..].block` is Some".
    resident_blocks: usize,
    /// Set when a warp parked at a barrier or finished since the last
    /// `release_barriers` pass: those are the only transitions that can
    /// newly satisfy a block's arrival condition, so the per-slot release
    /// scan is skipped entirely on all other cycles.
    barrier_dirty: bool,
    /// Set when a warp finished since the last `retire_and_refill` pass
    /// (a block can only retire once its last warp is Done) — and at SM
    /// start, to seed the initial dispatch.
    refill_dirty: bool,
    /// DYNCTA: number of resident-TB slots currently allowed to issue
    /// (slots at or beyond the limit are paused). Always `tbs.len()` when
    /// dynamic throttling is off.
    active_tb_limit: usize,
    /// DYNCTA sampling-window state: (window start cycle, busy cycles).
    dyncta_window: (u64, u64),
    /// Per-instruction request trace (`Some` on the traced SM only),
    /// handed to [`LaunchStats::trace`] when the run ends.
    trace: Option<RequestTrace>,
    /// Per-warp completion cycle of the latest global load issued (updated
    /// when profiling only): lets [`Sm::classify_stall`] tell long
    /// (memory) scoreboard waits from short (ALU-dependency) ones.
    prof_load_ready: Vec<u64>,
    /// Per-scheduler last stall classification (read and written when
    /// profiling only; see [`Sm::stall_reason`]). `None` once one of its
    /// inputs changed.
    stall_memo: Vec<Option<StallMemo>>,
}

/// A scheduler's last [`StallReason`], valid until its partition issues,
/// a block is dispatched, a barrier releases or `active_tb_limit` moves —
/// and, when `port` is `Some`, until the L1 port's free cycle leaves that
/// value (some Ready warp's next op waits on the port).
#[derive(Debug, Clone, Copy)]
struct StallMemo {
    reason: StallReason,
    port: Option<u64>,
}

impl Timed {
    /// Fresh timing state for one SM of `resident` TB slots.
    fn new(
        config: &GpuConfig,
        program: &Program,
        launch: LaunchConfig,
        resident: u32,
        trace: bool,
    ) -> Timed {
        let nwarps = (resident * launch.warps_per_block()) as usize;
        let num_regs = program.num_regs as usize;
        let nsched = config.schedulers_per_sm as usize;
        Timed {
            lat: config.latencies,
            cache: L1Cache::new(config.l1_config()),
            l2: config.l2_slice_config().map(L1Cache::new),
            l1_port_free: 0,
            offchip_free: 0,
            wake: vec![u64::MAX; nwarps],
            soa_pc: vec![0; nwarps],
            age: vec![0; nwarps],
            order: (0..nwarps as u32).collect(),
            ready: vec![0; nwarps * num_regs],
            num_regs,
            last_issued: vec![None; nsched],
            sched_next: vec![0; nsched],
            dispatch_age: 0,
            resident_blocks: 0,
            barrier_dirty: false,
            refill_dirty: true,
            active_tb_limit: resident as usize,
            dyncta_window: (0, 0),
            trace: trace.then(RequestTrace::default),
            prof_load_ready: vec![0; nwarps],
            stall_memo: vec![None; nsched],
        }
    }

    /// Drop every scheduler's memoized stall reason.
    fn forget_stalls(&mut self) {
        self.stall_memo.fill(None);
    }
}

impl Timing for Timed {
    #[inline]
    fn warp_dispatched(&mut self, wi: usize) {
        self.dispatch_age += 1;
        self.wake[wi] = 0;
        self.soa_pc[wi] = 0;
        self.age[wi] = self.dispatch_age;
        let base = wi * self.num_regs;
        self.ready[base..base + self.num_regs].fill(0);
        self.prof_load_ready[wi] = 0;
    }

    fn block_dispatched<S: ProfileSink>(&mut self) {
        self.resident_blocks += 1;
        // The block's warps are now the youngest of their partitions:
        // restore every scheduler's age order (a strided insertion sort —
        // the partitions are a few warps each and already nearly sorted).
        let nsched = self.last_issued.len();
        for p in nsched..self.order.len() {
            let mut q = p;
            while q >= nsched
                && self.age[self.order[q - nsched] as usize] > self.age[self.order[q] as usize]
            {
                self.order.swap(q - nsched, q);
                q -= nsched;
            }
        }
        // The fresh warps are issuable now: drop every scheduler's
        // cached next-issue bound (and stall reason).
        self.sched_next.fill(0);
        if S::ENABLED {
            self.forget_stalls();
        }
    }

    #[inline]
    fn warp_released<S: ProfileSink>(&mut self, wi: usize) {
        self.wake[wi] = 0;
        // A released warp is issuable now: drop the cached next-issue
        // bounds (and stall reasons).
        self.sched_next.fill(0);
        if S::ENABLED {
            self.forget_stalls();
        }
    }

    #[inline(always)]
    fn alu(&mut self, cycle: u64, wi: usize, dst: u16, sfu: bool) {
        let lat = if sfu { self.lat.sfu } else { self.lat.alu };
        self.ready[wi * self.num_regs + dst as usize] = cycle + lat;
    }

    #[inline]
    fn shared(&mut self, cycle: u64, wi: usize, dst: Option<u16>) {
        if let Some(dst) = dst {
            self.ready[wi * self.num_regs + dst as usize] = cycle + self.lat.shared;
        }
        self.l1_port_free = self.l1_port_free.max(cycle) + 1;
    }

    fn global<S: ProfileSink>(
        &mut self,
        sink: &mut S,
        cycle: u64,
        wi: usize,
        dst: Option<u16>,
        addrs: &[u32; 32],
        active: u32,
    ) {
        let (lines, n) = coalesce(&self.cache, addrs, active);
        if let Some(trace) = &mut self.trace {
            trace.record(n as u32);
        }
        let lat = self.lat;
        let start = self.l1_port_free.max(cycle);
        self.l1_port_free = start + n.max(1) as u64;
        let line_bytes = self.cache.config().line_bytes;
        let Some(dst) = dst else {
            for (k, la) in lines[..n].iter().enumerate() {
                let t = start + k as u64;
                let set = self.cache.access_store(la * line_bytes);
                if S::ENABLED {
                    sink.l1_store(set, *la);
                }
                self.offchip_free = self.offchip_free.max(t) + lat.offchip_port;
            }
            return;
        };
        let mut data_ready = cycle + lat.l1_hit;
        for (k, la) in lines[..n].iter().enumerate() {
            let t = start + k as u64;
            let offchip_free = &mut self.offchip_free;
            let l2 = &mut self.l2;
            let mut l2_probe = None;
            let res = self.cache.access_load(la * line_bytes, t, lat.l1_hit, || {
                // Off-chip port first: L2 hits and misses both cross the
                // SM's off-chip interface, so the bandwidth limit — the
                // contention effect CATT exploits — is independent of the
                // L2-hit/DRAM latency split below.
                *offchip_free = (*offchip_free).max(t) + lat.offchip_port;
                let issue = *offchip_free;
                match l2 {
                    Some(l2) => {
                        let r = l2.access_load(la * line_bytes, issue, lat.l2_hit, || {
                            issue + lat.offchip
                        });
                        l2_probe = Some((r.hit, r.evicted));
                        r.data_ready
                    }
                    None => issue + lat.offchip,
                }
            });
            if S::ENABLED {
                sink.l1_load(res.set, *la, res.hit, res.evicted);
                if let Some((hit, evicted)) = l2_probe {
                    sink.l2_load(hit, evicted);
                }
            }
            data_ready = data_ready.max(res.data_ready);
        }
        if S::ENABLED {
            self.prof_load_ready[wi] = self.prof_load_ready[wi].max(data_ready);
        }
        self.ready[wi * self.num_regs + dst as usize] = data_ready;
    }
}

struct Sm<'a, S: ProfileSink, T: Timing> {
    config: &'a GpuConfig,
    program: &'a Program,
    /// The launch's decoded op table, indexed by pc.
    decoded: &'a [Decoded],
    /// Launch-wide dispatch precomputation.
    tables: &'a DispatchTables,
    launch: LaunchConfig,
    mem: &'a mut GlobalMem,
    /// Current cycle (stays 0 on the functional instantiation).
    cycle: u64,
    warps: Vec<Warp>,
    tbs: Vec<TbSlot>,
    /// Cycle-fuel budget for this launch. The timed run loop checks it at
    /// the top of every iteration, so skip-ahead jumps are charged too.
    fuel: u64,
    stats: LaunchStats,
    /// Profiling sink — [`NullSink`] when profiling is off, in which case
    /// every hook call below compiles to nothing.
    sink: &'a mut S,
    /// Launch-wide sanitizer state (`None` when sanitize mode is off).
    /// Shared by every SM of the launch, so inter-block races across SMs
    /// are observed.
    san: Option<&'a mut SanitizerState>,
    /// The timing side: [`Timed`] or [`Untimed`].
    t: T,
}

/// The timed driver: the event-driven run loop, GTO arbitration, DYNCTA.
impl<S: ProfileSink> Sm<'_, S, Timed> {
    /// DYNCTA-style dynamic adjustment (paper §2.2): at each sampling
    /// window boundary, compare the fraction of issue slots lost to
    /// stalls against the thresholds and pause/resume one resident block.
    /// This is the reactive baseline — it pays a warm-up window before
    /// reacting and re-converges after every phase change, which is
    /// exactly the lag CATT's compile-time decisions avoid.
    fn dyncta_tick(&mut self, issued: bool) {
        let Some(cfg) = self.config.dyncta else {
            return;
        };
        if issued {
            self.t.dyncta_window.1 += 1;
        }
        let elapsed = self.cycle - self.t.dyncta_window.0;
        if elapsed < cfg.window {
            return;
        }
        let busy = self.t.dyncta_window.1 as f64 / elapsed as f64;
        let stall = 1.0 - busy;
        let limit = self.t.active_tb_limit;
        if stall > cfg.t_high && limit > 1 {
            self.t.active_tb_limit -= 1;
        } else if stall < cfg.t_low && limit < self.tbs.len() {
            self.t.active_tb_limit += 1;
        }
        if S::ENABLED && self.t.active_tb_limit != limit {
            self.t.forget_stalls();
        }
        self.t.dyncta_window = (self.cycle, 0);
    }

    fn run(&mut self, mut pending: VecDeque<u32>) -> Result<LaunchStats, SimError> {
        let mut next_poll = 0;
        loop {
            // Sits next to the fuel check so both launch bounds share one
            // exit point.
            if cancel_due(self.config, self.stats.instructions, &mut next_poll) {
                return Err(SimError::Cancelled {
                    kernel: self.program.name.clone(),
                    cycles: self.cycle,
                });
            }
            if self.cycle >= self.fuel {
                if S::ENABLED {
                    // Fuel cut the launch short: charge the cut-off
                    // slot to its own reason so fuel-bounded shards
                    // are identifiable in the breakdown.
                    self.sink
                        .stall(StallReason::Fuel, self.t.last_issued.len() as u64);
                }
                return Err(self.out_of_fuel());
            }
            // Barrier release and TB retire/refill can only become
            // possible after a warp parks or finishes — both transitions
            // happen exclusively in `issue`, which raises the matching
            // dirty flag. All other cycles skip the per-slot scans
            // entirely (they would be no-ops).
            if self.t.barrier_dirty {
                self.t.barrier_dirty = false;
                self.release_barriers()?;
            }
            if self.t.refill_dirty {
                self.t.refill_dirty = false;
                self.retire_and_refill(&mut pending);
            }
            if pending.is_empty() && self.t.resident_blocks == 0 {
                break;
            }
            let mut issued = false;
            for sched in 0..self.t.last_issued.len() {
                if let Some(w) = self.pick(sched) {
                    self.issue(w)?;
                    self.sync_after_issue(w);
                    self.t.last_issued[sched] = Some(w);
                    if S::ENABLED {
                        self.t.stall_memo[sched] = None;
                    }
                    issued = true;
                } else if S::ENABLED {
                    // Unused issue slot: classify and charge exactly one
                    // stall cycle, so per-SM slots always reconcile:
                    //   instructions + Σ stall_cycles = cycles × schedulers.
                    let reason = self.stall_reason(sched);
                    self.sink.stall(reason, 1);
                }
            }
            self.cycle += 1;
            self.dyncta_tick(issued);
            if !issued {
                match self.earliest_wakeup() {
                    Some(t) => {
                        // Clamp the jump to the fuel limit: a skip landing
                        // past `fuel` would report an exhaustion cycle
                        // count (and charge profiled stall slots) beyond
                        // the configured budget.
                        let t = t.min(self.fuel);
                        if S::ENABLED && t > self.cycle {
                            // Skip-ahead: nothing can issue before `t`, so
                            // every scheduler loses the jumped-over cycles
                            // to the same reason it just stalled for (no
                            // state can change while nothing issues).
                            let delta = t - self.cycle;
                            for sched in 0..self.t.last_issued.len() {
                                let reason = self.stall_reason(sched);
                                self.sink.stall(reason, delta);
                            }
                        }
                        self.cycle = self.cycle.max(t);
                    }
                    None => {
                        if self.t.active_tb_limit < self.tbs.len() {
                            // Everything schedulable is done but paused
                            // blocks remain: resume them.
                            self.t.active_tb_limit = self.tbs.len();
                            if S::ENABLED {
                                self.t.forget_stalls();
                            }
                            continue;
                        }
                        // No Ready warp can ever issue. Barriers release at
                        // the top of the loop; reaching here with parked
                        // warps means a real deadlock — a peer that will
                        // never arrive.
                        let parked = self.parked_warps();
                        if parked > 0 {
                            return Err(SimError::BarrierDeadlock {
                                kernel: self.program.name.clone(),
                                parked_warps: parked,
                            });
                        }
                    }
                }
            }
        }
        let mut stats = std::mem::take(&mut self.stats);
        stats.trace = self.t.trace.take().unwrap_or_default();
        stats.cycles = self.cycle;
        stats.l1_accesses = self.t.cache.accesses;
        stats.l1_hits = self.t.cache.hits + self.t.cache.mshr_merges;
        stats.offchip_requests = self.t.cache.offchip_requests;
        if let Some(l2) = &self.t.l2 {
            stats.l2_accesses = l2.accesses;
            stats.l2_hits = l2.hits + l2.mshr_merges;
            stats.l2_evictions = l2.evictions;
        }
        if S::ENABLED {
            self.sink.sm_end(
                stats.cycles,
                self.t.last_issued.len() as u32,
                stats.instructions,
            );
        }
        Ok(stats)
    }

    /// Attribute a scheduler's unused issue slot to a [`StallReason`] by
    /// inspecting its warp partition (profiling only; pure observation,
    /// never perturbs scheduling). The earliest-waking Ready warp decides
    /// between `Memory` (L1-port serialization or an outstanding load's
    /// data) and `Scoreboard` (short ALU dependency — heuristic: a wait
    /// that ends at or before the warp's latest load completion counts as
    /// memory); with no Ready warp, parked warps mean `Barrier`,
    /// throttle-paused ones `Throttled`, and an empty or finished
    /// partition `Idle`. Also says whether some Ready warp's next op uses
    /// the L1 port (then the reason depends on the port's free cycle).
    fn classify_stall(&self, sched: usize) -> (StallReason, bool) {
        let nsched = self.t.last_issued.len();
        let mut best: Option<(u64, StallReason)> = None;
        let mut any_barrier = false;
        let mut any_throttled = false;
        let mut uses_port = false;
        for i in (sched..self.warps.len()).step_by(nsched) {
            let w = &self.warps[i];
            match w.state {
                WarpState::AtBarrier => any_barrier = true,
                WarpState::Ready => {
                    if (w.tb_slot as usize) >= self.t.active_tb_limit {
                        any_throttled = true;
                        continue;
                    }
                    let a = &self.decoded[self.t.soa_pc[i] as usize];
                    let mut reg_t = self.cycle;
                    let base = i * self.t.num_regs;
                    for &r in &a.regs[..a.n as usize] {
                        reg_t = reg_t.max(self.t.ready[base + r as usize]);
                    }
                    uses_port |= a.uses_l1_port;
                    let port_t = if a.uses_l1_port {
                        self.t.l1_port_free
                    } else {
                        0
                    };
                    let t = reg_t.max(port_t);
                    // Memory if the wait is on the L1 port, or if it ends at or
                    // before the warp's latest outstanding-load completion (a
                    // register dependency on load data); otherwise scoreboard.
                    let memory = (a.uses_l1_port && port_t >= reg_t && port_t > self.cycle)
                        || t <= self.t.prof_load_ready[i];
                    let reason = if memory {
                        StallReason::Memory
                    } else {
                        StallReason::Scoreboard
                    };
                    match best {
                        Some((bt, _)) if bt <= t => {}
                        _ => best = Some((t, reason)),
                    }
                }
                _ => {}
            }
        }
        let reason = match best {
            Some((_, reason)) => reason,
            None if any_barrier => StallReason::Barrier,
            None if any_throttled => StallReason::Throttled,
            None => StallReason::Idle,
        };
        (reason, uses_port)
    }

    /// [`Sm::classify_stall`], memoized per scheduler. It is called only
    /// while the partition cannot issue, so every Ready warp's wait ends
    /// after the current cycle and the scan's answer does not depend on
    /// the cycle — only on the partition's warps (which change when one
    /// of them issues), on block dispatch, barrier release and
    /// `active_tb_limit`, and on the L1 port's free cycle when a Ready
    /// warp waits on the port. [`StallMemo`] is dropped on each of those.
    fn stall_reason(&mut self, sched: usize) -> StallReason {
        let port = self.t.l1_port_free;
        if let Some(memo) = self.t.stall_memo[sched] {
            if memo.port.is_none_or(|p| p == port) {
                debug_assert_eq!(memo.reason, self.classify_stall(sched).0);
                return memo.reason;
            }
        }
        let (reason, uses_port) = self.classify_stall(sched);
        self.t.stall_memo[sched] = Some(StallMemo {
            reason,
            port: uses_port.then_some(port),
        });
        reason
    }

    fn retire_and_refill(&mut self, pending: &mut VecDeque<u32>) {
        for slot in 0..self.tbs.len() {
            if self.tbs[slot].block.is_some() {
                let lo = slot * self.tables.warps.len();
                let hi = lo + self.tables.warps.len();
                if self.warps[lo..hi]
                    .iter()
                    .all(|w| w.state == WarpState::Done)
                {
                    if S::ENABLED {
                        if let Some(b) = self.tbs[slot].block {
                            self.sink.tb_end(slot, b, self.cycle);
                        }
                    }
                    self.tbs[slot].block = None;
                    self.t.resident_blocks -= 1;
                    for w in &mut self.warps[lo..hi] {
                        w.state = WarpState::Idle;
                    }
                }
            }
            if self.tbs[slot].block.is_none() {
                if let Some(block) = pending.pop_front() {
                    self.dispatch(slot, block);
                }
            }
        }
    }

    // ----- scheduling ----------------------------------------------------

    /// Re-establish the SoA invariants for warp `w` after it issued: sync
    /// the pc mirror, reset its wake time (still schedulable this cycle if
    /// Ready, `u64::MAX` otherwise), and raise the dirty flags for the
    /// state transitions that can unlock other warps or TB slots.
    #[inline]
    fn sync_after_issue(&mut self, w: usize) {
        self.t.soa_pc[w] = self.warps[w].pc;
        match self.warps[w].state {
            WarpState::Ready => self.t.wake[w] = self.cycle,
            WarpState::AtBarrier => {
                self.t.wake[w] = u64::MAX;
                // Parking may complete its block's arrival condition.
                self.t.barrier_dirty = true;
            }
            WarpState::Done => {
                self.t.wake[w] = u64::MAX;
                // Finishing counts as "arrived" for sibling barriers and
                // may retire the block.
                self.t.barrier_dirty = true;
                self.t.refill_dirty = true;
            }
            // An issued warp is never Idle; park it defensively (a parked
            // warp can only under-schedule, never corrupt results).
            WarpState::Idle => self.t.wake[w] = u64::MAX,
        }
    }

    /// Earliest cycle at which Ready warp `i` could issue its next
    /// instruction. Consults only the SoA state (pc mirror, flattened
    /// scoreboard) and the decoded op — this runs on every ready-check of
    /// every scheduler and must not touch `Warp`.
    #[inline]
    fn issue_time(&self, i: usize) -> u64 {
        debug_assert_eq!(self.warps[i].state, WarpState::Ready);
        let a = &self.decoded[self.t.soa_pc[i] as usize];
        let mut t = self.cycle;
        let base = i * self.t.num_regs;
        for &r in &a.regs[..a.n as usize] {
            t = t.max(self.t.ready[base + r as usize]);
        }
        if a.uses_l1_port {
            t = t.max(self.t.l1_port_free);
        }
        t
    }

    /// GTO pick for one scheduler: keep issuing the last warp while it is
    /// ready; otherwise the oldest ready warp — the first issuable one in
    /// the partition's dispatch-age order, where the scan stops. `wake`
    /// filters out warps whose last computed stall has not elapsed (and,
    /// at `u64::MAX`, everything not Ready), so the costlier scoreboard
    /// check in `issue_time` runs once per stall instead of every cycle.
    /// Warps behind an early exit keep a stale-low `wake` (it is only ever
    /// a lower bound); a *failed* scan visits the whole partition, so the
    /// bounds it leaves behind are exactly what the skip-ahead
    /// min-reduction jumps to.
    fn pick(&mut self, sched: usize) -> Option<usize> {
        let cycle = self.cycle;
        let nsched = self.t.last_issued.len();
        // The throttle filter dereferences `warps[i].tb_slot`; hoist the
        // "is anything throttled at all" test so the common (untrottled)
        // scan never touches the warp structs.
        let throttling = self.t.active_tb_limit < self.tbs.len();
        let choice = 'scan: {
            // O(1) fast path: a previous failed scan proved nothing in
            // this partition can issue before `sched_next[sched]`.
            if cycle < self.t.sched_next[sched] {
                break 'scan None;
            }
            if let Some(last) = self.t.last_issued[sched] {
                if self.t.wake[last] <= cycle
                    && (!throttling || (self.warps[last].tb_slot as usize) < self.t.active_tb_limit)
                {
                    let t = self.issue_time(last);
                    if t <= cycle {
                        break 'scan Some(last);
                    }
                    self.t.wake[last] = t;
                }
            }
            // Min wake over the whole partition, throttled warps included
            // (a paused warp's stale-low wake keeps the bound conservative,
            // so a resume never needs to invalidate it).
            let mut next = u64::MAX;
            for p in (sched..self.t.order.len()).step_by(nsched) {
                let i = self.t.order[p] as usize;
                let mut wk = self.t.wake[i];
                if wk <= cycle
                    && !(throttling && (self.warps[i].tb_slot as usize) >= self.t.active_tb_limit)
                {
                    wk = self.issue_time(i);
                    if wk <= cycle {
                        break 'scan Some(i);
                    }
                    self.t.wake[i] = wk;
                }
                next = next.min(wk); // u64::MAX stays u64::MAX
            }
            self.t.sched_next[sched] = next;
            None
        };
        debug_assert_eq!(choice, self.pick_exhaustive(sched));
        choice
    }

    /// The GTO choice by definition, from warp state alone (no `wake`, no
    /// age order): the last-issued warp if it can issue, else the oldest
    /// issuable warp of the whole partition. Debug builds check every
    /// `pick` against it; release builds compile the call out.
    fn pick_exhaustive(&self, sched: usize) -> Option<usize> {
        let issuable = |i: usize| {
            self.warps[i].state == WarpState::Ready
                && (self.warps[i].tb_slot as usize) < self.t.active_tb_limit
                && self.issue_time(i) <= self.cycle
        };
        self.t.last_issued[sched]
            .filter(|&last| issuable(last))
            .or_else(|| {
                (sched..self.warps.len())
                    .step_by(self.t.last_issued.len())
                    .filter(|&i| issuable(i))
                    .min_by_key(|&i| self.t.age[i])
            })
    }

    /// Minimum future issue time over all Ready warps (for idle-cycle
    /// skip-ahead), or `None` when nothing is Ready. Called only after
    /// every scheduler's `pick` failed, so `wake` entries are exact here:
    /// the failed scans recomputed every Ready warp that had reached its
    /// previous bound, and everything else holds `u64::MAX`.
    fn earliest_wakeup(&self) -> Option<u64> {
        let t = if self.t.active_tb_limit < self.tbs.len() {
            // Dynamic throttling active: paused-slot warps must not drive
            // the jump (they cannot issue until resumed).
            self.t
                .wake
                .iter()
                .enumerate()
                .filter(|&(i, &t)| {
                    t != u64::MAX && (self.warps[i].tb_slot as usize) < self.t.active_tb_limit
                })
                .map(|(_, &t)| t)
                .min()
        } else {
            // Unthrottled: every scheduler's pick this cycle either
            // scanned (recomputing its bound) or fast-pathed on a bound
            // that is still the exact partition min — so the global min
            // is the min over the per-scheduler bounds, O(schedulers)
            // instead of O(warps).
            self.t
                .sched_next
                .iter()
                .copied()
                .min()
                .filter(|&t| t != u64::MAX)
        };
        t.map(|t| t.max(self.cycle))
    }
}

/// What a warp computes: dispatch, barrier release, `issue` and every
/// sanitizer check exist once, shared by the timed and functional drivers.
impl<S: ProfileSink, T: Timing> Sm<'_, S, T> {
    /// Warps currently parked at a `__syncthreads()` barrier.
    fn parked_warps(&self) -> usize {
        self.warps
            .iter()
            .filter(|w| w.state == WarpState::AtBarrier)
            .count()
    }

    /// The fuel ran out: classify the failure. Warps still parked at a
    /// barrier mean a peer never arrived (e.g. a spinning sibling warp) —
    /// report that as the deadlock it is; otherwise it is a plain runaway.
    fn out_of_fuel(&self) -> SimError {
        let parked = self.parked_warps();
        if parked > 0 {
            SimError::BarrierDeadlock {
                kernel: self.program.name.clone(),
                parked_warps: parked,
            }
        } else {
            SimError::FuelExhausted {
                kernel: self.program.name.clone(),
                cycles: self.cycle,
            }
        }
    }

    // ----- dispatch ------------------------------------------------------

    fn dispatch(&mut self, slot: usize, block: u32) {
        self.tbs[slot].block = Some(block);
        self.tbs[slot].smem.fill(0);
        self.stats.tbs += 1;
        if S::ENABLED {
            self.sink.tb_start(slot, block, self.cycle);
        }
        let (gx, gy) = (self.launch.grid.x, self.launch.grid.y);
        // Warp-uniform values: the block indices vary per dispatch, the
        // dims/params come from the launch-wide tables. All are written
        // as one `[v; 32]` store per register instead of 32 scalar writes
        // per lane; the per-lane threadIdx divisions were precomputed
        // once in `DispatchTables::new`.
        let block_idx = [
            (builtin_reg(Builtin::BlockIdxX), block % gx),
            (builtin_reg(Builtin::BlockIdxY), (block / gx) % gy),
            (builtin_reg(Builtin::BlockIdxZ), block / (gx * gy)),
        ];
        let tables = self.tables;
        let lo = slot * tables.warps.len();
        for (wi, init) in tables.warps.iter().enumerate() {
            let w = &mut self.warps[lo + wi];
            w.reset(init.valid, slot as u32);
            self.t.warp_dispatched(lo + wi);
            self.stats.warps += 1;
            if S::ENABLED {
                self.sink.warp_begin(lo + wi, block, self.cycle);
            }
            w.regs[builtin_reg(Builtin::ThreadIdxX) as usize] = init.tidx[0];
            w.regs[builtin_reg(Builtin::ThreadIdxY) as usize] = init.tidx[1];
            w.regs[builtin_reg(Builtin::ThreadIdxZ) as usize] = init.tidx[2];
            for &(r, v) in &block_idx {
                w.regs[r as usize] = [v; 32];
            }
            for &(r, v) in &tables.uniforms {
                w.regs[r as usize] = [v; 32];
            }
            for (r, image) in &tables.params {
                w.regs[*r as usize] = *image;
            }
        }
        self.t.block_dispatched::<S>();
    }

    /// Release barriers by arrival count: once every non-finished warp of
    /// a block is parked, all parked warps resume. Done warps count as
    /// arrived, so partial blocks never deadlock — a forgiving semantics
    /// that masks divergent barriers; under sanitize mode, the release
    /// point additionally checks barrier-*site* identity (every parked
    /// warp at the same pc with the same dynamic arrival count, no
    /// finished warp short of that count) and reports
    /// [`SanitizerKind::BarrierDivergence`] when it fails.
    fn release_barriers(&mut self) -> Result<(), SimError> {
        for slot in 0..self.tbs.len() {
            if self.tbs[slot].block.is_none() {
                continue;
            }
            let lo = slot * self.tables.warps.len();
            let hi = lo + self.tables.warps.len();
            let ws = &mut self.warps[lo..hi];
            let any_parked = ws.iter().any(|w| w.state == WarpState::AtBarrier);
            let all_arrived = ws
                .iter()
                .all(|w| matches!(w.state, WarpState::AtBarrier | WarpState::Done));
            if any_parked && all_arrived {
                if self.san.is_some() {
                    if let Some(report) = barrier_site_mismatch(ws, self.tbs[slot].block) {
                        return Err(SimError::Sanitizer(SanitizerReport {
                            kernel: self.program.name.clone(),
                            ..report
                        }));
                    }
                }
                for (off, w) in ws.iter_mut().enumerate() {
                    if w.state == WarpState::AtBarrier {
                        w.state = WarpState::Ready;
                        self.t.warp_released::<S>(lo + off);
                        if S::ENABLED {
                            self.sink.warp_release(lo + off, self.cycle);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    // ----- execution -----------------------------------------------------

    /// A divergence-stack mismatch is a lowering bug; surfacing it as
    /// [`SimError::MalformedProgram`] keeps one bad program from killing a
    /// whole evaluation worker.
    fn malformed(&self, pc: usize, message: &str) -> SimError {
        SimError::MalformedProgram {
            kernel: self.program.name.clone(),
            pc: pc as u32,
            message: message.to_string(),
        }
    }

    #[inline]
    fn issue(&mut self, wi: usize) -> Result<(), SimError> {
        self.stats.instructions += 1;
        let pc = self.warps[wi].pc as usize;
        let decoded = self.decoded;
        let d = &decoded[pc];
        // One dispatch on the flattened kind. Each ALU arm hands
        // `Sm::alu` a lane function with its operator a constant, so the
        // scalar `ibin`/`fbin`/`fun`/`cmp` definitions inline to a single
        // branch-free 32-lane loop per arm.
        match d.kind {
            Kind::MovImm => self.alu(wi, d, |_, _, _| d.imm),
            Kind::Mov => self.alu(wi, d, |a, _, _| a),
            Kind::IAdd => self.alu(wi, d, |a, b, _| ibin(IBinOp::Add, a, b)),
            Kind::ISub => self.alu(wi, d, |a, b, _| ibin(IBinOp::Sub, a, b)),
            Kind::IMul => self.alu(wi, d, |a, b, _| ibin(IBinOp::Mul, a, b)),
            Kind::IDiv => self.alu(wi, d, |a, b, _| ibin(IBinOp::Div, a, b)),
            Kind::IRem => self.alu(wi, d, |a, b, _| ibin(IBinOp::Rem, a, b)),
            Kind::IMin => self.alu(wi, d, |a, b, _| ibin(IBinOp::Min, a, b)),
            Kind::IMax => self.alu(wi, d, |a, b, _| ibin(IBinOp::Max, a, b)),
            Kind::IShl => self.alu(wi, d, |a, b, _| ibin(IBinOp::Shl, a, b)),
            Kind::IShr => self.alu(wi, d, |a, b, _| ibin(IBinOp::Shr, a, b)),
            Kind::IAnd => self.alu(wi, d, |a, b, _| ibin(IBinOp::And, a, b)),
            Kind::IOr => self.alu(wi, d, |a, b, _| ibin(IBinOp::Or, a, b)),
            Kind::IXor => self.alu(wi, d, |a, b, _| ibin(IBinOp::Xor, a, b)),
            Kind::FAdd => self.alu(wi, d, |a, b, _| fbin(FBinOp::Add, a, b)),
            Kind::FSub => self.alu(wi, d, |a, b, _| fbin(FBinOp::Sub, a, b)),
            Kind::FMul => self.alu(wi, d, |a, b, _| fbin(FBinOp::Mul, a, b)),
            Kind::FDiv => self.alu(wi, d, |a, b, _| fbin(FBinOp::Div, a, b)),
            Kind::FMin => self.alu(wi, d, |a, b, _| fbin(FBinOp::Min, a, b)),
            Kind::FMax => self.alu(wi, d, |a, b, _| fbin(FBinOp::Max, a, b)),
            Kind::FPow => self.alu(wi, d, |a, b, _| fbin(FBinOp::Pow, a, b)),
            Kind::CmpLtI => self.alu(wi, d, |a, b, _| cmp(CmpOp::Lt, false, a, b) as u32),
            Kind::CmpLeI => self.alu(wi, d, |a, b, _| cmp(CmpOp::Le, false, a, b) as u32),
            Kind::CmpGtI => self.alu(wi, d, |a, b, _| cmp(CmpOp::Gt, false, a, b) as u32),
            Kind::CmpGeI => self.alu(wi, d, |a, b, _| cmp(CmpOp::Ge, false, a, b) as u32),
            Kind::CmpEqI => self.alu(wi, d, |a, b, _| cmp(CmpOp::Eq, false, a, b) as u32),
            Kind::CmpNeI => self.alu(wi, d, |a, b, _| cmp(CmpOp::Ne, false, a, b) as u32),
            Kind::CmpLtF => self.alu(wi, d, |a, b, _| cmp(CmpOp::Lt, true, a, b) as u32),
            Kind::CmpLeF => self.alu(wi, d, |a, b, _| cmp(CmpOp::Le, true, a, b) as u32),
            Kind::CmpGtF => self.alu(wi, d, |a, b, _| cmp(CmpOp::Gt, true, a, b) as u32),
            Kind::CmpGeF => self.alu(wi, d, |a, b, _| cmp(CmpOp::Ge, true, a, b) as u32),
            Kind::CmpEqF => self.alu(wi, d, |a, b, _| cmp(CmpOp::Eq, true, a, b) as u32),
            Kind::CmpNeF => self.alu(wi, d, |a, b, _| cmp(CmpOp::Ne, true, a, b) as u32),
            Kind::FNeg => self.alu(wi, d, |a, _, _| fun(FUnOp::Neg, a)),
            Kind::FSqrt => self.alu(wi, d, |a, _, _| fun(FUnOp::Sqrt, a)),
            Kind::FExp => self.alu(wi, d, |a, _, _| fun(FUnOp::Exp, a)),
            Kind::FLog => self.alu(wi, d, |a, _, _| fun(FUnOp::Log, a)),
            Kind::FAbs => self.alu(wi, d, |a, _, _| fun(FUnOp::Abs, a)),
            Kind::FSin => self.alu(wi, d, |a, _, _| fun(FUnOp::Sin, a)),
            Kind::FCos => self.alu(wi, d, |a, _, _| fun(FUnOp::Cos, a)),
            Kind::INeg => self.alu(wi, d, |a, _, _| (a as i32).wrapping_neg() as u32),
            Kind::IAbs => self.alu(wi, d, |a, _, _| (a as i32).wrapping_abs() as u32),
            Kind::Not => self.alu(wi, d, |a, _, _| (a == 0) as u32),
            Kind::Sel => self.alu(wi, d, |a, b, c| if c != 0 { a } else { b }),
            Kind::CvtIF => self.alu(wi, d, |a, _, _| (a as i32 as f32).to_bits()),
            Kind::CvtFI => self.alu(wi, d, |a, _, _| (f32::from_bits(a) as i32) as u32),
            Kind::Ldg => {
                if self.san.is_some() {
                    self.sanitize_global(wi, d.a, false)?;
                }
                let w = &mut self.warps[wi];
                let addrs = w.regs[d.a as usize];
                let active = w.active;
                let dst = &mut w.regs[d.dst as usize];
                for_active_lanes(active, |l| dst[l] = self.mem.load(addrs[l]));
                w.pc += 1;
                self.t
                    .global(self.sink, self.cycle, wi, Some(d.dst), &addrs, active);
            }
            Kind::Stg => {
                if self.san.is_some() {
                    self.sanitize_global(wi, d.a, true)?;
                }
                let w = &mut self.warps[wi];
                let addrs = w.regs[d.a as usize];
                let vals = w.regs[d.b as usize];
                let active = w.active;
                for_active_lanes(active, |l| self.mem.store(addrs[l], vals[l]));
                w.pc += 1;
                self.t
                    .global(self.sink, self.cycle, wi, None, &addrs, active);
            }
            Kind::Lds => {
                let slot = self.warps[wi].tb_slot as usize;
                self.sanitize_shared(wi, d.a, "loads")?;
                let w = &mut self.warps[wi];
                let addrs = w.regs[d.a as usize];
                let active = w.active;
                let smem = &self.tbs[slot].smem;
                // Branchless like `Sm::alu`: load every lane (a clamped
                // read is total), mask at the write.
                let mut vals = [0u32; 32];
                for l in 0..32 {
                    vals[l] = smem.get(addrs[l] as usize / 4).copied().unwrap_or(0);
                }
                write_lanes(&mut w.regs[d.dst as usize], &vals, active);
                w.pc += 1;
                self.t.shared(self.cycle, wi, Some(d.dst));
            }
            Kind::Sts => {
                let slot = self.warps[wi].tb_slot as usize;
                self.sanitize_shared(wi, d.a, "stores to")?;
                let w = &mut self.warps[wi];
                let addrs = w.regs[d.a as usize];
                let vals = w.regs[d.b as usize];
                let active = w.active;
                let smem = &mut self.tbs[slot].smem;
                for_active_lanes(active, |l| {
                    if let Some(word) = smem.get_mut(addrs[l] as usize / 4) {
                        *word = vals[l];
                    }
                });
                w.pc += 1;
                self.t.shared(self.cycle, wi, None);
            }
            Kind::Bar => {
                let w = &mut self.warps[wi];
                if self.san.is_some() {
                    // `__syncthreads()` must be reached by every lane of
                    // the warp that has not returned; a partial mask means
                    // the barrier sits under thread-divergent control flow
                    // (undefined behaviour on hardware).
                    let expected = w.valid & !w.exited;
                    if w.active != expected {
                        return Err(SimError::Sanitizer(SanitizerReport {
                            kind: SanitizerKind::BarrierDivergence,
                            kernel: self.program.name.clone(),
                            pc: pc as u32,
                            detail: format!(
                                "__syncthreads() under intra-warp divergence: active lane \
                                 mask {:#010x}, but all non-exited lanes {:#010x} must \
                                 arrive together",
                                w.active, expected
                            ),
                        }));
                    }
                }
                w.bar_pc = pc as u32;
                w.bar_count += 1;
                w.state = WarpState::AtBarrier;
                w.pc += 1;
                if S::ENABLED {
                    self.sink.warp_barrier(wi, self.cycle);
                }
            }
            Kind::If => {
                let w = &mut self.warps[wi];
                let cond_lanes = w.predicate_mask(d.a);
                let taken = w.active & cond_lanes;
                let fallthru = w.active & !cond_lanes;
                if taken != 0 {
                    w.stack.push(Frame::If {
                        restore: w.active,
                        else_mask: fallthru,
                    });
                    w.active = taken;
                    w.pc += 1;
                } else {
                    // No lane takes the then-branch: go straight to the
                    // else branch (or EndIf) with the else mask consumed.
                    w.stack.push(Frame::If {
                        restore: w.active,
                        else_mask: 0,
                    });
                    w.active = fallthru;
                    w.pc = d.imm;
                }
            }
            Kind::Else => {
                let w = &mut self.warps[wi];
                let Some(Frame::If { else_mask, .. }) = w.stack.last_mut() else {
                    return Err(self.malformed(pc, "Else without If frame"));
                };
                let em = *else_mask;
                if em != 0 {
                    *else_mask = 0;
                    w.active = em & !w.exited;
                    w.pc += 1;
                } else {
                    w.pc = d.imm;
                }
            }
            Kind::EndIf => {
                let w = &mut self.warps[wi];
                let Some(Frame::If { restore, .. }) = w.stack.pop() else {
                    return Err(self.malformed(pc, "EndIf without If frame"));
                };
                w.active = restore & !w.exited & w.innermost_loop_live();
                w.pc += 1;
            }
            Kind::LoopBegin => {
                let w = &mut self.warps[wi];
                w.stack.push(Frame::Loop {
                    restore: w.active,
                    live: w.active,
                    end_pc: d.imm,
                });
                w.pc += 1;
            }
            Kind::LoopTest => {
                let w = &mut self.warps[wi];
                let cond_lanes = w.predicate_mask(d.a);
                let exited = w.exited;
                let Some(Frame::Loop {
                    live,
                    end_pc,
                    restore,
                }) = w.stack.last_mut()
                else {
                    return Err(self.malformed(pc, "LoopTest without Loop frame"));
                };
                *live &= cond_lanes & !exited;
                if *live == 0 {
                    let (end_pc, restore) = (*end_pc, *restore);
                    w.stack.pop();
                    w.active = restore & !w.exited & w.innermost_loop_live();
                    w.pc = end_pc;
                } else {
                    w.active = *live;
                    w.pc += 1;
                }
            }
            Kind::LoopJump => {
                let w = &mut self.warps[wi];
                let Some(Frame::Loop { live, .. }) = w.stack.last() else {
                    return Err(self.malformed(pc, "LoopJump without Loop frame"));
                };
                w.active = *live;
                w.pc = d.imm;
            }
            Kind::Break => {
                let w = &mut self.warps[wi];
                let breaking = w.active;
                let mut found = false;
                for f in w.stack.iter_mut().rev() {
                    if let Frame::Loop { live, .. } = f {
                        *live &= !breaking;
                        found = true;
                        break;
                    }
                }
                if !found {
                    return Err(self.malformed(pc, "Break outside loop"));
                }
                w.active = 0;
                w.pc += 1;
            }
            Kind::Ret => {
                let w = &mut self.warps[wi];
                w.exited |= w.active;
                w.active = 0;
                w.pc += 1;
            }
            Kind::Exit => {
                let w = &mut self.warps[wi];
                w.state = WarpState::Done;
                if S::ENABLED {
                    self.sink.warp_done(wi, self.cycle);
                }
            }
        }
        Ok(())
    }

    /// Issue one ALU op: `f(a, b, c)` over the 32 lanes of the op's source
    /// registers. Results are written only for *active* lanes — inactive
    /// lanes (diverged, loop-finished, or returned) must not mutate their
    /// registers, exactly as predicated execution works in hardware. Every
    /// lane function is total (division guards zero, float ops never trap),
    /// so the value is computed for all 32 lanes without branching — a loop
    /// the compiler vectorizes — and the mask is applied at the write.
    #[inline(always)]
    fn alu(&mut self, wi: usize, d: &Decoded, f: impl Fn(u32, u32, u32) -> u32) {
        let w = &mut self.warps[wi];
        let (a, b, c) = (
            &w.regs[d.a as usize],
            &w.regs[d.b as usize],
            &w.regs[d.c as usize],
        );
        let mut vals = [0u32; 32];
        for l in 0..32 {
            vals[l] = f(a[l], b[l], c[l]);
        }
        write_lanes(&mut w.regs[d.dst as usize], &vals, w.active);
        w.pc += 1;
        self.t.alu(self.cycle, wi, d.dst, d.sfu);
    }

    /// Sanitize mode: report the first active lane whose shared-memory
    /// access (`verb`: "loads" / "stores to") falls past the declared
    /// `__shared__` storage. The simulator clamps such accesses (loads 0,
    /// drops stores); hardware corrupts a neighbouring block's data.
    fn sanitize_shared(&self, wi: usize, addr: u16, verb: &str) -> Result<(), SimError> {
        if self.san.is_none() {
            return Ok(());
        }
        let w = &self.warps[wi];
        let words = self.tbs[w.tb_slot as usize].smem.len();
        let oob = |&(l, &a): &(usize, &u32)| w.active & (1 << l) != 0 && a as usize / 4 >= words;
        let Some((lane, a)) = w.regs[addr as usize].iter().enumerate().find(oob) else {
            return Ok(());
        };
        Err(SimError::Sanitizer(SanitizerReport {
            kind: SanitizerKind::SharedOutOfBounds,
            kernel: self.program.name.clone(),
            pc: w.pc,
            detail: format!(
                "lane {lane} {verb} shared byte address {a} past the {} B of declared \
                 __shared__ storage",
                words * 4
            ),
        }))
    }

    /// Sanitize one warp's global access (sanitize mode only): every
    /// active lane's load must fall inside an allocation, and every lane's
    /// access is fed to the launch-wide inter-block race detector. Wild
    /// *stores* are not flagged — [`GlobalMem::store`] drops them, so they
    /// cannot corrupt state — but they are recorded for race detection.
    /// Lanes are checked in order and the first finding is the report.
    fn sanitize_global(&mut self, wi: usize, addr: u16, is_store: bool) -> Result<(), SimError> {
        let Some(san) = self.san.as_deref_mut() else {
            return Ok(());
        };
        let w = &self.warps[wi];
        let (addrs, active, pc) = (&w.regs[addr as usize], w.active, w.pc);
        let block = self.tbs[w.tb_slot as usize].block.unwrap_or(0);
        let report = |kind, detail| {
            Err(SimError::Sanitizer(SanitizerReport {
                kind,
                kernel: self.program.name.clone(),
                pc,
                detail,
            }))
        };
        // The allocation (start word, length) the previous lane's load fell
        // in: neighbouring lanes mostly share it, which keeps the span
        // search off the per-lane path.
        let mut span = (0, 0);
        for (l, &a) in addrs.iter().enumerate() {
            if active & (1 << l) == 0 {
                continue;
            }
            if !is_store && (a / 4).wrapping_sub(span.0) >= span.1 {
                let Some(hit) = self.mem.allocated_span(a) else {
                    return report(
                        SanitizerKind::UninitializedRead,
                        format!(
                            "lane {l} loads byte address {a:#x}, which no allocation covers \
                             (the simulator reads 0; hardware reads garbage or faults)"
                        ),
                    );
                };
                span = hit;
            }
            let race = if is_store {
                san.record_global_store(a, block)
            } else {
                san.record_global_load(a, block)
            };
            if let Some(detail) = race {
                return report(SanitizerKind::GlobalRace, format!("lane {l}: {detail}"));
            }
        }
        Ok(())
    }
}

/// The functional driver: no cycle is ever computed.
impl Sm<'_, NullSink, Untimed> {
    /// Run blocks `0..num_blocks` in ascending order, one at a time in TB
    /// slot 0, each `Ready` warp in turn up to its next barrier or exit,
    /// then release the barrier — a *legal* schedule, not the timed one;
    /// they agree on every kernel free of intra-block races. The launch is
    /// out of fuel once `budget` warp-instructions have issued.
    fn run(&mut self, num_blocks: u32, budget: u64) -> Result<(), SimError> {
        let kernel = || self.program.name.clone();
        let mut next_poll = 0;
        for block in 0..num_blocks {
            self.dispatch(0, block);
            loop {
                let before = self.stats.instructions;
                let (mut limit, mut spent) = (budget, false);
                for wi in 0..self.warps.len() {
                    while self.warps[wi].state == WarpState::Ready {
                        // Polled per issue, not per barrier phase: a
                        // barrier-free block is one phase.
                        if cancel_due(self.config, self.stats.instructions, &mut next_poll) {
                            return Err(SimError::Cancelled {
                                kernel: kernel(),
                                cycles: 0,
                            });
                        }
                        if self.stats.instructions >= limit {
                            // Out of fuel. The timed model interleaves a
                            // block's warps, so a sibling headed for a
                            // barrier parked long ago: let the rest run (one
                            // more budget at most) before classifying.
                            (limit, spent) = (budget.saturating_mul(2), true);
                            break;
                        }
                        self.issue(wi)?;
                    }
                }
                if spent {
                    self.cycle = self.fuel;
                    return Err(self.out_of_fuel());
                }
                let parked_warps = self.parked_warps();
                if parked_warps == 0 {
                    break; // every warp is Done
                }
                if self.stats.instructions == before {
                    let kernel = kernel();
                    return Err(SimError::BarrierDeadlock {
                        kernel,
                        parked_warps,
                    });
                }
                self.release_barriers()?;
            }
        }
        Ok(())
    }
}

/// Execute a launch *functionally* (see [`crate::Gpu::execute_program`]):
/// [`run_launch`]'s admission, then `issue` with `Untimed` behind the seam.
pub fn run_functional(
    config: &GpuConfig,
    program: &Program,
    launch: LaunchConfig,
    args: &[Arg],
    mem: &mut GlobalMem,
) -> Result<ExecCounts, SimError> {
    admit(config, program, launch, args)?;
    let decoded = decode(program);
    let tables = DispatchTables::new(program, launch, args);
    let fuel = config.fuel_budget(mem.footprint_bytes() as u64);
    let mut san = config
        .sanitize_enabled()
        .then(|| SanitizerState::with_footprint(mem.footprint_bytes()));
    let mut ws = SmWorkspace::default();
    ws.prepare(program, 1, launch.warps_per_block());
    let mut sm = Sm {
        config,
        program,
        decoded: &decoded,
        tables: &tables,
        launch,
        mem,
        cycle: 0,
        warps: ws.warps,
        tbs: ws.tbs,
        fuel,
        stats: LaunchStats::default(),
        sink: &mut NullSink,
        san: san.as_mut(),
        t: Untimed,
    };
    let nsched = config.schedulers_per_sm.max(1) as u64;
    sm.run(launch.num_blocks(), fuel.saturating_mul(nsched))?;
    Ok(ExecCounts {
        instructions: sm.stats.instructions,
        tbs: sm.stats.tbs,
        warps: sm.stats.warps,
    })
}

/// Run `f` on every active lane, in lane order. A fully-active warp (the
/// common case) takes the loop without the per-lane mask test.
#[inline(always)]
fn for_active_lanes(active: u32, mut f: impl FnMut(usize)) {
    if active == u32::MAX {
        (0..32).for_each(f);
    } else {
        (0..32).filter(|l| active & (1 << l) != 0).for_each(&mut f);
    }
}

/// Write `vals` into the active lanes of `dst`; a fully-active warp takes
/// one array store.
#[inline]
fn write_lanes(dst: &mut [u32; 32], vals: &[u32; 32], active: u32) {
    if active == u32::MAX {
        *dst = *vals;
    } else {
        for_active_lanes(active, |l| dst[l] = vals[l]);
    }
}

/// Unique line addresses touched by the active lanes, in order of first
/// occurrence by lane — line `k` is serviced at `start + k`, so the order
/// is part of the timing model. Neighbouring lanes mostly share a line;
/// comparing with the previous lane's line first keeps the common
/// coalesced access off the `contains` search.
fn coalesce(cache: &L1Cache, addrs: &[u32; 32], active: u32) -> ([u32; 32], usize) {
    let mut lines = [0u32; 32];
    let mut n = 0;
    let mut prev = None;
    for (l, &a) in addrs.iter().enumerate() {
        if active & (1 << l) != 0 {
            let la = cache.line_addr(a);
            if prev != Some(la) && !lines[..n].contains(&la) {
                lines[n] = la;
                n += 1;
            }
            prev = Some(la);
        }
    }
    (lines, n)
}

// ----- lane ALU semantics ---------------------------------------------------

#[inline(always)]
fn ibin(op: IBinOp, a: u32, b: u32) -> u32 {
    let (ia, ib) = (a as i32, b as i32);
    match op {
        IBinOp::Add => ia.wrapping_add(ib) as u32,
        IBinOp::Sub => ia.wrapping_sub(ib) as u32,
        IBinOp::Mul => ia.wrapping_mul(ib) as u32,
        IBinOp::Div => {
            if ib == 0 {
                0
            } else {
                ia.wrapping_div(ib) as u32
            }
        }
        IBinOp::Rem => {
            if ib == 0 {
                0
            } else {
                ia.wrapping_rem(ib) as u32
            }
        }
        IBinOp::Min => ia.min(ib) as u32,
        IBinOp::Max => ia.max(ib) as u32,
        IBinOp::Shl => ia.wrapping_shl(b & 31) as u32,
        IBinOp::Shr => ia.wrapping_shr(b & 31) as u32,
        IBinOp::And => a & b,
        IBinOp::Or => a | b,
        IBinOp::Xor => a ^ b,
    }
}

#[inline(always)]
fn fbin(op: FBinOp, a: u32, b: u32) -> u32 {
    let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
    let r = match op {
        FBinOp::Add => fa + fb,
        FBinOp::Sub => fa - fb,
        FBinOp::Mul => fa * fb,
        FBinOp::Div => fa / fb,
        FBinOp::Min => fa.min(fb),
        FBinOp::Max => fa.max(fb),
        FBinOp::Pow => fa.powf(fb),
    };
    r.to_bits()
}

#[inline(always)]
fn fun(op: FUnOp, a: u32) -> u32 {
    let fa = f32::from_bits(a);
    let r = match op {
        FUnOp::Neg => -fa,
        FUnOp::Sqrt => fa.sqrt(),
        FUnOp::Exp => fa.exp(),
        FUnOp::Log => fa.ln(),
        FUnOp::Abs => fa.abs(),
        FUnOp::Sin => fa.sin(),
        FUnOp::Cos => fa.cos(),
    };
    r.to_bits()
}

#[inline(always)]
fn cmp(op: CmpOp, float: bool, a: u32, b: u32) -> bool {
    if float {
        let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
        match op {
            CmpOp::Lt => fa < fb,
            CmpOp::Le => fa <= fb,
            CmpOp::Gt => fa > fb,
            CmpOp::Ge => fa >= fb,
            CmpOp::Eq => fa == fb,
            CmpOp::Ne => fa != fb,
        }
    } else {
        let (ia, ib) = (a as i32, b as i32);
        match op {
            CmpOp::Lt => ia < ib,
            CmpOp::Le => ia <= ib,
            CmpOp::Gt => ia > ib,
            CmpOp::Ge => ia >= ib,
            CmpOp::Eq => ia == ib,
            CmpOp::Ne => ia != ib,
        }
    }
}

#[cfg(test)]
mod lane_tests {
    use super::*;
    use catt_prng::Rng;

    #[test]
    fn integer_division_by_zero_is_zero() {
        assert_eq!(ibin(IBinOp::Div, 7, 0), 0);
        assert_eq!(ibin(IBinOp::Rem, 7, 0), 0);
    }

    #[test]
    fn signed_semantics() {
        assert_eq!(ibin(IBinOp::Div, (-7i32) as u32, 2) as i32, -3);
        assert_eq!(ibin(IBinOp::Min, (-1i32) as u32, 1) as i32, -1);
        assert_eq!(ibin(IBinOp::Shr, (-8i32) as u32, 1) as i32, -4);
    }

    #[test]
    fn float_bit_roundtrip() {
        let r = fbin(FBinOp::Mul, 2.5f32.to_bits(), 4.0f32.to_bits());
        assert_eq!(f32::from_bits(r), 10.0);
        let r = fun(FUnOp::Sqrt, 9.0f32.to_bits());
        assert_eq!(f32::from_bits(r), 3.0);
    }

    #[test]
    fn comparisons() {
        assert!(cmp(CmpOp::Lt, false, (-1i32) as u32, 0));
        assert!(!cmp(CmpOp::Lt, true, 1.0f32.to_bits(), (-2.0f32).to_bits()));
        assert!(cmp(CmpOp::Ne, true, 1.0f32.to_bits(), 2.0f32.to_bits()));
    }

    /// Operand values every ALU arm is run on: the integer and float edge
    /// cases (`i32::MIN / -1`, division by zero, shift counts ≥ 32, NaN,
    /// signed zeros, infinities, a denormal, floats out of `i32` range).
    fn edge_values() -> Vec<u32> {
        let ints = [0, 1, -1, i32::MIN, i32::MAX, 7, -7, 31, 32, 33, 64];
        let floats = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            3.0e9,
            -3.0e9,
            0.5,
            1.0e-40,
            2.5,
        ];
        let ints = ints.iter().map(|&v| v as u32);
        ints.chain(floats.iter().map(|v| v.to_bits())).collect()
    }

    // Registers of the hand-built test programs: the builtins occupy
    // 0..12, the five buffer parameters follow, then the temporaries.
    const P: [u16; 5] = [12, 13, 14, 15, 16];
    const FOUR: u16 = 17;
    const OFF: u16 = 18;
    const ADDR: u16 = 19;
    const ONE: u16 = 20;
    const A: u16 = 21;
    const B: u16 = 22;
    const C: u16 = 23;
    const MASK: u16 = 24;
    const DST: u16 = 25;

    /// The scalar definition each decoded arm must agree with.
    fn reference(op: Op, a: u32, b: u32, c: u32) -> u32 {
        match op {
            Op::MovImm { imm, .. } => imm,
            Op::Mov { .. } => a,
            Op::IBin { op, .. } => ibin(op, a, b),
            Op::FBin { op, .. } => fbin(op, a, b),
            Op::FUn { op, .. } => fun(op, a),
            Op::INeg { .. } => (a as i32).wrapping_neg() as u32,
            Op::IAbs { .. } => (a as i32).wrapping_abs() as u32,
            Op::Not { .. } => (a == 0) as u32,
            Op::Cmp { op, float, .. } => cmp(op, float, a, b) as u32,
            Op::Sel { .. } => {
                if c != 0 {
                    a
                } else {
                    b
                }
            }
            Op::CvtIF { .. } => (a as i32 as f32).to_bits(),
            Op::CvtFI { .. } => (f32::from_bits(a) as i32) as u32,
            other => panic!("not an ALU op: {other:?}"),
        }
    }

    /// Every ALU op of the bytecode, writing `DST` from `A`, `B`, `C`.
    fn alu_ops() -> Vec<Op> {
        use {CmpOp as Co, FBinOp as Fb, FUnOp as Fu, IBinOp as Ib};
        let (dst, a, b, c) = (DST, A, B, C);
        let mut ops = vec![
            Op::MovImm { dst, imm: 0xDEAD },
            Op::Mov { dst, src: a },
            Op::INeg { dst, a },
            Op::IAbs { dst, a },
            Op::Not { dst, a },
            Op::Sel { dst, c, a, b },
            Op::CvtIF { dst, a },
            Op::CvtFI { dst, a },
        ];
        for op in [
            Ib::Add,
            Ib::Sub,
            Ib::Mul,
            Ib::Div,
            Ib::Rem,
            Ib::Min,
            Ib::Max,
            Ib::Shl,
            Ib::Shr,
            Ib::And,
            Ib::Or,
            Ib::Xor,
        ] {
            ops.push(Op::IBin { op, dst, a, b });
        }
        for op in [
            Fb::Add,
            Fb::Sub,
            Fb::Mul,
            Fb::Div,
            Fb::Min,
            Fb::Max,
            Fb::Pow,
        ] {
            ops.push(Op::FBin { op, dst, a, b });
        }
        for op in [
            Fu::Neg,
            Fu::Sqrt,
            Fu::Exp,
            Fu::Log,
            Fu::Abs,
            Fu::Sin,
            Fu::Cos,
        ] {
            ops.push(Op::FUn { op, dst, a });
        }
        for op in [Co::Lt, Co::Le, Co::Gt, Co::Ge, Co::Eq, Co::Ne] {
            for float in [false, true] {
                ops.push(Op::Cmp {
                    op,
                    float,
                    dst,
                    a,
                    b,
                });
            }
        }
        ops
    }

    /// One warp: load `A`, `B`, `C`, `MASK` and the old `DST` value from
    /// the five buffers, run `op` under the lanes whose `MASK` word is
    /// non-zero — or, with `empty`, between a `Break` and its loop's back
    /// edge, where no lane is active — and store `DST` back.
    fn alu_program(op: Op, empty: bool) -> Program {
        let tid = builtin_reg(Builtin::ThreadIdxX);
        let mut ops = vec![
            Op::MovImm { dst: FOUR, imm: 4 },
            Op::MovImm { dst: ONE, imm: 1 },
            Op::IBin {
                op: IBinOp::Mul,
                dst: OFF,
                a: tid,
                b: FOUR,
            },
        ];
        let lane_addr = |param: u16| Op::IBin {
            op: IBinOp::Add,
            dst: ADDR,
            a: param,
            b: OFF,
        };
        for (param, dst) in P.into_iter().zip([A, B, C, MASK, DST]) {
            ops.extend([lane_addr(param), Op::Ldg { dst, addr: ADDR }]);
        }
        let pc = ops.len() as u32;
        if empty {
            ops.extend([
                Op::LoopBegin { end_pc: pc + 5 },
                Op::LoopTest { cond: ONE },
                Op::Break,
                op,
                Op::LoopJump { cond_pc: pc + 1 },
            ]);
        } else {
            let cond = MASK;
            let (else_pc, end_pc) = (pc + 2, pc + 2);
            ops.extend([
                Op::If {
                    cond,
                    else_pc,
                    end_pc,
                },
                op,
                Op::EndIf,
            ]);
        }
        ops.extend([
            lane_addr(P[4]),
            Op::Stg {
                src: DST,
                addr: ADDR,
            },
            Op::Exit,
        ]);
        Program {
            name: "alu_arm".into(),
            ops,
            num_regs: 26,
            param_regs: P.to_vec(),
            shared_layout: Vec::new(),
            smem_bytes: 0,
        }
    }

    #[test]
    fn decoded_alu_arms_match_the_scalar_reference_under_every_mask() {
        const OLD: u32 = 0x0BAD_F00D;
        let vals = edge_values();
        let n = vals.len();
        let config = GpuConfig::small();
        let words =
            |f: &dyn Fn(usize) -> u32| -> Vec<i32> { (0..32).map(|l| f(l) as i32).collect() };
        for op in alu_ops() {
            // Lane `l` pairs `vals[l]` with `vals[l + shift]`: over all
            // shifts every ordered pair of edge values meets in some lane.
            for shift in 0..n {
                let a = words(&|l| vals[l % n]);
                let b = words(&|l| vals[(l + shift) % n]);
                let c = words(&|l| (l % 3 == 0) as u32);
                for mask in [u32::MAX, 0xA5A5_00FF, 0] {
                    let mut mem = GlobalMem::new();
                    let bufs = [
                        mem.alloc_i32(&a),
                        mem.alloc_i32(&b),
                        mem.alloc_i32(&c),
                        mem.alloc_i32(&words(&|l| mask >> l & 1)),
                        mem.alloc_i32(&[OLD as i32; 32]),
                    ];
                    let args = bufs.map(Arg::Buf);
                    let program = alu_program(op, mask == 0);
                    run_launch(&config, &program, LaunchConfig::d1(1, 32), &args, &mut mem)
                        .expect("launch");
                    let got = mem.read_i32(bufs[4]);
                    for l in 0..32 {
                        let want = if mask >> l & 1 != 0 {
                            reference(op, a[l] as u32, b[l] as u32, c[l] as u32)
                        } else {
                            OLD
                        };
                        // Which NaN an operation on two NaNs returns is the
                        // one thing the compiler may choose per call site.
                        let float_result = matches!(op, Op::FBin { .. } | Op::FUn { .. });
                        let (got, want) = (got[l] as u32, want);
                        if float_result && f32::from_bits(got).is_nan() {
                            assert!(f32::from_bits(want).is_nan(), "{op:?} lane {l}");
                            continue;
                        }
                        assert_eq!(
                            got, want,
                            "{op:?} lane {l} mask {mask:#x}: a {:#x} b {:#x} c {}",
                            a[l], b[l], c[l]
                        );
                    }
                }
            }
        }
    }

    /// The `contains`-only coalescer the one-pass version replaced.
    fn coalesce_reference(addrs: &[u32; 32], active: u32, line: u32) -> Vec<u32> {
        let mut lines = Vec::new();
        for (l, &a) in addrs.iter().enumerate() {
            if active & (1 << l) != 0 && !lines.contains(&(a / line)) {
                lines.push(a / line);
            }
        }
        lines
    }

    #[test]
    fn coalesce_keeps_first_occurrence_order_for_any_line_size() {
        let mut r = Rng::from_tag("coalesce");
        for line_bytes in [128, 32, 96] {
            let cache = L1Cache::new(crate::config::L1Config {
                size_bytes: 64 * line_bytes,
                line_bytes,
                assoc: 4,
            });
            for case in 0..2000 {
                // Strided, clustered and scattered warps: few lines with
                // revisits, one line per lane, and anything in between.
                let base = r.range_u32(0, 1 << 20);
                let stride = *r.choose(&[0u32, 4, 8, 36, 128, 132, 4096]);
                let jitter = *r.choose(&[1u32, 64, 1 << 12]);
                let mut addrs = [0u32; 32];
                for (l, a) in addrs.iter_mut().enumerate() {
                    *a = base + l as u32 * stride + r.range_u32(0, jitter);
                }
                let random = r.next_u32();
                let active = *r.choose(&[u32::MAX, 0, 1 << 31, random, random]);
                let (lines, n) = coalesce(&cache, &addrs, active);
                assert_eq!(
                    lines[..n],
                    coalesce_reference(&addrs, active, line_bytes),
                    "line {line_bytes} case {case}: {addrs:?} mask {active:#x}"
                );
            }
        }
    }
}
