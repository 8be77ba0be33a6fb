//! Lowering from `catt-ir` kernels to a register-based SIMT bytecode.
//!
//! The simulator does not interpret the AST directly: each kernel is
//! lowered once into a flat instruction sequence so that warps can advance
//! one instruction per issue slot, which is what gives the timing model its
//! meaning. Structured control flow becomes explicit mask-stack
//! instructions ([`Op::If`]/[`Op::Else`]/[`Op::EndIf`] and
//! [`Op::LoopBegin`]/[`Op::LoopTest`]/[`Op::LoopJump`]) — the classic
//! reconvergence-stack treatment of SIMT divergence, specialized to
//! structured code.
//!
//! Register model: an unbounded virtual register file per thread, assigned
//! in two banks — named locals first (one per declaration site, allocated
//! by a pre-scan), then per-statement expression temporaries that reset at
//! statement boundaries. The resulting `num_regs` doubles as the register
//! pressure estimate that feeds the occupancy model (paper Eq. 2), the
//! role `nvcc -v` plays in the paper.

use catt_ir::expr::{BinOp, Builtin, Expr, Intrinsic, UnOp};
use catt_ir::kernel::{Kernel, ParamTy};
use catt_ir::stmt::{LValue, Stmt};
use catt_ir::types::DType;
use std::collections::HashMap;
use std::fmt;

/// Virtual register index.
pub type Reg = u16;

/// Number of reserved builtin registers (threadIdx.xyz, blockIdx.xyz,
/// blockDim.xyz, gridDim.xyz).
pub const BUILTIN_REGS: u16 = 12;

/// Register holding a builtin value.
pub const fn builtin_reg(b: Builtin) -> Reg {
    match b {
        Builtin::ThreadIdxX => 0,
        Builtin::ThreadIdxY => 1,
        Builtin::ThreadIdxZ => 2,
        Builtin::BlockIdxX => 3,
        Builtin::BlockIdxY => 4,
        Builtin::BlockIdxZ => 5,
        Builtin::BlockDimX => 6,
        Builtin::BlockDimY => 7,
        Builtin::BlockDimZ => 8,
        Builtin::GridDimX => 9,
        Builtin::GridDimY => 10,
        Builtin::GridDimZ => 11,
    }
}

/// Integer binary ALU operations (i32 wrapping semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    Shl,
    Shr,
    And,
    Or,
    Xor,
}

/// Float binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
    Pow,
}

/// Float unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FUnOp {
    Neg,
    Sqrt,
    Exp,
    Log,
    Abs,
    Sin,
    Cos,
}

/// Comparison operations (produce 0/1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// One bytecode instruction.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub enum Op {
    /// `dst = imm` (bit image).
    MovImm { dst: Reg, imm: u32 },
    /// `dst = src`.
    Mov { dst: Reg, src: Reg },
    /// Integer ALU.
    IBin {
        op: IBinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Float ALU.
    FBin {
        op: FBinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Float unary (SFU for transcendental ops).
    FUn { op: FUnOp, dst: Reg, a: Reg },
    /// Integer negate.
    INeg { dst: Reg, a: Reg },
    /// Integer abs.
    IAbs { dst: Reg, a: Reg },
    /// Logical not on 0/1 predicate values.
    Not { dst: Reg, a: Reg },
    /// Compare, integer or float by `float` flag.
    Cmp {
        op: CmpOp,
        float: bool,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `dst = c ? a : b` per lane.
    Sel { dst: Reg, c: Reg, a: Reg, b: Reg },
    /// Convert i32 → f32.
    CvtIF { dst: Reg, a: Reg },
    /// Convert f32 → i32 (truncating).
    CvtFI { dst: Reg, a: Reg },
    /// Global load; `addr` holds per-lane byte addresses.
    Ldg { dst: Reg, addr: Reg },
    /// Global store (write-through).
    Stg { src: Reg, addr: Reg },
    /// Shared-memory load; `addr` holds per-lane byte offsets into the
    /// thread block's shared segment.
    Lds { dst: Reg, addr: Reg },
    /// Shared-memory store.
    Sts { src: Reg, addr: Reg },
    /// `__syncthreads()`.
    Bar,
    /// Divergent if: push frame; lanes failing `cond` take `else_pc`.
    If {
        cond: Reg,
        else_pc: u32,
        end_pc: u32,
    },
    /// End of then-branch: switch to the else mask or jump to `end_pc`.
    Else { end_pc: u32 },
    /// Reconvergence point of an if.
    EndIf,
    /// Loop entry: push loop frame (records re-entry mask).
    LoopBegin { end_pc: u32 },
    /// Loop-head test: lanes failing `cond` leave the loop; when none
    /// remain, pop and jump to the frame's `end_pc`.
    LoopTest { cond: Reg },
    /// Back-edge: restore the loop-live mask and jump to `test_pc`'s
    /// condition evaluation block.
    LoopJump { cond_pc: u32 },
    /// `break` — remove active lanes from the innermost loop.
    Break,
    /// `return` — retire active lanes.
    Ret,
    /// End of kernel.
    Exit,
}

impl Op {
    /// Registers this instruction reads (up to 3).
    pub fn reads(&self) -> [Option<Reg>; 3] {
        match *self {
            Op::Mov { src, .. } => [Some(src), None, None],
            Op::IBin { a, b, .. } | Op::FBin { a, b, .. } | Op::Cmp { a, b, .. } => {
                [Some(a), Some(b), None]
            }
            Op::FUn { a, .. }
            | Op::INeg { a, .. }
            | Op::IAbs { a, .. }
            | Op::Not { a, .. }
            | Op::CvtIF { a, .. }
            | Op::CvtFI { a, .. } => [Some(a), None, None],
            Op::Sel { c, a, b, .. } => [Some(c), Some(a), Some(b)],
            Op::Ldg { addr, .. } | Op::Lds { addr, .. } => [Some(addr), None, None],
            Op::Stg { src, addr } | Op::Sts { src, addr } => [Some(src), Some(addr), None],
            Op::If { cond, .. } | Op::LoopTest { cond } => [Some(cond), None, None],
            _ => [None, None, None],
        }
    }

    /// Register this instruction writes, if any.
    pub fn writes(&self) -> Option<Reg> {
        match *self {
            Op::MovImm { dst, .. }
            | Op::Mov { dst, .. }
            | Op::IBin { dst, .. }
            | Op::FBin { dst, .. }
            | Op::FUn { dst, .. }
            | Op::INeg { dst, .. }
            | Op::IAbs { dst, .. }
            | Op::Not { dst, .. }
            | Op::Cmp { dst, .. }
            | Op::Sel { dst, .. }
            | Op::CvtIF { dst, .. }
            | Op::CvtFI { dst, .. }
            | Op::Ldg { dst, .. }
            | Op::Lds { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Whether this is a global-memory instruction (the class whose
    /// requests the paper's analysis counts).
    pub fn is_global_mem(&self) -> bool {
        matches!(self, Op::Ldg { .. } | Op::Stg { .. })
    }
}

/// A lowered kernel.
#[derive(Debug, Clone)]
pub struct Program {
    /// Kernel name (for diagnostics / stats).
    pub name: String,
    /// Flat instruction sequence, ending with [`Op::Exit`].
    pub ops: Vec<Op>,
    /// Total virtual registers per thread (builtins + params + locals +
    /// temps). Feeds the occupancy model's Eq. 2.
    pub num_regs: u16,
    /// Register assigned to each kernel parameter, in order.
    pub param_regs: Vec<Reg>,
    /// Shared arrays: (name, byte offset, byte length).
    pub shared_layout: Vec<(String, u32, u32)>,
    /// Total statically declared shared memory per thread block, bytes.
    pub smem_bytes: u32,
}

/// Lowering error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

/// Value class of an expression, tracked during lowering for implicit
/// conversions (C's usual arithmetic conversions, restricted to i32/f32).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    I32,
    F32,
}

impl From<DType> for Ty {
    fn from(d: DType) -> Ty {
        match d {
            DType::F32 => Ty::F32,
            _ => Ty::I32,
        }
    }
}

struct Lowerer<'k> {
    kernel: &'k Kernel,
    ops: Vec<Op>,
    /// name → (register, type) for scalars, innermost scope last.
    scopes: Vec<HashMap<String, (Reg, Ty)>>,
    /// name → (register holding base byte address) for global pointers.
    ptrs: HashMap<String, Reg>,
    /// name → byte offset for shared arrays.
    shared: HashMap<String, u32>,
    shared_layout: Vec<(String, u32, u32)>,
    smem_bytes: u32,
    next_local: Reg,
    temp_floor: Reg,
    next_temp: Reg,
    /// Released temporaries available for reuse (each temp is produced
    /// once and consumed by exactly one parent operation, so freeing a
    /// temp source at its consuming instruction is sound and keeps the
    /// register estimate close to what a real register allocator needs).
    free_temps: Vec<Reg>,
    max_reg: Reg,
    param_regs: Vec<Reg>,
    /// Loop nesting depth (to reject `break` outside loops).
    loop_depth: u32,
}

/// Lower a kernel to bytecode.
pub fn lower(kernel: &Kernel) -> Result<Program, LowerError> {
    let mut lw = Lowerer {
        kernel,
        ops: Vec::new(),
        scopes: vec![HashMap::new()],
        ptrs: HashMap::new(),
        shared: HashMap::new(),
        shared_layout: Vec::new(),
        smem_bytes: 0,
        next_local: 0,
        temp_floor: 0,
        next_temp: 0,
        free_temps: Vec::new(),
        max_reg: 0,
        param_regs: Vec::new(),
        loop_depth: 0,
    };
    lw.run()?;
    Ok(Program {
        name: kernel.name.clone(),
        ops: lw.ops,
        num_regs: lw.max_reg + 1,
        param_regs: lw.param_regs,
        shared_layout: lw.shared_layout,
        smem_bytes: lw.smem_bytes,
    })
}

impl<'k> Lowerer<'k> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LowerError> {
        Err(LowerError {
            message: msg.into(),
        })
    }

    fn run(&mut self) -> Result<(), LowerError> {
        // Bank layout: builtins, params, locals (counted by pre-scan),
        // then per-statement temporaries.
        let mut next = BUILTIN_REGS;
        for p in &self.kernel.params {
            self.param_regs.push(next);
            match p.ty {
                ParamTy::Ptr(_) => {
                    self.ptrs.insert(p.name.clone(), next);
                }
                ParamTy::Scalar(dt) => {
                    self.scopes[0].insert(p.name.clone(), (next, Ty::from(dt)));
                }
            }
            next += 1;
        }
        self.next_local = next;
        let decl_sites = count_decl_sites(&self.kernel.body);
        self.temp_floor = next + decl_sites as u16;
        self.next_temp = self.temp_floor;
        self.max_reg = self.temp_floor.saturating_sub(1).max(BUILTIN_REGS - 1);

        // Shared arrays are laid out on first declaration (pre-walk so a
        // declaration inside an `if` still reserves space — CUDA shared
        // memory is allocated per block regardless of control flow).
        let mut offset = 0u32;
        let mut layout = Vec::new();
        catt_ir::visit::walk_stmts(&self.kernel.body, &mut |s| {
            if let Stmt::DeclShared { name, elem, len } = s {
                let bytes = elem.size_bytes() * len;
                layout.push((name.clone(), offset, bytes));
                offset += bytes.next_multiple_of(4);
            }
        });
        for (name, off, _) in &layout {
            self.shared.insert(name.clone(), *off);
        }
        self.shared_layout = layout;
        self.smem_bytes = offset;

        let body = &self.kernel.body;
        self.stmts(body)?;
        self.ops.push(Op::Exit);
        Ok(())
    }

    fn alloc_local(&mut self) -> Reg {
        let r = self.next_local;
        self.next_local += 1;
        debug_assert!(
            self.next_local <= self.temp_floor,
            "decl pre-scan undercounted"
        );
        self.max_reg = self.max_reg.max(r);
        r
    }

    fn alloc_temp(&mut self) -> Reg {
        let r = match self.free_temps.pop() {
            Some(r) => r,
            None => {
                let r = self.next_temp;
                self.next_temp += 1;
                r
            }
        };
        self.max_reg = self.max_reg.max(r);
        r
    }

    fn reset_temps(&mut self) {
        self.next_temp = self.temp_floor;
        self.free_temps.clear();
    }

    fn lookup(&self, name: &str) -> Option<(Reg, Ty)> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn emit(&mut self, op: Op) -> u32 {
        // Consuming an instruction releases its temp sources for reuse
        // (dst may then legally equal a source: execution reads all
        // sources before writing).
        for src in op.reads().into_iter().flatten() {
            if src >= self.temp_floor && !self.free_temps.contains(&src) {
                self.free_temps.push(src);
            }
        }
        if let Some(d) = op.writes() {
            self.free_temps.retain(|&r| r != d);
        }
        self.ops.push(op);
        (self.ops.len() - 1) as u32
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    // ----- statements ----------------------------------------------------

    fn stmts(&mut self, body: &[Stmt]) -> Result<(), LowerError> {
        for s in body {
            self.reset_temps();
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        match s {
            Stmt::DeclScalar { name, ty, init } => {
                let r = self.alloc_local();
                let t = Ty::from(*ty);
                if let Some(e) = init {
                    let (src, src_ty) = self.expr(e)?;
                    let src = self.coerce(src, src_ty, t);
                    self.emit(Op::Mov { dst: r, src });
                } else {
                    self.emit(Op::MovImm { dst: r, imm: 0 });
                }
                self.scopes.last_mut().unwrap().insert(name.clone(), (r, t));
                Ok(())
            }
            Stmt::DeclShared { .. } => Ok(()), // laid out in `run`
            Stmt::Assign { lhs, op, rhs } => self.assign(lhs, *op, rhs),
            Stmt::If { cond, then, els } => {
                let (c, cty) = self.expr(cond)?;
                if cty == Ty::F32 {
                    return self.err("if condition must be integral");
                }
                let if_pc = self.emit(Op::If {
                    cond: c,
                    else_pc: 0,
                    end_pc: 0,
                });
                self.scopes.push(HashMap::new());
                self.stmts(then)?;
                self.scopes.pop();
                let else_pc;
                if els.is_empty() {
                    else_pc = self.here(); // the EndIf
                } else {
                    let else_op = self.emit(Op::Else { end_pc: 0 });
                    else_pc = self.here();
                    self.scopes.push(HashMap::new());
                    self.stmts(els)?;
                    self.scopes.pop();
                    let end = self.here();
                    self.ops[else_op as usize] = Op::Else { end_pc: end };
                }
                let end_pc = self.here();
                self.emit(Op::EndIf);
                self.ops[if_pc as usize] = Op::If {
                    cond: c,
                    else_pc,
                    end_pc,
                };
                Ok(())
            }
            Stmt::For {
                var,
                decl,
                init,
                cond_op,
                bound,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                // Iterator register.
                let it = if *decl {
                    let r = self.alloc_local();
                    self.scopes
                        .last_mut()
                        .unwrap()
                        .insert(var.clone(), (r, Ty::I32));
                    r
                } else {
                    match self.lookup(var) {
                        Some((r, Ty::I32)) => r,
                        Some(_) => return self.err("for iterator must be int"),
                        None => return self.err(format!("undeclared for iterator `{var}`")),
                    }
                };
                let (iv, ity) = self.expr(init)?;
                let iv = self.coerce(iv, ity, Ty::I32);
                self.emit(Op::Mov { dst: it, src: iv });

                let begin_pc = self.emit(Op::LoopBegin { end_pc: 0 });
                let cond_pc = self.here();
                // Guard: it <op> bound.
                self.reset_temps();
                let (b, bty) = self.expr(bound)?;
                let b = self.coerce(b, bty, Ty::I32);
                let c = self.alloc_temp();
                let cmp = match cond_op {
                    BinOp::Lt => CmpOp::Lt,
                    BinOp::Le => CmpOp::Le,
                    BinOp::Gt => CmpOp::Gt,
                    BinOp::Ge => CmpOp::Ge,
                    BinOp::Ne => CmpOp::Ne,
                    _ => return self.err("unsupported for guard operator"),
                };
                self.emit(Op::Cmp {
                    op: cmp,
                    float: false,
                    dst: c,
                    a: it,
                    b,
                });
                self.emit(Op::LoopTest { cond: c });
                self.loop_depth += 1;
                self.stmts(body)?;
                self.loop_depth -= 1;
                // Step.
                self.reset_temps();
                let (sv, sty) = self.expr(step)?;
                let sv = self.coerce(sv, sty, Ty::I32);
                self.emit(Op::IBin {
                    op: IBinOp::Add,
                    dst: it,
                    a: it,
                    b: sv,
                });
                self.emit(Op::LoopJump { cond_pc });
                let end_pc = self.here();
                self.ops[begin_pc as usize] = Op::LoopBegin { end_pc };
                self.scopes.pop();
                Ok(())
            }
            Stmt::While { cond, body } => {
                let begin_pc = self.emit(Op::LoopBegin { end_pc: 0 });
                let cond_pc = self.here();
                self.reset_temps();
                let (c, cty) = self.expr(cond)?;
                if cty == Ty::F32 {
                    return self.err("while condition must be integral");
                }
                self.emit(Op::LoopTest { cond: c });
                self.loop_depth += 1;
                self.scopes.push(HashMap::new());
                self.stmts(body)?;
                self.scopes.pop();
                self.loop_depth -= 1;
                self.emit(Op::LoopJump { cond_pc });
                let end_pc = self.here();
                self.ops[begin_pc as usize] = Op::LoopBegin { end_pc };
                Ok(())
            }
            Stmt::SyncThreads => {
                self.emit(Op::Bar);
                Ok(())
            }
            Stmt::Break => {
                if self.loop_depth == 0 {
                    return self.err("`break` outside of a loop");
                }
                self.emit(Op::Break);
                Ok(())
            }
            Stmt::Return => {
                self.emit(Op::Ret);
                Ok(())
            }
            Stmt::ExprStmt(e) => {
                // Evaluate for effect-freeness (loads still count).
                self.expr(e)?;
                Ok(())
            }
        }
    }

    fn assign(&mut self, lhs: &LValue, op: Option<BinOp>, rhs: &Expr) -> Result<(), LowerError> {
        match lhs {
            LValue::Var(name) => {
                let Some((r, t)) = self.lookup(name) else {
                    return self.err(format!("assignment to undeclared variable `{name}`"));
                };
                let (mut v, vty) = self.expr(rhs)?;
                v = self.coerce(v, vty, t);
                match op {
                    None => {
                        self.emit(Op::Mov { dst: r, src: v });
                    }
                    Some(b) => {
                        self.bin_into(r, t, r, v, b)?;
                    }
                }
                Ok(())
            }
            LValue::Elem(name, idx) => {
                let elem_ty = self.array_elem_ty(name)?;
                let addr = self.address_of(name, idx)?;
                let (mut v, vty) = self.expr(rhs)?;
                match op {
                    None => {
                        v = self.coerce(v, vty, elem_ty);
                        self.store_to(name, addr, v);
                    }
                    Some(b) => {
                        // Read-modify-write: `addr` is consumed twice
                        // (load then store), so it must stay reserved
                        // until the store — the one exception to the
                        // consume-once rule `emit` relies on.
                        let cur = self.alloc_temp();
                        self.load_from(name, addr, cur);
                        self.free_temps.retain(|&r| r != addr);
                        let v2 = self.coerce(v, vty, elem_ty);
                        let res = self.alloc_temp();
                        self.bin3(res, elem_ty, cur, v2, b)?;
                        self.store_to(name, addr, res);
                    }
                }
                Ok(())
            }
        }
    }

    fn array_elem_ty(&self, name: &str) -> Result<Ty, LowerError> {
        if self.shared.contains_key(name) {
            // Shared arrays: find elem type from layout via kernel walk.
            let mut t = None;
            catt_ir::visit::walk_stmts(&self.kernel.body, &mut |s| {
                if let Stmt::DeclShared { name: n, elem, .. } = s {
                    if n == name {
                        t = Some(Ty::from(*elem));
                    }
                }
            });
            return t.ok_or(LowerError {
                message: format!("unknown shared array `{name}`"),
            });
        }
        for p in &self.kernel.params {
            if p.name == name {
                if let ParamTy::Ptr(dt) = p.ty {
                    return Ok(Ty::from(dt));
                }
            }
        }
        Err(LowerError {
            message: format!("`{name}` is not an array"),
        })
    }

    /// Compute the per-lane byte address register for `name[idx]`.
    fn address_of(&mut self, name: &str, idx: &Expr) -> Result<Reg, LowerError> {
        let (iv, ity) = self.expr(idx)?;
        let iv = self.coerce(iv, ity, Ty::I32);
        // byte offset = idx * 4  (all element types are 4 bytes)
        let four = self.alloc_temp();
        self.emit(Op::MovImm { dst: four, imm: 4 });
        let off = self.alloc_temp();
        self.emit(Op::IBin {
            op: IBinOp::Mul,
            dst: off,
            a: iv,
            b: four,
        });
        if let Some(&base_off) = self.shared.get(name) {
            if base_off == 0 {
                return Ok(off);
            }
            let b = self.alloc_temp();
            self.emit(Op::MovImm {
                dst: b,
                imm: base_off,
            });
            let addr = self.alloc_temp();
            self.emit(Op::IBin {
                op: IBinOp::Add,
                dst: addr,
                a: off,
                b,
            });
            Ok(addr)
        } else if let Some(&base_reg) = self.ptrs.get(name) {
            let addr = self.alloc_temp();
            self.emit(Op::IBin {
                op: IBinOp::Add,
                dst: addr,
                a: off,
                b: base_reg,
            });
            Ok(addr)
        } else {
            self.err(format!("`{name}` is not an array"))
        }
    }

    fn load_from(&mut self, name: &str, addr: Reg, dst: Reg) {
        if self.shared.contains_key(name) {
            self.emit(Op::Lds { dst, addr });
        } else {
            self.emit(Op::Ldg { dst, addr });
        }
    }

    fn store_to(&mut self, name: &str, addr: Reg, src: Reg) {
        if self.shared.contains_key(name) {
            self.emit(Op::Sts { src, addr });
        } else {
            self.emit(Op::Stg { src, addr });
        }
    }

    // ----- expressions ----------------------------------------------------

    fn coerce(&mut self, r: Reg, from: Ty, to: Ty) -> Reg {
        if from == to {
            return r;
        }
        // Two types, and `from != to`: the target alone picks the cast.
        let dst = self.alloc_temp();
        match to {
            Ty::F32 => self.emit(Op::CvtIF { dst, a: r }),
            Ty::I32 => self.emit(Op::CvtFI { dst, a: r }),
        };
        dst
    }

    /// Emit `dst = a <op> b` at type `t` into an existing register.
    fn bin_into(&mut self, dst: Reg, t: Ty, a: Reg, b: Reg, op: BinOp) -> Result<(), LowerError> {
        self.bin3(dst, t, a, b, op)
    }

    fn bin3(&mut self, dst: Reg, t: Ty, a: Reg, b: Reg, op: BinOp) -> Result<(), LowerError> {
        match t {
            Ty::I32 => {
                let iop = match op {
                    BinOp::Add => IBinOp::Add,
                    BinOp::Sub => IBinOp::Sub,
                    BinOp::Mul => IBinOp::Mul,
                    BinOp::Div => IBinOp::Div,
                    BinOp::Rem => IBinOp::Rem,
                    BinOp::Shl => IBinOp::Shl,
                    BinOp::Shr => IBinOp::Shr,
                    BinOp::BitAnd | BinOp::And => IBinOp::And,
                    BinOp::BitOr | BinOp::Or => IBinOp::Or,
                    BinOp::BitXor => IBinOp::Xor,
                    _ => return self.err(format!("unsupported int op {op:?}")),
                };
                self.emit(Op::IBin { op: iop, dst, a, b });
            }
            Ty::F32 => {
                let fop = match op {
                    BinOp::Add => FBinOp::Add,
                    BinOp::Sub => FBinOp::Sub,
                    BinOp::Mul => FBinOp::Mul,
                    BinOp::Div => FBinOp::Div,
                    _ => return self.err(format!("unsupported float op {op:?}")),
                };
                self.emit(Op::FBin { op: fop, dst, a, b });
            }
        }
        Ok(())
    }

    /// Lower an expression; returns (result register, type).
    fn expr(&mut self, e: &Expr) -> Result<(Reg, Ty), LowerError> {
        match e {
            Expr::Int(v) => {
                let dst = self.alloc_temp();
                self.emit(Op::MovImm {
                    dst,
                    imm: *v as i32 as u32,
                });
                Ok((dst, Ty::I32))
            }
            Expr::Float(v) => {
                let dst = self.alloc_temp();
                self.emit(Op::MovImm {
                    dst,
                    imm: (*v as f32).to_bits(),
                });
                Ok((dst, Ty::F32))
            }
            Expr::Var(name) => match self.lookup(name) {
                Some((r, t)) => Ok((r, t)),
                None => {
                    if self.ptrs.contains_key(name) || self.shared.contains_key(name) {
                        self.err(format!("array `{name}` used without subscript"))
                    } else {
                        self.err(format!("undeclared variable `{name}`"))
                    }
                }
            },
            Expr::Builtin(b) => Ok((builtin_reg(*b), Ty::I32)),
            Expr::Unary(UnOp::Neg, a) => {
                let (r, t) = self.expr(a)?;
                let dst = self.alloc_temp();
                match t {
                    Ty::I32 => self.emit(Op::INeg { dst, a: r }),
                    Ty::F32 => self.emit(Op::FUn {
                        op: FUnOp::Neg,
                        dst,
                        a: r,
                    }),
                };
                Ok((dst, t))
            }
            Expr::Unary(UnOp::Not, a) => {
                let (r, t) = self.expr(a)?;
                if t == Ty::F32 {
                    return self.err("logical not on float");
                }
                let dst = self.alloc_temp();
                self.emit(Op::Not { dst, a: r });
                Ok((dst, Ty::I32))
            }
            Expr::Binary(op, a, b) => {
                let (ra, ta) = self.expr(a)?;
                let (rb, tb) = self.expr(b)?;
                if op.is_predicate() {
                    let (ra, rb, float) = if ta == Ty::F32 || tb == Ty::F32 {
                        (
                            self.coerce(ra, ta, Ty::F32),
                            self.coerce(rb, tb, Ty::F32),
                            true,
                        )
                    } else {
                        (ra, rb, false)
                    };
                    let dst = self.alloc_temp();
                    let cmp = match op {
                        BinOp::Lt => Some(CmpOp::Lt),
                        BinOp::Le => Some(CmpOp::Le),
                        BinOp::Gt => Some(CmpOp::Gt),
                        BinOp::Ge => Some(CmpOp::Ge),
                        BinOp::Eq => Some(CmpOp::Eq),
                        BinOp::Ne => Some(CmpOp::Ne),
                        _ => None,
                    };
                    match cmp {
                        Some(c) => {
                            self.emit(Op::Cmp {
                                op: c,
                                float,
                                dst,
                                a: ra,
                                b: rb,
                            });
                        }
                        None => {
                            // && / || on 0/1 predicates = bitwise and/or.
                            let iop = if *op == BinOp::And {
                                IBinOp::And
                            } else {
                                IBinOp::Or
                            };
                            self.emit(Op::IBin {
                                op: iop,
                                dst,
                                a: ra,
                                b: rb,
                            });
                        }
                    }
                    Ok((dst, Ty::I32))
                } else {
                    let t = if ta == Ty::F32 || tb == Ty::F32 {
                        Ty::F32
                    } else {
                        Ty::I32
                    };
                    let ra = self.coerce(ra, ta, t);
                    let rb = self.coerce(rb, tb, t);
                    let dst = self.alloc_temp();
                    self.bin3(dst, t, ra, rb, *op)?;
                    Ok((dst, t))
                }
            }
            Expr::Index(name, idx) => {
                let t = self.array_elem_ty(name)?;
                let addr = self.address_of(name, idx)?;
                let dst = self.alloc_temp();
                self.load_from(name, addr, dst);
                Ok((dst, t))
            }
            Expr::Call(intr, args) => self.call(*intr, args),
            Expr::Cast(dt, a) => {
                let (r, t) = self.expr(a)?;
                let to = Ty::from(*dt);
                Ok((self.coerce(r, t, to), to))
            }
            Expr::Select(c, a, b) => {
                let (rc, tc) = self.expr(c)?;
                if tc == Ty::F32 {
                    return self.err("select condition must be integral");
                }
                let (ra, ta) = self.expr(a)?;
                let (rb, tb) = self.expr(b)?;
                let t = if ta == Ty::F32 || tb == Ty::F32 {
                    Ty::F32
                } else {
                    Ty::I32
                };
                let ra = self.coerce(ra, ta, t);
                let rb = self.coerce(rb, tb, t);
                let dst = self.alloc_temp();
                self.emit(Op::Sel {
                    dst,
                    c: rc,
                    a: ra,
                    b: rb,
                });
                Ok((dst, t))
            }
        }
    }

    fn call(&mut self, intr: Intrinsic, args: &[Expr]) -> Result<(Reg, Ty), LowerError> {
        let unary_f = |lw: &mut Self, op: FUnOp, a: &Expr| -> Result<(Reg, Ty), LowerError> {
            let (r, t) = lw.expr(a)?;
            let r = lw.coerce(r, t, Ty::F32);
            let dst = lw.alloc_temp();
            lw.emit(Op::FUn { op, dst, a: r });
            Ok((dst, Ty::F32))
        };
        let binary_f = |lw: &mut Self, op: FBinOp, a: &Expr, b: &Expr| {
            let (ra, ta) = lw.expr(a)?;
            let (rb, tb) = lw.expr(b)?;
            let ra = lw.coerce(ra, ta, Ty::F32);
            let rb = lw.coerce(rb, tb, Ty::F32);
            let dst = lw.alloc_temp();
            lw.emit(Op::FBin {
                op,
                dst,
                a: ra,
                b: rb,
            });
            Ok((dst, Ty::F32))
        };
        match intr {
            Intrinsic::Sqrtf => unary_f(self, FUnOp::Sqrt, &args[0]),
            Intrinsic::Expf => unary_f(self, FUnOp::Exp, &args[0]),
            Intrinsic::Logf => unary_f(self, FUnOp::Log, &args[0]),
            Intrinsic::Fabsf => unary_f(self, FUnOp::Abs, &args[0]),
            Intrinsic::Sinf => unary_f(self, FUnOp::Sin, &args[0]),
            Intrinsic::Cosf => unary_f(self, FUnOp::Cos, &args[0]),
            Intrinsic::Fminf => binary_f(self, FBinOp::Min, &args[0], &args[1]),
            Intrinsic::Fmaxf => binary_f(self, FBinOp::Max, &args[0], &args[1]),
            Intrinsic::Powf => binary_f(self, FBinOp::Pow, &args[0], &args[1]),
            Intrinsic::Min | Intrinsic::Max => {
                let (ra, ta) = self.expr(&args[0])?;
                let (rb, tb) = self.expr(&args[1])?;
                if ta == Ty::F32 || tb == Ty::F32 {
                    let op = if intr == Intrinsic::Min {
                        FBinOp::Min
                    } else {
                        FBinOp::Max
                    };
                    let ra = self.coerce(ra, ta, Ty::F32);
                    let rb = self.coerce(rb, tb, Ty::F32);
                    let dst = self.alloc_temp();
                    self.emit(Op::FBin {
                        op,
                        dst,
                        a: ra,
                        b: rb,
                    });
                    Ok((dst, Ty::F32))
                } else {
                    let op = if intr == Intrinsic::Min {
                        IBinOp::Min
                    } else {
                        IBinOp::Max
                    };
                    let dst = self.alloc_temp();
                    self.emit(Op::IBin {
                        op,
                        dst,
                        a: ra,
                        b: rb,
                    });
                    Ok((dst, Ty::I32))
                }
            }
            Intrinsic::Abs => {
                let (r, t) = self.expr(&args[0])?;
                if t == Ty::F32 {
                    return unary_f(self, FUnOp::Abs, &args[0]);
                }
                let dst = self.alloc_temp();
                self.emit(Op::IAbs { dst, a: r });
                Ok((dst, Ty::I32))
            }
        }
    }
}

/// Count scalar declaration sites (locals + for-iterator declarations).
fn count_decl_sites(stmts: &[Stmt]) -> u32 {
    let mut n = 0;
    catt_ir::visit::walk_stmts(stmts, &mut |s| match s {
        Stmt::DeclScalar { .. } => n += 1,
        Stmt::For { decl: true, .. } => n += 1,
        _ => {}
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_frontend::parse_kernel;

    fn lower_src(src: &str) -> Program {
        lower(&parse_kernel(src).unwrap()).unwrap()
    }

    #[test]
    fn lowers_atax_and_counts_regs() {
        let p = lower_src(
            "#define NX 1024
             __global__ void atax(float *A, float *B, float *tmp) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 if (i < NX) {
                     for (int j = 0; j < NX; j++) {
                         tmp[i] += A[i * NX + j] * B[j];
                     }
                 }
             }",
        );
        assert!(matches!(p.ops.last(), Some(Op::Exit)));
        // 12 builtins + 3 params + 2 locals + temps; sanity band.
        assert!(p.num_regs >= 17, "regs = {}", p.num_regs);
        assert!(p.num_regs <= 48, "regs = {}", p.num_regs);
        assert_eq!(p.param_regs, vec![12, 13, 14]);
        // The loop body contains 3 global accesses (2 loads via +=, plus
        // A and B loads, and 1 store).
        let ldg = p.ops.iter().filter(|o| matches!(o, Op::Ldg { .. })).count();
        let stg = p.ops.iter().filter(|o| matches!(o, Op::Stg { .. })).count();
        assert_eq!(ldg, 3);
        assert_eq!(stg, 1);
    }

    #[test]
    fn if_backpatching_points_past_branches() {
        let p = lower_src(
            "__global__ void k(float *A) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 if (i < 4) { A[i] = 1.0f; } else { A[i] = 2.0f; }
             }",
        );
        let (mut if_seen, mut else_seen) = (false, false);
        for (pc, op) in p.ops.iter().enumerate() {
            match op {
                Op::If {
                    else_pc, end_pc, ..
                } => {
                    if_seen = true;
                    assert!((*else_pc as usize) > pc);
                    assert!(*end_pc >= *else_pc);
                    assert!(matches!(p.ops[*end_pc as usize], Op::EndIf));
                }
                Op::Else { end_pc } => {
                    else_seen = true;
                    assert!(matches!(p.ops[*end_pc as usize], Op::EndIf));
                }
                _ => {}
            }
        }
        assert!(if_seen && else_seen);
    }

    #[test]
    fn loop_backpatching() {
        let p = lower_src(
            "__global__ void k(float *A) {
                 for (int j = 0; j < 8; j++) { A[j] = 0.0f; }
             }",
        );
        let begin = p
            .ops
            .iter()
            .position(|o| matches!(o, Op::LoopBegin { .. }))
            .unwrap();
        let Op::LoopBegin { end_pc } = p.ops[begin] else {
            unreachable!()
        };
        // end_pc points past the LoopJump.
        assert!(matches!(p.ops[end_pc as usize - 1], Op::LoopJump { .. }));
        let Op::LoopJump { cond_pc } = p.ops[end_pc as usize - 1] else {
            unreachable!()
        };
        assert_eq!(cond_pc as usize, begin + 1);
    }

    #[test]
    fn shared_arrays_layout() {
        let p = lower_src(
            "__global__ void k(float *A) {
                 __shared__ float s1[64];
                 __shared__ int s2[32];
                 s1[threadIdx.x] = 0.0f;
                 s2[threadIdx.x] = 0;
                 A[0] = s1[0] + (float)s2[0];
             }",
        );
        assert_eq!(p.smem_bytes, 64 * 4 + 32 * 4);
        assert_eq!(p.shared_layout[0], ("s1".to_string(), 0, 256));
        assert_eq!(p.shared_layout[1], ("s2".to_string(), 256, 128));
        let lds = p.ops.iter().filter(|o| matches!(o, Op::Lds { .. })).count();
        let sts = p.ops.iter().filter(|o| matches!(o, Op::Sts { .. })).count();
        assert_eq!(lds, 2);
        assert_eq!(sts, 2);
    }

    #[test]
    fn undeclared_variable_is_error() {
        let r = lower(&parse_kernel("__global__ void k(float *A) { A[0] = x; }").unwrap());
        assert!(r.unwrap_err().message.contains("undeclared"));
    }

    #[test]
    fn break_outside_loop_is_error() {
        let r = lower(&parse_kernel("__global__ void k(float *A) { break; }").unwrap());
        assert!(r.unwrap_err().message.contains("break"));
    }

    #[test]
    fn temps_do_not_collide_with_later_locals() {
        // A statement using temps precedes a declaration inside a loop;
        // the local's register must be below the temp floor.
        let p = lower_src(
            "__global__ void k(float *A) {
                 for (int j = 0; j < 4; j++) {
                     A[j] = A[j] * 2.0f + 1.0f;
                     float x = A[j];
                     A[j] = x;
                 }
             }",
        );
        // Collect the Mov dst of `x` (a local): all locals < temp floor.
        // Indirectly verified: lowering asserts in debug mode; just check
        // the program lowered and has plausible register count.
        assert!(p.num_regs > BUILTIN_REGS);
    }

    #[test]
    fn reads_writes_metadata() {
        let op = Op::IBin {
            op: IBinOp::Add,
            dst: 5,
            a: 1,
            b: 2,
        };
        assert_eq!(op.reads(), [Some(1), Some(2), None]);
        assert_eq!(op.writes(), Some(5));
        let st = Op::Stg { src: 3, addr: 4 };
        assert_eq!(st.reads(), [Some(3), Some(4), None]);
        assert_eq!(st.writes(), None);
        assert!(st.is_global_mem());
        assert!(!Op::Bar.is_global_mem());
    }

    #[test]
    fn scalar_param_types_respected() {
        // `n` is int: comparison i < n is integer compare.
        let p = lower_src(
            "__global__ void k(float *A, int n) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 if (i < n) { A[i] = 0.0f; }
             }",
        );
        assert!(p
            .ops
            .iter()
            .any(|o| matches!(o, Op::Cmp { float: false, .. })));
    }

    #[test]
    fn float_int_mixing_inserts_cvt() {
        let p = lower_src(
            "__global__ void k(float *A) {
                 int i = blockIdx.x * blockDim.x + threadIdx.x;
                 A[i] = A[i] + i;
             }",
        );
        assert!(p.ops.iter().any(|o| matches!(o, Op::CvtIF { .. })));
    }
}
