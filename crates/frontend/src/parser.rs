//! Recursive-descent parser producing `catt-ir`.
//!
//! The parser *recovers* from errors instead of stopping at the first
//! one: a failed statement synchronizes at the next `;` (or before the
//! enclosing `}`), a failed top-level item synchronizes at the next
//! `__global__` / `#define`, and everything reported lands in one
//! [`catt_diag::Diagnostic`] list with byte spans into the source.
//! [`parse_module_recover`] exposes the full outcome (partial module +
//! all diagnostics); [`parse_module`] / [`parse_kernel`] keep the
//! strict all-or-nothing surface the rest of the workspace uses.
//!
//! While parsing a kernel the parser also fills
//! [`catt_ir::KernelSpans`]: the kernel-name span, one span per
//! `for`/`while` in the same blind pre-order numbering `catt_core`
//! uses for `loop_id`, and one span per `__syncthreads()` — this is
//! what lets legality diagnostics point at the offending loop.

use crate::lexer::{Lexer, Token, TokenKind};
use catt_diag::{codes, Diagnostic, Severity, Span};
use catt_ir::expr::{BinOp, Builtin, Expr, Intrinsic, UnOp};
use catt_ir::kernel::{Kernel, KernelSpans, Module, Param, ParamTy};
use catt_ir::stmt::{LValue, Stmt};
use catt_ir::types::DType;
use std::collections::HashMap;
use std::fmt;

/// Stop reporting after this many error diagnostics: past a certain
/// point the parser is lost and further reports are noise. Shared with
/// the lexer so a pathological input cannot allocate one diagnostic
/// per byte.
pub(crate) const MAX_ERRORS: usize = 25;

/// Deepest nesting the parser accepts (`E023` past it), and so the
/// deepest tree every later stage — printer, analysis, lowering, drop —
/// recurses over. Along any path down from a kernel body it counts each
/// statement body, each `expr`/`unary` the parser is inside (a
/// parenthesis costs both, so 62 nested parentheses fit), and the
/// expression-tree nodes below: unary operators, casts, index, call,
/// ternary, and each operator of a left-associative chain. Without the
/// limit, a debug build on a 2 MiB thread (a serve worker's or
/// connection's stack) compiles 150 nested parentheses and overflows at
/// 180, so this keeps a margin of more than 2×.
pub const MAX_NESTING: u32 = 128;

/// Result of a recovering parse: a (possibly partial) module plus every
/// diagnostic collected along the way, in emission order, located
/// (line/col filled in) against the source.
#[derive(Debug, Clone)]
pub struct ParseOutcome {
    /// Kernels and defines that parsed; statements a recovery skipped
    /// are simply absent. Only trust this for further compilation when
    /// [`ParseOutcome::is_clean`].
    pub module: Module,
    pub diagnostics: Vec<Diagnostic>,
}

impl ParseOutcome {
    /// `true` iff no error-severity diagnostic was emitted.
    pub fn is_clean(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }
}

/// Parse error: every diagnostic from the recovering parse, plus the
/// first error's position/message as plain fields for callers that
/// just want one line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub diagnostics: Vec<Diagnostic>,
    pub message: String,
    pub line: u32,
    pub col: u32,
}

impl ParseError {
    fn from_diags(diagnostics: Vec<Diagnostic>) -> ParseError {
        let first = diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
            .cloned()
            .unwrap_or_else(|| Diagnostic::error(codes::UNEXPECTED_TOKEN, "parse failed"));
        ParseError {
            message: first.message,
            line: first.line,
            col: first.col,
            diagnostics,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a translation unit (defines + kernels), reporting *every*
/// error found, not just the first.
pub fn parse_module_recover(src: &str) -> ParseOutcome {
    let (tokens, lex_diags) = Lexer::tokenize_recover(src);
    let mut p = Parser::new(tokens);
    p.diags = lex_diags;
    let module = p.module_recover();
    let mut diagnostics = p.diags;
    catt_diag::locate(&mut diagnostics, src);
    ParseOutcome {
        module,
        diagnostics,
    }
}

/// Parse a translation unit (defines + kernels). Strict: any error
/// fails the whole parse (but the error still carries every diagnostic
/// the recovering parser found).
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let outcome = parse_module_recover(src);
    if outcome.is_clean() {
        Ok(outcome.module)
    } else {
        Err(ParseError::from_diags(outcome.diagnostics))
    }
}

/// Parse a module and return its single / first kernel.
pub fn parse_kernel(src: &str) -> Result<Kernel, ParseError> {
    let m = parse_module(src)?;
    m.kernels.into_iter().next().ok_or_else(|| {
        ParseError::from_diags(vec![Diagnostic::error(
            codes::KERNEL_NOT_FOUND,
            "no kernel found in source",
        )
        .at(1, 1)])
    })
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// End offset of the most recently consumed token (for loop spans).
    prev_end: u32,
    defines: HashMap<String, i64>,
    define_order: Vec<(String, i64)>,
    diags: Vec<Diagnostic>,
    /// Per-kernel span recording (reset at each kernel header), in the
    /// blind pre-order `catt_core` uses for `loop_id`.
    loop_spans: Vec<Span>,
    barrier_spans: Vec<Span>,
    /// Statement bodies and `expr`/`unary` calls currently open.
    depth: u32,
    /// Tree depth of the expression most recently parsed.
    tree: u32,
}

type PResult<T> = Result<T, Diagnostic>;

impl<'a> Parser<'a> {
    fn new(tokens: Vec<Token<'a>>) -> Parser<'a> {
        Parser {
            tokens,
            pos: 0,
            prev_end: 0,
            defines: HashMap::new(),
            define_order: Vec::new(),
            diags: Vec::new(),
            loop_spans: Vec::new(),
            barrier_spans: Vec::new(),
            depth: 0,
            tree: 0,
        }
    }

    fn cur(&self) -> &Token<'a> {
        // The token stream always ends with `Eof`; an empty stream
        // cannot come out of the lexer, but fall back defensively.
        &self.tokens[self.pos.min(self.tokens.len().saturating_sub(1))]
    }

    fn kind(&self) -> &TokenKind<'a> {
        &self.cur().kind
    }

    fn at_eof(&self) -> bool {
        matches!(self.kind(), TokenKind::Eof)
    }

    fn bump(&mut self) {
        self.prev_end = self.cur().span.end;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        self.err_code(codes::UNEXPECTED_TOKEN, msg)
    }

    fn err_code<T>(&self, code: catt_diag::Code, msg: impl Into<String>) -> PResult<T> {
        let t = self.cur();
        Err(Diagnostic::error(code, msg)
            .with_span(t.span)
            .at(t.line, t.col))
    }

    fn too_deep<T>(&self) -> PResult<T> {
        self.err_code(
            codes::NESTING_TOO_DEEP,
            format!("nesting deeper than {MAX_NESTING} levels"),
        )
    }

    /// Run `f` one nesting level deeper, refusing past [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth >= MAX_NESTING {
            return self.too_deep();
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    /// Record that the expression just built is `tree` nodes deep,
    /// refusing it when that reaches past [`MAX_NESTING`] from here.
    fn built(&mut self, tree: u32) -> PResult<()> {
        self.tree = tree;
        if self.depth + tree > MAX_NESTING {
            return self.too_deep();
        }
        Ok(())
    }

    fn push_diag(&mut self, d: Diagnostic) {
        if self.diags.len() < MAX_ERRORS {
            self.diags.push(d);
        }
    }

    fn error_budget_spent(&self) -> bool {
        self.diags.len() >= MAX_ERRORS
    }

    // ----- recovery ----------------------------------------------------

    /// Statement-level synchronization: consume through the next `;` at
    /// brace depth 0, or stop before the enclosing `}` / end of input.
    /// Guarantees progress relative to `before`.
    fn sync_stmt(&mut self, before: usize) {
        let mut depth = 0usize;
        loop {
            match self.kind() {
                TokenKind::Eof => break,
                TokenKind::Punct(";") if depth == 0 => {
                    self.bump();
                    break;
                }
                TokenKind::Punct("{") => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::Punct("}") => {
                    if depth == 0 {
                        break; // the enclosing block consumes it
                    }
                    depth -= 1;
                    self.bump();
                }
                _ => {
                    self.bump();
                }
            }
        }
        if self.pos == before && !self.at_eof() && !self.at_punct("}") {
            self.bump();
        }
    }

    /// Top-level synchronization: skip to the next `__global__`,
    /// `#define`, or end of input, consuming at least one token.
    fn sync_top_level(&mut self) {
        if !self.at_eof() {
            self.bump();
        }
        loop {
            match self.kind() {
                TokenKind::Eof => break,
                TokenKind::HashDefine => break,
                TokenKind::Ident("__global__") => break,
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Swallow the rest of the current block, including its closing
    /// `}` (used once the error budget is spent).
    fn skip_balanced_to_close(&mut self) {
        let mut depth = 1usize;
        loop {
            match self.kind() {
                TokenKind::Eof => return,
                TokenKind::Punct("{") => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::Punct("}") => {
                    self.bump();
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.kind(), TokenKind::Punct(q) if *q == p)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> PResult<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {}", self.kind()))
        }
    }

    fn at_ident(&self, s: &str) -> bool {
        matches!(self.kind(), TokenKind::Ident(i) if *i == s)
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Consume an identifier, borrowing its text from the source.
    fn ident(&mut self) -> PResult<&'a str> {
        match *self.kind() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    /// Consume an identifier the IR will own.
    fn expect_ident(&mut self) -> PResult<String> {
        self.ident().map(str::to_string)
    }

    // ----- types -------------------------------------------------------

    /// If the current tokens start a type, consume and return it.
    fn try_type(&mut self) -> Option<DType> {
        // Skip qualifiers.
        loop {
            if self.at_ident("const") || self.at_ident("volatile") || self.at_ident("__restrict__")
            {
                self.bump();
            } else {
                break;
            }
        }
        if self.at_ident("unsigned") {
            self.bump();
            // optional `int`
            self.eat_ident("int");
            return Some(DType::U32);
        }
        for (name, ty) in [
            ("int", DType::I32),
            ("float", DType::F32),
            ("bool", DType::Bool),
            ("size_t", DType::U32),
            ("long", DType::I32),
        ] {
            if self.at_ident(name) {
                self.bump();
                if name == "long" {
                    self.eat_ident("int");
                }
                return Some(ty);
            }
        }
        None
    }

    fn is_type_start(&self) -> bool {
        matches!(
            self.kind(),
            TokenKind::Ident("int" | "float" | "unsigned" | "bool" | "const" | "size_t" | "long")
        )
    }

    // ----- module ------------------------------------------------------

    fn module_recover(&mut self) -> Module {
        let mut kernels = Vec::new();
        loop {
            if self.error_budget_spent() {
                break;
            }
            match *self.kind() {
                TokenKind::Eof => break,
                TokenKind::HashDefine => {
                    if let Err(d) = self.define() {
                        self.push_diag(d);
                        self.sync_top_level();
                    }
                }
                TokenKind::Ident("__global__") => match self.kernel() {
                    Ok(k) => kernels.push(k),
                    Err(d) => {
                        self.push_diag(d);
                        self.sync_top_level();
                    }
                },
                TokenKind::Ident("extern") => {
                    // `extern "C"` — not in the subset.
                    let d = self
                        .err_code::<()>(
                            codes::UNSUPPORTED,
                            "`extern` declarations are not supported",
                        )
                        .unwrap_err();
                    self.push_diag(d);
                    self.sync_top_level();
                }
                other => {
                    let d = self
                        .err_code::<()>(
                            codes::UNEXPECTED_TOKEN,
                            format!("expected `__global__` or `#define`, found {other}"),
                        )
                        .unwrap_err();
                    self.push_diag(d);
                    self.sync_top_level();
                }
            }
        }
        Module {
            defines: std::mem::take(&mut self.define_order),
            kernels,
        }
    }

    fn define(&mut self) -> PResult<()> {
        self.bump(); // `#define`
        let name = self.expect_ident()?;
        let val_expr = self.expr()?;
        let Some(v) = val_expr.const_int() else {
            return self.err_code(
                codes::BAD_DEFINE,
                format!("#define {name}: value must be an integer constant"),
            );
        };
        self.defines.insert(name.clone(), v);
        self.define_order.push((name, v));
        Ok(())
    }

    fn kernel(&mut self) -> PResult<Kernel> {
        let diags_before = self.diags.len();
        self.loop_spans.clear();
        self.barrier_spans.clear();
        if !self.eat_ident("__global__") {
            return self.err("expected `__global__`");
        }
        if !self.eat_ident("void") {
            return self.err("kernels must return `void`");
        }
        let name_span = self.cur().span;
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.at_punct(")") {
            loop {
                let Some(ty) = self.try_type() else {
                    return self.err("expected parameter type");
                };
                let is_ptr = self.eat_punct("*");
                // Skip post-* qualifiers (`__restrict__`, `const`).
                while self.at_ident("__restrict__") || self.at_ident("const") {
                    self.bump();
                }
                let pname = self.expect_ident()?;
                params.push(Param {
                    name: pname,
                    ty: if is_ptr {
                        ParamTy::Ptr(ty)
                    } else {
                        ParamTy::Scalar(ty)
                    },
                });
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_punct(")")?;
        self.expect_punct("{")?;
        let body = self.block_body()?;
        let mut kernel = Kernel::new(name, params, body);
        let mut spans = KernelSpans {
            name: name_span,
            loops: std::mem::take(&mut self.loop_spans),
            barriers: std::mem::take(&mut self.barrier_spans),
        };
        if self.diags.len() > diags_before {
            // Recovery dropped statements, so the recorded pre-order can
            // disagree with the surviving tree — keep only the name span.
            spans.loops.clear();
            spans.barriers.clear();
        }
        kernel.spans = spans;
        Ok(kernel)
    }

    // ----- statements --------------------------------------------------

    /// Parse statements until the matching `}` (which is consumed),
    /// recovering at statement boundaries so one block can report
    /// several errors.
    fn block_body(&mut self) -> PResult<Vec<Stmt>> {
        let mut out = Vec::new();
        loop {
            if self.eat_punct("}") {
                return Ok(out);
            }
            if self.at_eof() {
                return self.err("unexpected end of input inside block");
            }
            if self.error_budget_spent() {
                self.skip_balanced_to_close();
                return Ok(out);
            }
            let before = self.pos;
            if let Err(d) = self.stmt_into(&mut out) {
                if self.at_eof() {
                    // Propagate: let one "unexpected end of input" speak
                    // for the whole unterminated nest.
                    return Err(d);
                }
                self.push_diag(d);
                self.sync_stmt(before);
            }
        }
    }

    /// A single statement or `{ ... }` block, as a statement list.
    fn stmt_or_block(&mut self) -> PResult<Vec<Stmt>> {
        self.nested(|p| {
            if p.eat_punct("{") {
                p.block_body()
            } else {
                let mut v = Vec::new();
                p.stmt_into(&mut v)?;
                Ok(v)
            }
        })
    }

    fn stmt_into(&mut self, out: &mut Vec<Stmt>) -> PResult<()> {
        // Empty statement.
        if self.eat_punct(";") {
            return Ok(());
        }
        if self.at_ident("__shared__") {
            self.bump();
            let Some(elem) = self.try_type() else {
                return self.err_code(
                    codes::BAD_SHARED_DECL,
                    "expected element type after `__shared__`",
                );
            };
            let name = self.expect_ident()?;
            self.expect_punct("[")?;
            let len_span = self.cur().span;
            let len_expr = self.expr()?;
            let Some(len) = len_expr.const_int() else {
                return Err(Diagnostic::error(
                    codes::BAD_SHARED_DECL,
                    "__shared__ array length must be a constant",
                )
                .with_span(len_span));
            };
            if len <= 0 {
                return Err(Diagnostic::error(
                    codes::BAD_SHARED_DECL,
                    "__shared__ array length must be positive",
                )
                .with_span(len_span));
            }
            if len > u32::MAX as i64 {
                return Err(Diagnostic::error(
                    codes::BAD_SHARED_DECL,
                    format!("__shared__ array length {len} is too large"),
                )
                .with_span(len_span));
            }
            self.expect_punct("]")?;
            self.expect_punct(";")?;
            out.push(Stmt::DeclShared {
                name,
                elem,
                len: len as u32,
            });
            return Ok(());
        }
        if self.at_ident("__syncthreads") {
            let kw = self.cur().span;
            self.bump();
            self.expect_punct("(")?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            self.barrier_spans.push(Span::new(kw.start, self.prev_end));
            out.push(Stmt::SyncThreads);
            return Ok(());
        }
        if self.at_ident("if") {
            self.bump();
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then = self.stmt_or_block()?;
            let els = if self.eat_ident("else") {
                self.stmt_or_block()?
            } else {
                vec![]
            };
            out.push(Stmt::If { cond, then, els });
            return Ok(());
        }
        if self.at_ident("for") {
            out.push(self.for_stmt()?);
            return Ok(());
        }
        if self.at_ident("while") {
            let kw = self.cur().span;
            self.bump();
            let slot = self.loop_spans.len();
            self.loop_spans.push(kw);
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let body = self.stmt_or_block()?;
            self.loop_spans[slot] = Span::new(kw.start, self.prev_end.max(kw.end));
            out.push(Stmt::While { cond, body });
            return Ok(());
        }
        if self.at_ident("break") {
            self.bump();
            self.expect_punct(";")?;
            out.push(Stmt::Break);
            return Ok(());
        }
        if self.at_ident("return") {
            self.bump();
            self.expect_punct(";")?;
            out.push(Stmt::Return);
            return Ok(());
        }
        if self.is_type_start() {
            // Scalar declaration(s), possibly comma-separated.
            let Some(ty) = self.try_type() else {
                return self.err("expected type");
            };
            loop {
                let name = self.expect_ident()?;
                let init = if self.eat_punct("=") {
                    Some(self.expr()?)
                } else {
                    None
                };
                out.push(Stmt::DeclScalar { name, ty, init });
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(";")?;
            return Ok(());
        }
        // Assignment / increment.
        out.push(self.assign_stmt(true)?);
        Ok(())
    }

    /// Assignment, `x++`, `x--`; `with_semi` controls whether the trailing
    /// `;` is required (the `for`-update reuses this without it).
    fn assign_stmt(&mut self, with_semi: bool) -> PResult<Stmt> {
        // Prefix increment/decrement.
        if self.at_punct("++") || self.at_punct("--") {
            let delta = if self.at_punct("++") { 1 } else { -1 };
            self.bump();
            let name = self.expect_ident()?;
            if with_semi {
                self.expect_punct(";")?;
            }
            return Ok(Stmt::Assign {
                lhs: LValue::Var(name),
                op: Some(BinOp::Add),
                rhs: Expr::int(delta),
            });
        }
        let name = self.expect_ident()?;
        let lhs = if self.eat_punct("[") {
            let idx = self.expr()?;
            self.expect_punct("]")?;
            LValue::Elem(name, idx)
        } else {
            LValue::Var(name)
        };
        let stmt = if self.eat_punct("++") {
            Stmt::Assign {
                lhs,
                op: Some(BinOp::Add),
                rhs: Expr::int(1),
            }
        } else if self.eat_punct("--") {
            Stmt::Assign {
                lhs,
                op: Some(BinOp::Add),
                rhs: Expr::int(-1),
            }
        } else {
            let op = if self.eat_punct("=") {
                None
            } else if self.eat_punct("+=") {
                Some(BinOp::Add)
            } else if self.eat_punct("-=") {
                Some(BinOp::Sub)
            } else if self.eat_punct("*=") {
                Some(BinOp::Mul)
            } else if self.eat_punct("/=") {
                Some(BinOp::Div)
            } else if self.eat_punct("%=") {
                Some(BinOp::Rem)
            } else if self.eat_punct("&=") {
                Some(BinOp::BitAnd)
            } else if self.eat_punct("|=") {
                Some(BinOp::BitOr)
            } else if self.eat_punct("^=") {
                Some(BinOp::BitXor)
            } else {
                return self.err(format!(
                    "expected assignment operator, found {}",
                    self.kind()
                ));
            };
            let rhs = self.expr()?;
            Stmt::Assign { lhs, op, rhs }
        };
        if with_semi {
            self.expect_punct(";")?;
        }
        Ok(stmt)
    }

    /// Canonical `for` loop.
    fn for_stmt(&mut self) -> PResult<Stmt> {
        let kw = self.cur().span;
        self.bump(); // `for`
        let slot = self.loop_spans.len();
        self.loop_spans.push(kw);
        self.expect_punct("(")?;
        let decl = self.is_type_start();
        if decl {
            let Some(ty) = self.try_type() else {
                return self.err("expected type in for-init");
            };
            if ty != DType::I32 && ty != DType::U32 {
                return self.err_code(
                    codes::NON_CANONICAL_FOR,
                    "for-loop iterator must be an integer",
                );
            }
        }
        let var = self.expect_ident()?;
        self.expect_punct("=")?;
        let init = self.expr()?;
        self.expect_punct(";")?;
        // Guard must compare the iterator.
        let guard_span = self.cur().span;
        let guard_var = self.ident()?;
        if guard_var != var {
            return Err(Diagnostic::error(
                codes::NON_CANONICAL_FOR,
                format!(
                    "non-canonical for loop: guard tests `{guard_var}` but iterator is `{var}`"
                ),
            )
            .with_span(guard_span));
        }
        let cond_op = if self.eat_punct("<") {
            BinOp::Lt
        } else if self.eat_punct("<=") {
            BinOp::Le
        } else if self.eat_punct(">") {
            BinOp::Gt
        } else if self.eat_punct(">=") {
            BinOp::Ge
        } else if self.eat_punct("!=") {
            BinOp::Ne
        } else {
            return self.err_code(
                codes::NON_CANONICAL_FOR,
                "expected comparison operator in for guard",
            );
        };
        let bound = self.expr()?;
        self.expect_punct(";")?;
        // Update: var++, ++var, var--, var += e, var -= e, var = var + e.
        let step = self.for_update(&var)?;
        self.expect_punct(")")?;
        let body = self.stmt_or_block()?;
        self.loop_spans[slot] = Span::new(kw.start, self.prev_end.max(kw.end));
        Ok(Stmt::For {
            var,
            decl,
            init,
            cond_op,
            bound,
            step,
            body,
        })
    }

    fn for_update(&mut self, var: &str) -> PResult<Expr> {
        let upd = self.assign_stmt(false)?;
        match upd {
            Stmt::Assign {
                lhs: LValue::Var(n),
                op,
                rhs,
            } if n == var => match op {
                Some(BinOp::Add) => Ok(rhs),
                Some(BinOp::Sub) => Ok(Expr::Unary(UnOp::Neg, Box::new(rhs))),
                None => {
                    // var = var + c  or  var = var - c
                    match rhs {
                        Expr::Binary(BinOp::Add, a, b) if *a == Expr::var(var) => Ok(*b),
                        Expr::Binary(BinOp::Sub, a, b) if *a == Expr::var(var) => {
                            Ok(Expr::Unary(UnOp::Neg, b))
                        }
                        Expr::Binary(BinOp::Mul, _, _) | Expr::Binary(BinOp::Shl, _, _) => self
                            .err_code(
                                codes::NON_CANONICAL_FOR,
                                "multiplicative for-updates are not supported",
                            ),
                        _ => self.err_code(
                            codes::NON_CANONICAL_FOR,
                            "non-canonical for-update expression",
                        ),
                    }
                }
                _ => self.err_code(
                    codes::NON_CANONICAL_FOR,
                    "unsupported compound operator in for-update",
                ),
            },
            _ => self.err_code(
                codes::NON_CANONICAL_FOR,
                format!("for-update must assign the iterator `{var}`"),
            ),
        }
    }

    // ----- expressions --------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let c = self.binary(0)?;
        if self.eat_punct("?") {
            let tc = self.tree;
            let a = self.expr()?;
            let ta = self.tree;
            self.expect_punct(":")?;
            // Right-associative: the else arm is itself a ternary.
            let b = self.expr()?;
            self.built(1 + tc.max(ta).max(self.tree))?;
            Ok(Expr::Select(Box::new(c), Box::new(a), Box::new(b)))
        } else {
            Ok(c)
        }
    }

    /// Precedence-climbing over binary operators.
    fn binary(&mut self, min_prec: u8) -> PResult<Expr> {
        let mut lhs = self.unary()?;
        let mut tree = self.tree;
        while let Some((op, prec)) = self.peek_binop() {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            // The chain grows leftward: each operator is one node deeper.
            tree = 1 + tree.max(self.tree);
            self.built(tree)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.tree = tree;
        Ok(lhs)
    }

    fn peek_binop(&self) -> Option<(BinOp, u8)> {
        let TokenKind::Punct(p) = self.kind() else {
            return None;
        };
        let op = match *p {
            "*" => BinOp::Mul,
            "/" => BinOp::Div,
            "%" => BinOp::Rem,
            "+" => BinOp::Add,
            "-" => BinOp::Sub,
            "<<" => BinOp::Shl,
            ">>" => BinOp::Shr,
            "<" => BinOp::Lt,
            "<=" => BinOp::Le,
            ">" => BinOp::Gt,
            ">=" => BinOp::Ge,
            "==" => BinOp::Eq,
            "!=" => BinOp::Ne,
            "&" => BinOp::BitAnd,
            "^" => BinOp::BitXor,
            "|" => BinOp::BitOr,
            "&&" => BinOp::And,
            "||" => BinOp::Or,
            _ => return None,
        };
        Some((op, op.precedence()))
    }

    fn unary(&mut self) -> PResult<Expr> {
        self.nested(Self::unary_body)
    }

    fn unary_body(&mut self) -> PResult<Expr> {
        for (punct, op) in [("-", UnOp::Neg), ("!", UnOp::Not)] {
            if self.eat_punct(punct) {
                let operand = self.unary()?;
                self.built(1 + self.tree)?;
                return Ok(Expr::Unary(op, Box::new(operand)));
            }
        }
        if self.eat_punct("+") {
            return self.unary();
        }
        // Cast: `(` type `)` unary — disambiguate from parenthesized expr.
        if self.at_punct("(") {
            let save = self.pos;
            self.bump();
            if let Some(ty) = self.try_type() {
                if self.eat_punct(")") {
                    let inner = self.unary()?;
                    self.built(1 + self.tree)?;
                    return Ok(Expr::Cast(ty, Box::new(inner)));
                }
            }
            self.pos = save;
        }
        self.postfix()
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut e = self.primary()?;
        loop {
            if self.at_punct("[") {
                let Expr::Var(name) = e else {
                    return self.err_code(codes::UNSUPPORTED, "only named arrays can be indexed");
                };
                self.bump();
                let idx = self.expr()?;
                self.expect_punct("]")?;
                self.built(1 + self.tree)?;
                e = Expr::Index(name, Box::new(idx));
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> PResult<Expr> {
        match *self.kind() {
            TokenKind::Int(v) => {
                self.bump();
                self.tree = 0;
                Ok(Expr::Int(v))
            }
            TokenKind::Float(v) => {
                self.bump();
                self.tree = 0;
                Ok(Expr::Float(v))
            }
            TokenKind::Punct("(") => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                self.tree = 0;
                // Builtin member access.
                if matches!(name, "threadIdx" | "blockIdx" | "blockDim" | "gridDim") {
                    self.expect_punct(".")?;
                    let member_span = self.cur().span;
                    let member = self.ident()?;
                    let b = match (name, member) {
                        ("threadIdx", "x") => Builtin::ThreadIdxX,
                        ("threadIdx", "y") => Builtin::ThreadIdxY,
                        ("threadIdx", "z") => Builtin::ThreadIdxZ,
                        ("blockIdx", "x") => Builtin::BlockIdxX,
                        ("blockIdx", "y") => Builtin::BlockIdxY,
                        ("blockIdx", "z") => Builtin::BlockIdxZ,
                        ("blockDim", "x") => Builtin::BlockDimX,
                        ("blockDim", "y") => Builtin::BlockDimY,
                        ("blockDim", "z") => Builtin::BlockDimZ,
                        ("gridDim", "x") => Builtin::GridDimX,
                        ("gridDim", "y") => Builtin::GridDimY,
                        ("gridDim", "z") => Builtin::GridDimZ,
                        _ => {
                            return Err(Diagnostic::error(
                                codes::UNKNOWN_MEMBER,
                                format!("unknown member `.{member}`"),
                            )
                            .with_span(member_span))
                        }
                    };
                    return Ok(Expr::Builtin(b));
                }
                // Intrinsic call.
                if self.at_punct("(") {
                    let Some(intr) = Intrinsic::from_name(name) else {
                        return self.err_code(
                            codes::UNKNOWN_FUNCTION,
                            format!("unknown function `{name}`"),
                        );
                    };
                    self.bump();
                    let mut args = Vec::new();
                    let mut tree = 0;
                    if !self.at_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            tree = tree.max(self.tree);
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                    }
                    self.expect_punct(")")?;
                    self.built(1 + tree)?;
                    if args.len() != intr.arity() {
                        return self.err_code(
                            codes::BAD_INTRINSIC_ARITY,
                            format!(
                                "`{name}` expects {} argument(s), got {}",
                                intr.arity(),
                                args.len()
                            ),
                        );
                    }
                    return Ok(Expr::Call(intr, args));
                }
                // #define constant substitution.
                if let Some(v) = self.defines.get(name) {
                    return Ok(Expr::Int(*v));
                }
                Ok(Expr::Var(name.to_string()))
            }
            other => self.err_code(
                codes::EXPECTED_EXPRESSION,
                format!("expected expression, found {other}"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catt_ir::printer;

    /// The paper's Fig. 1 kernel parses, with `#define` substitution.
    #[test]
    fn parses_atax_fig1() {
        let src = r#"
            #define NX 40960
            // L1 cache size: 32KB, shared memory size: 96KB
            __global__ void atax_kernel1(float *A, float *B, float *tmp) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < NX) {
                    for (int j = 0; j < NX; j++) {
                        tmp[i] += A[i * NX + j] * B[j];
                    }
                }
            }
        "#;
        let m = parse_module(src).unwrap();
        assert_eq!(m.defines, vec![("NX".to_string(), 40960)]);
        let k = &m.kernels[0];
        assert_eq!(k.name, "atax_kernel1");
        assert_eq!(k.params.len(), 3);
        // NX was substituted.
        let printed = printer::kernel_to_string(k);
        assert!(printed.contains("i < 40960"));
        assert!(printed.contains("tmp[i] += A[i * 40960 + j] * B[j];"));
    }

    /// The paper's Fig. 4 warp-throttled kernel parses.
    #[test]
    fn parses_fig4_warp_throttled() {
        let src = r#"
            #define NX 40960
            #define WS 32
            __global__ void atax_kernel1(float *A, float *B, float *tmp) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < NX) {
                    if (threadIdx.x / WS >= 0 && threadIdx.x / WS < 4) {
                        for (int j = 0; j < NX; j++) {
                            tmp[i] += A[i * NX + j] * B[j];
                        }
                    }
                    __syncthreads();
                    if (threadIdx.x / WS >= 4 && threadIdx.x / WS < 8) {
                        for (int j = 0; j < NX; j++) {
                            tmp[i] += A[i * NX + j] * B[j];
                        }
                    }
                    __syncthreads();
                }
            }
        "#;
        let k = parse_kernel(src).unwrap();
        let syncs = {
            let mut n = 0;
            catt_ir::visit::walk_stmts(&k.body, &mut |s| {
                if matches!(s, Stmt::SyncThreads) {
                    n += 1;
                }
            });
            n
        };
        assert_eq!(syncs, 2);
        // The span side table saw both loops and both barriers.
        assert_eq!(k.spans.loops.len(), 2);
        assert_eq!(k.spans.barriers.len(), 2);
    }

    /// The paper's Fig. 5 TB-throttled kernel parses.
    #[test]
    fn parses_fig5_tb_throttled() {
        let src = r#"
            __global__ void atax_kernel1(float *A, float *B, float *tmp) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                __shared__ float dummy_shared[12288];
                dummy_shared[threadIdx.x] = 0.0f;
                if (i < 40960) {
                    for (int j = 0; j < 40960; j++) {
                        tmp[i] += A[i * 40960 + j] * B[j];
                    }
                }
            }
        "#;
        let k = parse_kernel(src).unwrap();
        assert_eq!(k.shared_mem_bytes(), 48 * 1024);
        assert!(k.is_shared_array("dummy_shared"));
    }

    #[test]
    fn roundtrip_through_printer() {
        let src = r#"
            __global__ void k(float *A, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                float acc = 0.0f;
                for (int j = 0; j < n; j += 2) {
                    if (j % 4 == 0) {
                        acc += A[i * n + j];
                    } else {
                        acc -= A[j];
                    }
                }
                A[i] = acc;
            }
        "#;
        let k1 = parse_kernel(src).unwrap();
        let printed = printer::kernel_to_string(&k1);
        let k2 = parse_kernel(&printed).unwrap();
        assert_eq!(k1, k2, "parse → print → parse must be a fixed point");
    }

    #[test]
    fn parses_while_and_break() {
        let src = r#"
            __global__ void bfs(int *frontier, int *next, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                int j = 0;
                while (j < n) {
                    if (frontier[j] == i) {
                        next[j] = 1;
                        break;
                    }
                    j++;
                }
            }
        "#;
        let k = parse_kernel(src).unwrap();
        let mut has_while = false;
        let mut has_break = false;
        catt_ir::visit::walk_stmts(&k.body, &mut |s| {
            has_while |= matches!(s, Stmt::While { .. });
            has_break |= matches!(s, Stmt::Break);
        });
        assert!(has_while && has_break);
    }

    #[test]
    fn parses_casts_and_intrinsics() {
        let src = r#"
            __global__ void k(float *A) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                A[i] = sqrtf(fabsf(A[i])) + (float)i;
            }
        "#;
        let k = parse_kernel(src).unwrap();
        let printed = printer::kernel_to_string(&k);
        assert!(printed.contains("sqrtf(fabsf(A[i]))"));
        assert!(printed.contains("(float)i"));
    }

    #[test]
    fn parses_ternary() {
        let src = r#"
            __global__ void k(float *A, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                A[i] = i < n ? A[i] : 0.0f;
            }
        "#;
        let k = parse_kernel(src).unwrap();
        assert!(printer::kernel_to_string(&k).contains('?'));
    }

    #[test]
    fn for_update_variants() {
        for upd in ["j++", "++j", "j += 3", "j = j + 3"] {
            let src = format!(
                "__global__ void k(float *A) {{ for (int j = 0; j < 8; {upd}) {{ A[j] = 0.0f; }} }}"
            );
            let k = parse_kernel(&src).unwrap();
            match &k.body[0] {
                Stmt::For { step, .. } => {
                    let s = step.const_int().unwrap();
                    assert!(s == 1 || s == 3, "{upd}: step {s}");
                }
                other => panic!("expected for, got {other:?}"),
            }
        }
    }

    #[test]
    fn downward_loop() {
        let src = "__global__ void k(float *A) { for (int j = 7; j >= 0; j--) { A[j] = 0.0f; } }";
        let k = parse_kernel(src).unwrap();
        match &k.body[0] {
            Stmt::For { cond_op, step, .. } => {
                assert_eq!(*cond_op, BinOp::Ge);
                assert_eq!(step.const_int(), Some(-1));
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_canonical_for() {
        let src = "__global__ void k(float *A) { for (int j = 0; k < 8; j++) { A[j] = 0.0f; } }";
        assert!(parse_kernel(src).is_err());
        let src = "__global__ void k(float *A) { for (int j = 0; j < 8; j *= 2) { A[j] = 0.0f; } }";
        assert!(parse_kernel(src).is_err());
    }

    #[test]
    fn error_positions_are_reported() {
        let src = "__global__ void k(float *A) {\n  A[0] = @;\n}";
        let e = parse_module(src).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(!e.diagnostics.is_empty());
    }

    #[test]
    fn unknown_function_is_error() {
        let src = "__global__ void k(float *A) { A[0] = frobnicate(1); }";
        let e = parse_kernel(src).unwrap_err();
        assert!(e.message.contains("frobnicate"));
        assert_eq!(e.diagnostics[0].code, codes::UNKNOWN_FUNCTION);
    }

    #[test]
    fn braceless_if_and_for_bodies() {
        let src = r#"
            __global__ void k(float *A, int n) {
                int i = blockIdx.x * blockDim.x + threadIdx.x;
                if (i < n)
                    for (int j = 0; j < n; j++)
                        A[i] += 1.0f;
            }
        "#;
        let k = parse_kernel(src).unwrap();
        match &k.body[1] {
            Stmt::If { then, .. } => assert!(matches!(then[0], Stmt::For { .. })),
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn multi_declarator_statement() {
        let src = "__global__ void k(float *A) { int i = 0, j = 1; A[i] = (float)j; }";
        let k = parse_kernel(src).unwrap();
        assert!(matches!(&k.body[0], Stmt::DeclScalar { name, .. } if name == "i"));
        assert!(matches!(&k.body[1], Stmt::DeclScalar { name, .. } if name == "j"));
    }

    #[test]
    fn const_restrict_qualifiers_ignored() {
        let src = "__global__ void k(const float * __restrict__ A, float *B) { B[0] = A[0]; }";
        let k = parse_kernel(src).unwrap();
        assert_eq!(k.params.len(), 2);
        assert!(matches!(k.params[0].ty, ParamTy::Ptr(DType::F32)));
    }

    #[test]
    fn define_arithmetic_folds() {
        let src = "#define N 1024\n#define M N * 2\n__global__ void k(float *A) { A[M] = 0.0f; }";
        let m = parse_module(src).unwrap();
        assert_eq!(m.defines[1], ("M".to_string(), 2048));
    }

    #[test]
    fn loop_spans_follow_preorder() {
        let src = "\
__global__ void k(float *A, int n) {
    for (int i = 0; i < n; i++) {
        while (i < 4) {
            A[i] = 0.0f;
            break;
        }
    }
    for (int j = 0; j < n; j++) {
        A[j] = 1.0f;
    }
}";
        let k = parse_kernel(src).unwrap();
        assert_eq!(k.spans.loops.len(), 3);
        // Pre-order: outer for, inner while, trailing for.
        assert_eq!(&src[k.spans.loops[0].start as usize..][..3], "for");
        assert_eq!(&src[k.spans.loops[1].start as usize..][..5], "while");
        assert_eq!(&src[k.spans.loops[2].start as usize..][..3], "for");
        // Outer loop encloses the inner one; all spans in bounds.
        assert!(k.spans.loops[0].start < k.spans.loops[1].start);
        assert!(k.spans.loops[0].end >= k.spans.loops[1].end);
        for s in &k.spans.loops {
            assert!(s.in_bounds(src.len()));
        }
        assert_eq!(
            &src[k.spans.name.start as usize..k.spans.name.end as usize],
            "k"
        );
    }

    /// One kernel body statement nested `n` deep in each way the
    /// nesting limit counts.
    fn nested_kernel(shape: &str, n: usize) -> String {
        let stmt = match shape {
            "parens" => format!("b[i] = {}a[i]{};", "(".repeat(n), ")".repeat(n)),
            "unary" => format!("b[i] = {}a[i];", "- ".repeat(n)),
            "casts" => format!("b[i] = {}a[i];", "(float)".repeat(n)),
            "chain" => format!("b[i] = a[i]{};", " + a[i]".repeat(n)),
            "ternary" => format!("b[i] = {}a[i];", "i < 1 ? a[i] : ".repeat(n)),
            "index" => format!("b[i] = a[{}i{}];", "c[".repeat(n), "]".repeat(n)),
            "calls" => format!("b[i] = {}a[i]{};", "sqrtf(".repeat(n), ")".repeat(n)),
            "blocks" => format!(
                "{}b[i] = a[i];{}",
                "if (i < n) { ".repeat(n),
                " }".repeat(n)
            ),
            other => panic!("unknown shape {other}"),
        };
        format!(
            "__global__ void k(float *a, float *b, int *c, int n) {{\n    int i = threadIdx.x;\n    {stmt}\n}}\n"
        )
    }

    const SHAPES: [&str; 8] = [
        "parens", "unary", "casts", "chain", "ternary", "index", "calls", "blocks",
    ];

    /// Deep nesting of every kind is one located `E023`, not a stack
    /// overflow, and the parser recovers after it.
    #[test]
    fn deep_nesting_is_one_located_e023() {
        for shape in SHAPES {
            let src = nested_kernel(shape, 2000);
            let outcome = parse_module_recover(&src);
            let errors: Vec<_> = outcome
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .collect();
            assert_eq!(errors.len(), 1, "{shape}: {:?}", outcome.diagnostics);
            let d = errors[0];
            assert_eq!(d.code, codes::NESTING_TOO_DEEP, "{shape}: {d:?}");
            assert_eq!(d.line, 3, "{shape}: {d:?}");
            assert!(d.span.is_some_and(|s| s.in_bounds(src.len())), "{shape}");
            assert_eq!(outcome.module.kernels.len(), 1, "{shape}: recovered");
        }
    }

    /// Nesting well inside the limit parses, and the limit is exact: the
    /// deepest accepted input of each shape is refused one level deeper.
    #[test]
    fn nesting_limit_is_exact_and_leaves_room() {
        for shape in SHAPES {
            let ok = |n| parse_module(&nested_kernel(shape, n)).is_ok();
            let deepest = (1..400).take_while(|&n| ok(n)).last().unwrap_or(0);
            assert!(deepest >= 40, "{shape}: only {deepest} levels parse");
            assert!(deepest < 400, "{shape}: no limit");
            let err = parse_module(&nested_kernel(shape, deepest + 1)).unwrap_err();
            assert_eq!(err.diagnostics[0].code, codes::NESTING_TOO_DEEP, "{shape}");
        }
    }
}
