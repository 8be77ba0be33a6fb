//! # catt-diag — typed, source-spanned diagnostics
//!
//! Every failure on the compile path — lexing, parsing, lowering,
//! analysis, legality, transform, emission — is reported as a
//! [`Diagnostic`]: a severity, a stable code from the [`codes`]
//! registry, a message, an optional byte [`Span`] into the submitted
//! source, and optional notes. Two renderings are provided:
//!
//! * [`render_human`] — a rustc-style caret report against the source
//!   text, for terminals;
//! * [`Diagnostic::to_json`] / [`render_json`] — a machine-readable
//!   form carried verbatim on the `catt-serve` NDJSON wire, read back by
//!   [`Diagnostic::from_json`].
//!
//! The crate is dependency-free and knows nothing about the IR: spans
//! are plain byte ranges, produced by the frontend and carried through
//! the pass pipeline untouched. It also owns the workspace's one JSON
//! reader and writer, [`json`], which the serve protocol and the
//! profiler's Chrome trace use as well.

pub mod codes;
pub mod json;
pub mod span;

pub use codes::Code;
pub use span::{LineIndex, Span};

use json::Json;

/// How bad a diagnostic is. `Note` never appears as a top-level
/// severity; it exists so attached notes can reuse the rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Note,
    Warning,
    Error,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A secondary remark attached to a diagnostic ("defined here", "the
/// barrier is on line 12").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Note {
    pub message: String,
    pub span: Option<Span>,
}

/// One typed, source-attributed report from the compile path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub severity: Severity,
    pub code: Code,
    pub message: String,
    /// Byte span into the submitted source, when one is known.
    pub span: Option<Span>,
    /// 1-based position of `span.start`; `0` = not yet located. Filled
    /// by the frontend directly or backfilled with [`locate`].
    pub line: u32,
    pub col: u32,
    /// Name of the pipeline pass that produced this, once it has gone
    /// through the pass manager (`None` straight out of the frontend).
    pub pass: Option<&'static str>,
    pub notes: Vec<Note>,
}

impl Diagnostic {
    pub fn error(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code,
            message: message.into(),
            span: None,
            line: 0,
            col: 0,
            pass: None,
            notes: Vec::new(),
        }
    }

    pub fn warning(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }

    pub fn at(mut self, line: u32, col: u32) -> Diagnostic {
        self.line = line;
        self.col = col;
        self
    }

    pub fn in_pass(mut self, pass: &'static str) -> Diagnostic {
        self.pass = Some(pass);
        self
    }

    pub fn note(mut self, message: impl Into<String>, span: Option<Span>) -> Diagnostic {
        self.notes.push(Note {
            message: message.into(),
            span,
        });
        self
    }

    /// One-line summary: `error[E010]: unexpected token `)`` — used by
    /// `Display` impls that wrap a diagnostic list.
    pub fn headline(&self) -> String {
        format!("{}[{}]: {}", self.severity.label(), self.code, self.message)
    }

    /// Machine-readable form, the one wire shape of a diagnostic: the
    /// `CATT_DIAG_FORMAT=json` array element and the `catt serve`
    /// `diagnostics`/`fallback` field. Stable field order; absent parts
    /// (no span, unlocated, no pass, no notes) are omitted.
    pub fn to_json(&self) -> Json {
        let mut f: Vec<(&str, Json)> = vec![
            ("severity", Json::Str(self.severity.label().to_string())),
            ("code", Json::Str(self.code.as_str().to_string())),
            ("message", Json::Str(self.message.clone())),
        ];
        if let Some(s) = self.span {
            f.push(("span", span_to_json(s)));
        }
        if self.line > 0 {
            f.push(("line", Json::Num(self.line as f64)));
            f.push(("col", Json::Num(self.col as f64)));
        }
        if let Some(p) = self.pass {
            f.push(("pass", Json::Str(p.to_string())));
        }
        if !self.notes.is_empty() {
            let notes = self.notes.iter().map(|n| {
                let mut nf = vec![("message", Json::Str(n.message.clone()))];
                if let Some(s) = n.span {
                    nf.push(("span", span_to_json(s)));
                }
                json::obj(nf)
            });
            f.push(("notes", Json::Arr(notes.collect())));
        }
        json::obj(f)
    }

    /// Read a diagnostic back from its [`Diagnostic::to_json`] form.
    /// Codes resolve through the stable registry and pass names through
    /// the known set; an unknown code or severity is `None` (a malformed
    /// reply to the serve client).
    pub fn from_json(v: &Json) -> Option<Diagnostic> {
        let severity = match v.get("severity")?.as_str()? {
            "error" => Severity::Error,
            "warning" => Severity::Warning,
            "note" => Severity::Note,
            _ => return None,
        };
        let mut d = Diagnostic::error(
            codes::lookup(v.get("code")?.as_str()?)?,
            v.get("message")?.as_str()?,
        );
        d.severity = severity;
        d.span = v.get("span").and_then(span_from_json);
        d.line = v.get("line").and_then(Json::as_u64).unwrap_or(0) as u32;
        d.col = v.get("col").and_then(Json::as_u64).unwrap_or(0) as u32;
        d.pass = v
            .get("pass")
            .and_then(Json::as_str)
            .and_then(|p| PASSES.iter().find(|k| **k == p).copied());
        if let Some(Json::Arr(notes)) = v.get("notes") {
            for n in notes {
                d.notes.push(Note {
                    message: n.get("message")?.as_str()?.to_string(),
                    span: n.get("span").and_then(span_from_json),
                });
            }
        }
        Some(d)
    }
}

/// Names of the compile pipeline's passes, in order: the values
/// `Diagnostic::pass` takes once a diagnostic has gone through the pass
/// manager.
const PASSES: [&str; 5] = ["parse", "analyze", "legalize", "transform", "emit"];

fn span_to_json(s: Span) -> Json {
    json::obj(vec![
        ("start", Json::Num(s.start as f64)),
        ("end", Json::Num(s.end as f64)),
    ])
}

fn span_from_json(v: &Json) -> Option<Span> {
    Some(Span::new(
        v.get("start")?.as_u64()? as u32,
        v.get("end")?.as_u64()? as u32,
    ))
}

/// Render a diagnostic list as one JSON array.
pub fn render_json(diags: &[Diagnostic]) -> String {
    Json::Arr(diags.iter().map(Diagnostic::to_json).collect()).render()
}

/// Backfill `line`/`col` on every diagnostic (and leave already-located
/// ones alone) from the source text the spans index into.
pub fn locate(diags: &mut [Diagnostic], src: &str) {
    let ix = LineIndex::new(src);
    for d in diags {
        if d.line == 0 {
            if let Some(span) = d.span {
                let (line, col) = ix.line_col(span.start);
                d.line = line;
                d.col = col;
            }
        }
    }
}

/// Render one diagnostic rustc-style against its source:
///
/// ```text
/// error[E010]: unexpected token `)`
///   --> kernel.cu:3:12
///    |
///  3 |     if (x > ) {
///    |             ^
///    = note: expected an expression
/// ```
///
/// `file` is a display name only (the daemon uses the request id).
pub fn render_human(d: &Diagnostic, src: &str, file: &str) -> String {
    use std::fmt::Write;
    let ix = LineIndex::new(src);
    let mut out = String::new();
    let _ = writeln!(out, "{}", d.headline());
    let located = d.span.map(|s| {
        let (line, col) = if d.line > 0 {
            (d.line, d.col)
        } else {
            ix.line_col(s.start)
        };
        (s, line, col)
    });
    if let Some((span, line, col)) = located {
        let _ = writeln!(out, "  --> {file}:{line}:{col}");
        let text = ix.line_text(src, line);
        let gutter = line.to_string();
        let pad = " ".repeat(gutter.len());
        let _ = writeln!(out, " {pad} |");
        let _ = writeln!(out, " {gutter} | {text}");
        // Caret width: the part of the span on this line, at least 1.
        let col0 = (col as usize).saturating_sub(1).min(text.len());
        let width = (span.len() as usize).clamp(1, text.len().saturating_sub(col0).max(1));
        let _ = writeln!(out, " {pad} | {}{}", " ".repeat(col0), "^".repeat(width));
    } else if d.line > 0 {
        let _ = writeln!(out, "  --> {file}:{}:{}", d.line, d.col);
    }
    if let Some(p) = d.pass {
        let _ = writeln!(out, "   = pass: {p}");
    }
    for n in &d.notes {
        match n.span {
            Some(s) => {
                let (line, col) = ix.line_col(s.start);
                let _ = writeln!(out, "   = note: {} ({file}:{line}:{col})", n.message);
            }
            None => {
                let _ = writeln!(out, "   = note: {}", n.message);
            }
        }
    }
    out
}

/// Render a whole diagnostic list, blank-line separated, with a final
/// error/warning count summary line when anything is an error.
pub fn render_human_all(diags: &[Diagnostic], src: &str, file: &str) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&render_human(d, src, file));
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if errors > 0 {
        out.push_str(&format!(
            "error: {errors} error{} emitted\n",
            if errors == 1 { "" } else { "s" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_headline() {
        let d = Diagnostic::error(codes::UNEXPECTED_TOKEN, "unexpected token `)`")
            .with_span(Span::new(10, 11))
            .note("expected an expression", None);
        assert_eq!(d.headline(), "error[E010]: unexpected token `)`");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.notes.len(), 1);
    }

    #[test]
    fn json_escapes_and_fields() {
        let d = Diagnostic::error(codes::UNEXPECTED_CHARACTER, "bad \"char\"\n")
            .with_span(Span::new(2, 3))
            .at(1, 3)
            .in_pass("parse");
        let j = d.to_json().render();
        assert!(j.contains("\"severity\":\"error\""), "{j}");
        assert!(j.contains("\"code\":\"E001\""), "{j}");
        assert!(j.contains("\\\"char\\\"\\n"), "{j}");
        assert!(j.contains("\"span\":{\"start\":2,\"end\":3}"), "{j}");
        assert!(j.contains("\"line\":1,\"col\":3"), "{j}");
        assert!(j.contains("\"pass\":\"parse\""), "{j}");
        let arr = render_json(&[d.clone(), d]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert!(arr.contains("},{"));
    }

    /// Every registered code survives the wire: with and without span,
    /// line/col, pass and notes, `from_json(to_json(d)) == d`, also after
    /// a render/parse trip.
    #[test]
    fn every_code_round_trips_through_json() {
        for &(name, _) in codes::REGISTRY {
            let code = codes::lookup(name).expect("registered code resolves");
            let bare = Diagnostic::warning(code, format!("{name}: \"quoted\"\tand\u{1}"));
            let full = Diagnostic::error(code, "full")
                .with_span(Span::new(3, 9))
                .at(2, 7)
                .in_pass(PASSES[name.len() % PASSES.len()])
                .note("spanned note", Some(Span::new(0, 1)))
                .note("bare note", None);
            let mut note_severity = full.clone();
            note_severity.severity = Severity::Note;
            let located = Diagnostic::error(code, "located").at(4, 1);
            for d in [bare, located, full, note_severity] {
                let j = d.to_json();
                assert_eq!(Diagnostic::from_json(&j).as_ref(), Some(&d), "{name}");
                let reparsed = json::parse(&j.render()).expect("rendered diagnostic parses");
                assert_eq!(reparsed, j, "{name}");
            }
        }
        let unknown = json::obj(vec![
            ("severity", Json::Str("error".into())),
            ("code", Json::Str("E999".into())),
            ("message", Json::Str("x".into())),
        ]);
        assert_eq!(Diagnostic::from_json(&unknown), None);
    }

    #[test]
    fn locate_backfills_line_col() {
        let src = "abc\ndef ghi\n";
        let mut diags = vec![
            Diagnostic::error(codes::UNEXPECTED_TOKEN, "x").with_span(Span::new(8, 11)),
            Diagnostic::error(codes::UNEXPECTED_TOKEN, "y").at(9, 9), // pre-located
        ];
        locate(&mut diags, src);
        assert_eq!((diags[0].line, diags[0].col), (2, 5));
        assert_eq!((diags[1].line, diags[1].col), (9, 9));
    }

    #[test]
    fn human_rendering_carets() {
        let src = "int x;\nif (x > ) {\n";
        let d = Diagnostic::error(codes::EXPECTED_EXPRESSION, "expected expression, found `)`")
            .with_span(Span::new(15, 16));
        let r = render_human(&d, src, "k.cu");
        assert!(r.contains("error[E011]: expected expression"), "{r}");
        assert!(r.contains("--> k.cu:2:9"), "{r}");
        assert!(r.contains("2 | if (x > ) {"), "{r}");
        assert!(r.contains("|         ^"), "{r}");
    }

    #[test]
    fn human_rendering_handles_spanless_and_out_of_range() {
        let d = Diagnostic::error(codes::KERNEL_NOT_FOUND, "kernel `foo` not found");
        let r = render_human(&d, "", "k.cu");
        assert!(r.starts_with("error[E016]"), "{r}");
        // A span past EOF must not panic and must still render.
        let d2 = Diagnostic::error(codes::UNEXPECTED_TOKEN, "eof").with_span(Span::new(90, 95));
        let r2 = render_human(&d2, "short\n", "k.cu");
        assert!(r2.contains("error[E010]"), "{r2}");
        let all = render_human_all(&[d, d2], "short\n", "k.cu");
        assert!(all.contains("error: 2 errors emitted"), "{all}");
    }
}
