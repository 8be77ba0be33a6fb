//! The stable error-code registry.
//!
//! Codes are part of the tool's public surface: `catt-serve` clients
//! match on them, tests grep for them, and DESIGN.md documents them.
//! Never renumber; retire a code by leaving a tombstone comment.

/// A stable diagnostic code such as `E010` or `W001`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Code(pub &'static str);

impl Code {
    pub fn as_str(&self) -> &'static str {
        self.0
    }

    /// `true` for `W`-prefixed codes.
    pub fn is_warning(&self) -> bool {
        self.0.starts_with('W')
    }

    /// One-line description from the registry, or `""` for codes minted
    /// outside it (only possible in tests).
    pub fn description(&self) -> &'static str {
        REGISTRY
            .iter()
            .find(|(c, _)| *c == self.0)
            .map(|(_, d)| *d)
            .unwrap_or("")
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// Look a code up by name (used when parsing diagnostics back off the
/// NDJSON wire). Returns `None` for unknown names.
pub fn lookup(name: &str) -> Option<Code> {
    REGISTRY
        .iter()
        .find(|(c, _)| *c == name)
        .map(|(c, _)| Code(c))
}

/// Every registered code with its one-line description, in code order.
pub const REGISTRY: &[(&str, &str)] = &[
    // E00x — lexical errors.
    ("E001", "unexpected character"),
    ("E002", "unterminated block comment"),
    ("E003", "malformed integer literal"),
    ("E004", "malformed floating-point literal"),
    ("E005", "invalid UTF-8 in token text"),
    // E01x — syntactic / semantic frontend errors.
    ("E010", "unexpected token"),
    ("E011", "expected expression"),
    ("E012", "non-canonical for loop"),
    ("E013", "unknown function or intrinsic"),
    ("E014", "unsupported construct"),
    ("E015", "malformed #define"),
    ("E016", "kernel not found"),
    ("E017", "malformed __shared__ declaration"),
    ("E018", "unknown struct member"),
    ("E019", "wrong intrinsic arity"),
    // E02x — pipeline (lowering / analysis) errors, and the parser's
    // nesting limit that keeps every later stage's recursion bounded.
    ("E020", "lowering failed"),
    ("E021", "kernel not launchable on this configuration"),
    ("E022", "no launch configuration supplied"),
    ("E023", "nesting too deep"),
    ("E024", "more than one launch configuration for a kernel"),
    // E03x — internal errors.
    ("E030", "internal error: compiler pass panicked"),
    // W00x — transform-level warnings.
    (
        "W001",
        "throttling transform fell back to the original kernel",
    ),
    (
        "W002",
        "injected fault forced fallback to the original kernel",
    ),
    // W01x — legality rejections (why a loop was not throttled).
    ("W010", "loop skipped: contains a barrier"),
    ("W011", "loop skipped: under a thread-divergent guard"),
    ("W012", "loop skipped: throttle factor unresolved"),
];

pub const UNEXPECTED_CHARACTER: Code = Code("E001");
pub const UNTERMINATED_COMMENT: Code = Code("E002");
pub const MALFORMED_INT: Code = Code("E003");
pub const MALFORMED_FLOAT: Code = Code("E004");
pub const INVALID_UTF8: Code = Code("E005");
pub const UNEXPECTED_TOKEN: Code = Code("E010");
pub const EXPECTED_EXPRESSION: Code = Code("E011");
pub const NON_CANONICAL_FOR: Code = Code("E012");
pub const UNKNOWN_FUNCTION: Code = Code("E013");
pub const UNSUPPORTED: Code = Code("E014");
pub const BAD_DEFINE: Code = Code("E015");
pub const KERNEL_NOT_FOUND: Code = Code("E016");
pub const BAD_SHARED_DECL: Code = Code("E017");
pub const UNKNOWN_MEMBER: Code = Code("E018");
pub const BAD_INTRINSIC_ARITY: Code = Code("E019");
pub const LOWERING_FAILED: Code = Code("E020");
pub const UNLAUNCHABLE: Code = Code("E021");
pub const MISSING_LAUNCH: Code = Code("E022");
pub const NESTING_TOO_DEEP: Code = Code("E023");
pub const DUPLICATE_LAUNCH: Code = Code("E024");
pub const PASS_PANICKED: Code = Code("E030");
pub const TRANSFORM_FALLBACK: Code = Code("W001");
pub const FAULT_FALLBACK: Code = Code("W002");
pub const LOOP_SKIPPED_BARRIER: Code = Code("W010");
pub const LOOP_SKIPPED_DIVERGENT: Code = Code("W011");
pub const LOOP_UNRESOLVED: Code = Code("W012");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in REGISTRY.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{} !< {}", pair[0].0, pair[1].0);
        }
    }

    #[test]
    fn registry_shape() {
        for (code, desc) in REGISTRY {
            assert_eq!(code.len(), 4, "{code}");
            assert!(code.starts_with('E') || code.starts_with('W'), "{code}");
            assert!(code[1..].bytes().all(|b| b.is_ascii_digit()), "{code}");
            assert!(!desc.is_empty(), "{code} lacks a description");
        }
    }

    #[test]
    fn lookup_round_trips() {
        assert_eq!(lookup("E010"), Some(UNEXPECTED_TOKEN));
        assert_eq!(lookup("W010"), Some(LOOP_SKIPPED_BARRIER));
        assert_eq!(lookup("E999"), None);
        assert!(UNEXPECTED_TOKEN.description().contains("token"));
        assert!(LOOP_SKIPPED_BARRIER.is_warning());
        assert!(!PASS_PANICKED.is_warning());
    }
}
