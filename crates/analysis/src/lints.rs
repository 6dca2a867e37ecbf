//! The lint registry and the six repo-specific lints.
//!
//! Every lint here mechanically enforces a source-level discipline that an
//! earlier PR established by hand and that ordinary tests cannot pin:
//!
//! - bit-for-bit WAL replay and golden schedules require total float
//!   comparators and hash-free iteration ([`FLOAT_TOTAL_ORDER`],
//!   [`MAP_ITERATION_ORDER`]) and no wall-clock reads in deterministic
//!   code ([`WALL_CLOCK_IN_CORE`]);
//! - library panics must be routed through typed errors
//!   ([`UNWRAP_IN_LIB`]);
//! - the sparse engine's conservative-verdict guarantee hinges on numeric
//!   casts being checked ([`LOSSY_CAST_IN_ENGINE`]) and dropped-mass pads
//!   always carrying the `SAFETY` inflation ([`MISSING_SAFETY_INFLATION`]).
//!
//! Lints operate on the token stream from [`crate::lexer`], never on raw
//! text, and all of them skip `#[test]` / `#[cfg(test)]` regions: tests may
//! unwrap, hash, and time themselves freely.

use crate::lexer::{lex, Lexed, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// One lint violation, anchored to a token.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path of the offending file (sort key #1).
    pub path: String,
    /// 1-based line (sort key #2).
    pub line: u32,
    /// 1-based byte column (sort key #3).
    pub col: u32,
    /// Lint id, e.g. `float-total-order`.
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// The conventional `path:line:col: [lint] message` rendering.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.lint, self.message
        )
    }
}

/// A registered lint: id, one-line summary, path scope, and checker.
pub struct LintSpec {
    /// Stable lint id used in reports, baselines, and allow directives.
    pub id: &'static str,
    /// One-line description for `oblint --list` and the README catalog.
    pub summary: &'static str,
    /// Whether the lint applies to a given repo-relative path.
    pub applies: fn(&str) -> bool,
    /// The token-level checker; returns (token index, message) pairs.
    pub check: fn(&Ctx<'_>) -> Vec<(usize, String)>,
}

/// Per-file context handed to lint checkers.
pub struct Ctx<'a> {
    /// Repo-relative path (used by scoping, not by checkers).
    pub path: &'a str,
    /// Raw source, for slicing token text.
    pub src: &'a str,
    /// The full token stream.
    pub tokens: &'a [Token],
}

impl<'a> Ctx<'a> {
    /// The source text of token `i`.
    pub fn text(&self, i: usize) -> &'a str {
        let t = &self.tokens[i];
        &self.src[t.start..t.end]
    }

    fn is_punct(&self, i: usize, p: &str) -> bool {
        i < self.tokens.len() && self.tokens[i].kind == TokenKind::Punct && self.text(i) == p
    }

    fn is_ident(&self, i: usize) -> bool {
        i < self.tokens.len() && self.tokens[i].kind == TokenKind::Ident
    }
}

fn in_crate_lib(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/")
}

/// `partial_cmp` / float `sort_by` comparators are not total: a single NaN
/// flips orderings and breaks replay determinism. Use `f64::total_cmp`.
pub static FLOAT_TOTAL_ORDER: LintSpec = LintSpec {
    id: "float-total-order",
    summary: "partial_cmp on floats is not a total order; use total_cmp",
    applies: |_| true,
    check: |ctx| {
        let mut out = Vec::new();
        for i in 0..ctx.tokens.len() {
            if ctx.is_ident(i) && ctx.text(i) == "partial_cmp" {
                out.push((
                    i,
                    "`partial_cmp` is not total over floats (NaN breaks replay \
                     determinism); use `f64::total_cmp` or a key extraction"
                        .to_string(),
                ));
            }
        }
        out
    },
};

/// Hash-map iteration order varies run to run; every collection a
/// deterministic crate iterates must be a BTree map/set or a Vec.
pub static MAP_ITERATION_ORDER: LintSpec = LintSpec {
    id: "map-iteration-order",
    summary: "HashMap/HashSet in deterministic crates leak hash iteration order",
    applies: in_crate_lib,
    check: |ctx| {
        let mut out = Vec::new();
        for i in 0..ctx.tokens.len() {
            if ctx.is_ident(i) && matches!(ctx.text(i), "HashMap" | "HashSet") {
                out.push((
                    i,
                    format!(
                        "`{}` has nondeterministic iteration order; use the \
                         BTree equivalent (or a Vec) in scheduler crates",
                        ctx.text(i)
                    ),
                ));
            }
        }
        out
    },
};

/// Wall-clock reads in deterministic code poison replay; only the bench
/// crate, the server's load generator (latency is client-observed there),
/// and the server binaries (which *inject* a clock into the clock-free
/// daemon core) may time things. The server's protocol/session/server
/// core stays in scope: it must never observe time.
pub static WALL_CLOCK_IN_CORE: LintSpec = LintSpec {
    id: "wall-clock-in-core",
    summary: "Instant/SystemTime outside crates/bench breaks replayability",
    applies: |path| {
        !path.starts_with("crates/bench")
            && !path.starts_with("crates/server/src/load.rs")
            && !path.starts_with("crates/server/src/bin/")
    },
    check: |ctx| {
        let mut out = Vec::new();
        for i in 0..ctx.tokens.len() {
            if ctx.is_ident(i) && matches!(ctx.text(i), "Instant" | "SystemTime") {
                out.push((
                    i,
                    format!(
                        "`{}` reads the wall clock; deterministic crates must \
                         not observe time (timing belongs in crates/bench)",
                        ctx.text(i)
                    ),
                ));
            }
        }
        out
    },
};

/// `.unwrap()` / `.expect()` in library code turns recoverable conditions
/// into panics; route errors through the crate's typed error enums.
pub static UNWRAP_IN_LIB: LintSpec = LintSpec {
    id: "unwrap-in-lib",
    summary: ".unwrap()/.expect() in non-test library code panics instead of erroring",
    applies: in_crate_lib,
    check: |ctx| {
        let mut out = Vec::new();
        for i in 1..ctx.tokens.len() {
            if ctx.is_ident(i)
                && matches!(ctx.text(i), "unwrap" | "expect")
                && ctx.is_punct(i - 1, ".")
            {
                out.push((
                    i,
                    format!(
                        "`.{}` in library code panics on the error path; \
                         propagate a typed error instead",
                        ctx.text(i)
                    ),
                ));
            }
        }
        out
    },
};

const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Bare `as` casts in the sparse-engine hot paths truncate or wrap
/// silently; use the checked helpers (`item_index`, `item_id`,
/// `approx_f64`, `grid_index`) or `try_from`.
pub static LOSSY_CAST_IN_ENGINE: LintSpec = LintSpec {
    id: "lossy-cast-in-engine",
    summary: "bare numeric `as` casts in crates/sinr engine paths can truncate silently",
    applies: |path| path.starts_with("crates/sinr/src/engine"),
    check: |ctx| {
        let mut out = Vec::new();
        for i in 0..ctx.tokens.len().saturating_sub(1) {
            if ctx.is_ident(i)
                && ctx.text(i) == "as"
                && ctx.is_ident(i + 1)
                && NUMERIC_TYPES.contains(&ctx.text(i + 1))
            {
                out.push((
                    i,
                    format!(
                        "bare `as {}` cast in an engine hot path; use a checked \
                         helper (item_index/item_id/approx_f64/grid_index) or \
                         `try_from`",
                        ctx.text(i + 1)
                    ),
                ));
            }
        }
        out
    },
};

/// Fields whose writes must carry the SAFETY inflation (or go through the
/// sanctioned pad helpers) for the conservative-verdict guarantee to hold.
const PAD_FIELDS: &[&str] = &["mass", "cap", "dropped_mass", "dropped_cap", "quanta"];
const SANCTIONED: &[&str] = &["SAFETY", "pad_absorb", "pad_quanta"];

/// Arithmetic on dropped-mass/pad fields in the sparse engine must mention
/// `SAFETY` or route through `pad_absorb` / `pad_quanta` (which take an
/// already SAFETY-inflated contribution), else the engine can
/// under-estimate interference and certify an infeasible schedule.
pub static MISSING_SAFETY_INFLATION: LintSpec = LintSpec {
    id: "missing-safety-inflation",
    summary: "pad-field writes in the sparse engine must carry the SAFETY inflation",
    applies: |path| path.starts_with("crates/sinr/src/engine/sparse"),
    check: |ctx| {
        let mut out = Vec::new();
        let n = ctx.tokens.len();
        for i in 1..n {
            if !(ctx.is_ident(i) && PAD_FIELDS.contains(&ctx.text(i)) && ctx.is_punct(i - 1, ".")) {
                continue;
            }
            // Skip an optional index expression: `.mass[port]`.
            let mut j = i + 1;
            if ctx.is_punct(j, "[") {
                let mut depth = 1usize;
                j += 1;
                while j < n && depth > 0 {
                    if ctx.is_punct(j, "[") {
                        depth += 1;
                    } else if ctx.is_punct(j, "]") {
                        depth -= 1;
                    }
                    j += 1;
                }
            }
            let is_assign = j < n
                && ctx.tokens[j].kind == TokenKind::Punct
                && matches!(ctx.text(j), "=" | "+=" | "-=" | "*=" | "/=");
            if !is_assign {
                continue; // a read, not a write
            }
            // Scan the right-hand side to the end of the statement and
            // look for a sanctioned identifier.
            let mut k = j + 1;
            let mut depth = 0isize;
            let mut sanctioned = false;
            while k < n {
                if ctx.tokens[k].kind == TokenKind::Punct {
                    match ctx.text(k) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => {
                            if depth == 0 {
                                break; // statement ended via enclosing block
                            }
                            depth -= 1;
                        }
                        ";" | "," if depth == 0 => break,
                        _ => {}
                    }
                } else if ctx.is_ident(k) && SANCTIONED.contains(&ctx.text(k)) {
                    sanctioned = true;
                    break;
                }
                k += 1;
            }
            if !sanctioned {
                out.push((
                    i,
                    format!(
                        "write to pad field `{}` without SAFETY inflation; \
                         multiply by SAFETY in-statement or use \
                         pad_absorb/pad_quanta",
                        ctx.text(i)
                    ),
                ));
            }
        }
        out
    },
};

/// All registered lints, in catalog order.
pub static LINTS: &[&LintSpec] = &[
    &FLOAT_TOTAL_ORDER,
    &MAP_ITERATION_ORDER,
    &WALL_CLOCK_IN_CORE,
    &UNWRAP_IN_LIB,
    &LOSSY_CAST_IN_ENGINE,
    &MISSING_SAFETY_INFLATION,
];

/// Look up a lint by id.
pub fn lint_by_id(id: &str) -> Option<&'static LintSpec> {
    LINTS.iter().copied().find(|l| l.id == id)
}

/// Byte ranges covered by `#[test]` functions and `#[cfg(test)]` items.
///
/// Detection is lexical: an attribute whose first identifier is `test`, or
/// is `cfg` with a `test` identifier anywhere inside, marks the following
/// item (through its brace-matched body, or to the terminating `;`).
fn test_regions(lexed: &Lexed, src: &str) -> Vec<(usize, usize)> {
    let tokens = &lexed.tokens;
    let n = tokens.len();
    let text = |i: usize| &src[tokens[i].start..tokens[i].end];
    let is_punct = |i: usize, p: &str| i < n && tokens[i].kind == TokenKind::Punct && text(i) == p;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < n {
        if !(is_punct(i, "#") && is_punct(i + 1, "[")) {
            i += 1;
            continue;
        }
        let attr_start = tokens[i].start;
        // Bracket-match the attribute, collecting its identifiers.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut idents: Vec<&str> = Vec::new();
        while j < n && depth > 0 {
            if is_punct(j, "[") {
                depth += 1;
            } else if is_punct(j, "]") {
                depth -= 1;
            } else if tokens[j].kind == TokenKind::Ident {
                idents.push(text(j));
            }
            j += 1;
        }
        let is_test = matches!(idents.first(), Some(&"test"))
            || (matches!(idents.first(), Some(&"cfg")) && idents.contains(&"test"));
        if !is_test {
            i = j;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        while is_punct(j, "#") && is_punct(j + 1, "[") {
            let mut d = 1usize;
            j += 2;
            while j < n && d > 0 {
                if is_punct(j, "[") {
                    d += 1;
                } else if is_punct(j, "]") {
                    d -= 1;
                }
                j += 1;
            }
        }
        // The item extends through its brace-matched body (fn/mod/impl) or
        // to a `;` (e.g. `#[cfg(test)] use …;`).
        let mut end_byte = src.len();
        let mut k = j;
        let mut found = false;
        while k < n {
            if is_punct(k, "{") {
                let mut d = 1usize;
                k += 1;
                while k < n && d > 0 {
                    if is_punct(k, "{") {
                        d += 1;
                    } else if is_punct(k, "}") {
                        d -= 1;
                    }
                    k += 1;
                }
                end_byte = if k > 0 { tokens[k - 1].end } else { src.len() };
                found = true;
                break;
            }
            if is_punct(k, ";") {
                end_byte = tokens[k].end;
                found = true;
                break;
            }
            k += 1;
        }
        if !found {
            k = n;
        }
        regions.push((attr_start, end_byte));
        i = k;
    }
    regions
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Active findings (not suppressed, not in test regions), sorted.
    pub findings: Vec<Finding>,
    /// Number of findings silenced by `oblint::allow` directives.
    pub suppressed: usize,
}

/// Run every applicable lint over one file.
///
/// `path` is the repo-relative path used both for scoping and in the
/// emitted findings.
pub fn lint_file(path: &str, src: &str) -> FileReport {
    let lexed = lex(src);
    let regions = test_regions(&lexed, src);
    let in_test = |byte: usize| regions.iter().any(|&(s, e)| byte >= s && byte < e);

    // line -> set of lint ids allowed there. A trailing directive covers
    // its own line; a standalone one covers the next line.
    let mut allowed: BTreeMap<u32, BTreeSet<&str>> = BTreeMap::new();
    for d in &lexed.allows {
        let line = if d.standalone { d.line + 1 } else { d.line };
        let entry = allowed.entry(line).or_default();
        for l in &d.lints {
            entry.insert(l.as_str());
        }
    }

    let ctx = Ctx {
        path,
        src,
        tokens: &lexed.tokens,
    };
    let mut report = FileReport::default();
    for lint in LINTS {
        if !(lint.applies)(path) {
            continue;
        }
        for (tok_idx, message) in (lint.check)(&ctx) {
            let t = &lexed.tokens[tok_idx];
            if in_test(t.start) {
                continue;
            }
            let is_allowed = allowed
                .get(&t.line)
                .is_some_and(|lints| lints.contains(lint.id));
            if is_allowed {
                report.suppressed += 1;
            } else {
                report.findings.push(Finding {
                    path: path.to_string(),
                    line: t.line,
                    col: t.col,
                    lint: lint.id,
                    message,
                });
            }
        }
    }
    report.findings.sort();
    report
}
