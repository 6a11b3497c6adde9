//! The rule engine: per-file invariant rules, waiver resolution, and
//! the violation vocabulary.
//!
//! Every rule is **waivable** at the offending line with
//!
//! ```text
//! // lint: allow(<rule>) — <justification>
//! ```
//!
//! either trailing on the flagged line or on a comment line immediately
//! above it (comment/attribute lines may sit between the waiver and the
//! code it covers, so a waiver can stack with a `// SAFETY:` or
//! `// ordering:` comment). The justification is **mandatory**: a
//! waiver without one is itself a violation (`blanket-waiver`), as is a
//! waiver naming an unknown rule (`unknown-rule`) or a waiver that no
//! violation consumed (`unused-waiver`). The separator may be an em
//! dash, `--`, `-`, or `:`.
//!
//! Rule catalogue (`RULES`):
//!
//! * `safety-comment` — every `unsafe` keyword (block, fn, impl) must
//!   be immediately preceded by (or share its line with) a
//!   `// SAFETY:` comment stating the invariant relied upon.
//! * `atomics-audit` — every `Ordering::Relaxed` / `Ordering::SeqCst`
//!   outside the pure-counter allowlist ([`ATOMIC_ALLOWLIST`]) needs an
//!   `// ordering:` justification comment. Acquire/Release/AcqRel are
//!   exempt — paired orderings document themselves. An `// ordering:`
//!   comment covers every atomic site in the contiguous (blank-line
//!   delimited) run of lines below it.
//! * `no-panic` — in the declared hot-path zones ([`ZONES`]):
//!   `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`, `todo!`, and
//!   `unimplemented!` are forbidden; the one exception is lock-poison
//!   `.expect("named message")` directly on a `lock()/read()/write()/
//!   wait()` chain. Zones flagged `check_indexing` additionally forbid
//!   `x[…]` slice/collection indexing (which panics on out-of-bounds).
//! * `narrowing-cast` — in [`CAST_AUDIT_PATHS`], a bare `as` cast to a
//!   narrow integer type (`u8/u16/u32/i8/i16/i32`) must be `try_into`/
//!   `try_from` (or waived with the reason the value provably fits).
//! * `variant-suffix` — in [`SINGLE_ENTRY_PATHS`] (the query, why-not
//!   and engine crates), no `pub fn` may be named `*_view`, `*_masked`,
//!   `*_scratch`, `*_with_stats`, `*_legacy` or `*_trace`: every query
//!   operation is one function over a `Snapshot` (whose optional
//!   overlay selects the corrections) and a `ProbeCtx` (which owns the
//!   scratch and the counters), and every engine submit path takes its
//!   options (trace id, progress observer) on a `BatchSubmission`, so a
//!   suffixed twin is a calling-convention cross-product growing back.
//! * `drift` — cross-file vocabulary checks; see [`crate::drift`].
//!
//! Test code is exempt from `atomics-audit`, `no-panic`,
//! `narrowing-cast`, and `variant-suffix` (files under `tests/`, `examples/`, and
//! `#[cfg(test)]`/`#[test]` regions); `safety-comment` applies
//! everywhere — unsafe code in a test still relies on an invariant.

use crate::lex::{find_token, string_literals, LexedFile, Line};

/// Every rule id the checker knows (waivers must name one of these).
pub const RULES: &[&str] = &[
    "safety-comment",
    "atomics-audit",
    "no-panic",
    "narrowing-cast",
    "variant-suffix",
    "drift",
];

/// Modules whose atomics are pure monitoring counters: monotonic
/// `fetch_add` tallies read only by snapshot/reporting paths, where a
/// torn or stale read costs nothing but a momentarily-off statistic.
/// Everything else justifies its ordering per site.
pub const ATOMIC_ALLOWLIST: &[&str] = &[
    "crates/engine/src/metrics.rs",
    "crates/bench/src/bin/figures.rs",
];

/// A declared no-panic zone: a set of path prefixes plus the checks
/// active there.
pub struct Zone {
    /// Zone name (diagnostics only).
    pub name: &'static str,
    /// Repo-relative path prefixes (a file is in the zone if its path
    /// starts with any of them).
    pub prefixes: &'static [&'static str],
    /// Whether slice/collection indexing is also forbidden. On for the
    /// event loop and the storage write path (a panic there kills a
    /// poller thread or tears a WAL write); off for the compute kernels,
    /// which are indexing-dense and bounds-audited by construction.
    pub check_indexing: bool,
}

/// The hot-path zone map. Order matters: the first matching zone wins,
/// so the storage write path (indexing forbidden) is listed before the
/// broader engine-core zone (panic family only).
pub const ZONES: &[Zone] = &[
    Zone {
        name: "server-event-loop",
        prefixes: &[
            "crates/server/src/server.rs",
            "crates/server/src/conn.rs",
            "crates/server/src/poll.rs",
        ],
        check_indexing: true,
    },
    Zone {
        name: "storage-write-path",
        prefixes: &["crates/engine/src/storage/"],
        check_indexing: true,
    },
    Zone {
        name: "engine-core",
        prefixes: &["crates/engine/src/"],
        check_indexing: false,
    },
    Zone {
        name: "kernels",
        prefixes: &[
            "crates/geom/src/delta.rs",
            "crates/geom/src/flat.rs",
            "crates/geom/src/quantized.rs",
            "crates/query/src/",
        ],
        check_indexing: false,
    },
];

/// Paths audited for bare narrowing `as` casts (the codec, the
/// durable-format writers, and the two decoders of untrusted request
/// bytes, where a silent truncation corrupts frames).
pub const CAST_AUDIT_PATHS: &[&str] = &[
    "crates/codec/src/",
    "crates/engine/src/storage/",
    "crates/engine/src/request.rs",
    "crates/server/src/wire.rs",
];

/// Crates whose public API is one function per operation (see the
/// `variant-suffix` rule).
pub const SINGLE_ENTRY_PATHS: &[&str] = &["crates/query/", "crates/core/", "crates/engine/"];

/// Name endings that mark a per-calling-convention twin of an operation.
pub const VARIANT_SUFFIXES: &[&str] = &[
    "_view",
    "_masked",
    "_scratch",
    "_with_stats",
    "_legacy",
    "_trace",
];

/// One source file under analysis, with its repo-relative path.
pub struct SourceFile {
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// The lexed content.
    pub lexed: LexedFile,
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (one of [`RULES`] or a waiver meta-rule).
    pub rule: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human diagnostic.
    pub message: String,
}

/// A parsed waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// File the waiver appears in.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// The rule it names.
    pub rule: String,
    /// The justification text (may be empty — that's a violation).
    pub justification: String,
    /// Whether a violation consumed it.
    pub used: bool,
}

fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.starts_with("examples/")
        || path.contains("/examples/")
}

fn zone_for(path: &str) -> Option<&'static Zone> {
    ZONES
        .iter()
        .find(|z| z.prefixes.iter().any(|p| path.starts_with(p)))
}

/// Parses every `lint: allow(…)` waiver comment in `file`.
pub fn collect_waivers(file: &SourceFile) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (idx, line) in file.lexed.lines.iter().enumerate() {
        let c = &line.comment;
        let Some(pos) = c.find("lint: allow(") else {
            continue;
        };
        let after = &c[pos + "lint: allow(".len()..];
        let Some(close) = after.find(')') else {
            continue;
        };
        let rule = after[..close].trim().to_string();
        // Documentation examples write `allow(<rule>)` / `allow(…)` —
        // meta-syntax placeholders are not waivers. Real rule ids (and
        // real typos of them) are plain `[a-z0-9_-]` identifiers.
        if rule.is_empty()
            || !rule
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            continue;
        }
        let justification = after[close + 1..]
            .trim_start_matches([' ', '\t'])
            .trim_start_matches(['—', '–', '-', ':'])
            .trim()
            .to_string();
        out.push(Waiver {
            file: file.path.clone(),
            line: idx + 1,
            rule,
            justification,
            used: false,
        });
    }
    out
}

/// True if `lines[idx]` holds only comments and/or attributes (no other
/// code) — the lines a waiver may "see through" when it sits above the
/// flagged line.
fn is_comment_or_attr_line(line: &Line) -> bool {
    let t = line.code.trim();
    t.is_empty() || (t.starts_with("#[") && t.ends_with(']'))
}

/// Finds (and marks used) a **justified** waiver covering `line_no`
/// for `rule`: trailing on the line itself, or on a comment/attribute
/// line walking up from it. Blanket (unjustified) waivers never
/// suppress anything.
pub fn consume_waiver(
    waivers: &mut [Waiver],
    file: &SourceFile,
    rule: &str,
    line_no: usize,
) -> bool {
    let lines = &file.lexed.lines;
    let mut candidates = vec![line_no];
    let mut l = line_no; // 1-based
    while l > 1 && is_comment_or_attr_line(&lines[l - 2]) {
        l -= 1;
        candidates.push(l);
    }
    for w in waivers.iter_mut() {
        if w.rule == rule
            && w.file == file.path
            && !w.justification.is_empty()
            && candidates.contains(&w.line)
        {
            w.used = true;
            return true;
        }
    }
    false
}

/// Runs the per-file rules on one file. Drift (cross-file) runs
/// separately in [`crate::drift`].
pub fn check_file(file: &SourceFile, out: &mut Vec<Violation>) {
    rule_safety_comment(file, out);
    if !is_test_path(&file.path) {
        rule_atomics_audit(file, out);
        rule_no_panic(file, out);
        rule_narrowing_cast(file, out);
        rule_variant_suffix(file, out);
    }
}

fn rule_safety_comment(file: &SourceFile, out: &mut Vec<Violation>) {
    let lines = &file.lexed.lines;
    for (idx, line) in lines.iter().enumerate() {
        if find_token(&line.code, "unsafe").is_empty() {
            continue;
        }
        // Same-line comment counts (trailing `// SAFETY: …`).
        if line.comment.contains("SAFETY:") {
            continue;
        }
        // Walk up through contiguous comment/attribute lines; any of
        // them carrying `SAFETY:` satisfies the rule (multi-line SAFETY
        // blocks). A blank line breaks adjacency.
        let mut ok = false;
        let mut l = idx; // 0-based index of the line above
        while l > 0 {
            let above = &lines[l - 1];
            if is_comment_or_attr_line(above) && !above.raw.trim().is_empty() {
                if above.comment.contains("SAFETY:") {
                    ok = true;
                    break;
                }
                l -= 1;
            } else {
                break;
            }
        }
        if !ok {
            out.push(Violation {
                rule: "safety-comment",
                file: file.path.clone(),
                line: idx + 1,
                message: "`unsafe` without an immediately preceding `// SAFETY:` comment \
                          stating the invariant relied upon"
                    .into(),
            });
        }
    }
}

fn rule_atomics_audit(file: &SourceFile, out: &mut Vec<Violation>) {
    if ATOMIC_ALLOWLIST.contains(&file.path.as_str()) {
        return;
    }
    let lines = &file.lexed.lines;
    // An `// ordering:` comment covers its own line and every following
    // line until the next blank line.
    let mut covered_since: Option<usize> = None;
    for (idx, line) in lines.iter().enumerate() {
        if line.raw.trim().is_empty() {
            covered_since = None;
            continue;
        }
        if line.comment.contains("ordering:") {
            covered_since = Some(idx);
        }
        if line.in_test {
            continue;
        }
        for tok in ["Ordering::Relaxed", "Ordering::SeqCst"] {
            if line.code.contains(tok) {
                if covered_since.is_none() {
                    out.push(Violation {
                        rule: "atomics-audit",
                        file: file.path.clone(),
                        line: idx + 1,
                        message: format!(
                            "`{tok}` without an `// ordering:` justification comment \
                             (and {} is not in the pure-counter allowlist)",
                            file.path
                        ),
                    });
                }
                break; // one diagnostic per line
            }
        }
    }
}

/// The panic-family tokens forbidden in zones (macro-name, needs `!`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Chain heads whose poison-expect is tolerated: a poisoned lock means
/// a sibling thread already panicked, and the named message is the
/// fastest triage breadcrumb.
const LOCK_CHAIN: &[&str] = &[".lock()", ".read()", ".write()", ".try_lock()", ".wait("];

fn statement_context(lines: &[Line], idx: usize) -> Vec<&str> {
    // The flagged line plus the chain it continues: walk up while the
    // inspected line *starts* with `.` (method-chain continuation).
    let mut ctx = vec![lines[idx].code.as_str()];
    let mut l = idx;
    while l > 0 && lines[l].code.trim_start().starts_with('.') {
        l -= 1;
        ctx.push(lines[l].code.as_str());
    }
    ctx
}

fn rule_no_panic(file: &SourceFile, out: &mut Vec<Violation>) {
    let Some(zone) = zone_for(&file.path) else {
        return;
    };
    let lines = &file.lexed.lines;
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;

        for mac in PANIC_MACROS {
            for col in find_token(code, mac) {
                if code[col + mac.len()..].starts_with('!') {
                    out.push(Violation {
                        rule: "no-panic",
                        file: file.path.clone(),
                        line: idx + 1,
                        message: format!(
                            "`{mac}!` in no-panic zone `{}` — return a typed error instead",
                            zone.name
                        ),
                    });
                }
            }
        }

        for col in find_token(code, "unwrap") {
            if !code[col + "unwrap".len()..].starts_with("()") {
                continue;
            }
            if code[..col].trim_end().ends_with('.') {
                out.push(Violation {
                    rule: "no-panic",
                    file: file.path.clone(),
                    line: idx + 1,
                    message: format!(
                        "`.unwrap()` in no-panic zone `{}` — use a message-bearing \
                         `.expect(…)` on lock guards or typed error handling",
                        zone.name
                    ),
                });
            }
        }

        for col in find_token(code, "expect") {
            if !code[col + "expect".len()..].starts_with('(') {
                continue;
            }
            if !code[..col].trim_end().ends_with('.') {
                continue;
            }
            let ctx = statement_context(lines, idx);
            let on_lock = ctx.iter().any(|c| LOCK_CHAIN.iter().any(|h| c.contains(h)));
            let named = string_literals(line).iter().any(|s| !s.trim().is_empty());
            if on_lock && named {
                continue;
            }
            out.push(Violation {
                rule: "no-panic",
                file: file.path.clone(),
                line: idx + 1,
                message: if on_lock {
                    format!(
                        "lock-poison `.expect(…)` in zone `{}` must carry a named \
                         message literal",
                        zone.name
                    )
                } else {
                    format!(
                        "`.expect(…)` in no-panic zone `{}` — only lock-poison \
                         expects with a named message are tolerated",
                        zone.name
                    )
                },
            });
        }

        if zone.check_indexing {
            rule_indexing(file, zone, idx, out);
        }
    }
}

fn rule_indexing(file: &SourceFile, zone: &Zone, idx: usize, out: &mut Vec<Violation>) {
    let line = &file.lexed.lines[idx];
    let bytes = line.code.as_bytes();
    let mut reported = false;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 || reported {
            continue;
        }
        // Indexing iff the previous non-space char ends an expression:
        // an identifier, a call `)`, or a prior index `]`.
        let mut j = i;
        while j > 0 && bytes[j - 1] == b' ' {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let prev = bytes[j - 1];
        let is_expr_end =
            prev == b')' || prev == b']' || prev.is_ascii_alphanumeric() || prev == b'_';
        if !is_expr_end {
            continue;
        }
        // `for x in [...]`, `return [...]` etc. are array literals: if
        // the word ending just before `[` is a keyword, no expression
        // precedes the bracket.
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            let mut k = j - 1;
            while k > 0 && (bytes[k - 1].is_ascii_alphanumeric() || bytes[k - 1] == b'_') {
                k -= 1;
            }
            const KEYWORDS: &[&str] = &[
                "in", "return", "break", "if", "while", "match", "else", "mut", "ref", "move",
            ];
            if KEYWORDS.contains(&&line.code[k..j]) {
                continue;
            }
            // `&'a [f64]`: a lifetime before `[` is a slice type, not an
            // expression being indexed.
            if k > 0 && bytes[k - 1] == b'\'' {
                continue;
            }
        }
        // `ident[` could still be a macro path segment in an attribute —
        // attributes were excluded by the lexer keeping them as code;
        // `#[…]` has `#` before `[`, already rejected (prev == '#').
        out.push(Violation {
            rule: "no-panic",
            file: file.path.clone(),
            line: idx + 1,
            message: format!(
                "slice/collection indexing in no-panic zone `{}` — out-of-bounds \
                 panics here; use `get`/`split_at`/iterators or waive with the \
                 bound that holds",
                zone.name
            ),
        });
        reported = true; // one diagnostic per line keeps waivers 1:1
    }
}

fn rule_narrowing_cast(file: &SourceFile, out: &mut Vec<Violation>) {
    if !CAST_AUDIT_PATHS.iter().any(|p| file.path.starts_with(p)) {
        return;
    }
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    for (idx, line) in file.lexed.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for col in find_token(&line.code, "as") {
            let rest = line.code[col + 2..].trim_start();
            let target = NARROW.iter().find(|t| {
                rest.starts_with(**t)
                    && !rest[t.len()..]
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
            });
            if let Some(t) = target {
                out.push(Violation {
                    rule: "narrowing-cast",
                    file: file.path.clone(),
                    line: idx + 1,
                    message: format!(
                        "bare `as {t}` narrowing cast in an audited codec/storage path — \
                         use `try_from`/`try_into` (or `From` for provable widenings), \
                         or waive with the bound that makes truncation impossible"
                    ),
                });
                break; // one per line
            }
        }
    }
}

fn rule_variant_suffix(file: &SourceFile, out: &mut Vec<Violation>) {
    if !SINGLE_ENTRY_PATHS.iter().any(|p| file.path.starts_with(p)) {
        return;
    }
    for (idx, line) in file.lexed.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for col in find_token(&line.code, "fn") {
            if !line.code[..col].trim_end().ends_with("pub") {
                continue;
            }
            let name: &str = line.code[col + 2..]
                .trim_start()
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .unwrap_or("");
            if let Some(suffix) = VARIANT_SUFFIXES.iter().find(|s| name.ends_with(**s)) {
                out.push(Violation {
                    rule: "variant-suffix",
                    file: file.path.clone(),
                    line: idx + 1,
                    message: format!(
                        "`pub fn {name}` is a `{suffix}` twin — keep one function per \
                         operation and carry the convention in its arguments: a query \
                         takes `impl Into<Snapshot>` (the overlay is an optional part) \
                         and `&mut ProbeCtx` (scratch + counters); a submit takes a \
                         `BatchSubmission` (trace id, progress observer, completion)"
                    ),
                });
            }
        }
    }
}

/// Applies waivers to `violations`, returning the survivors plus the
/// waiver meta-violations (blanket, unknown-rule, unused).
pub fn apply_waivers(
    files: &[SourceFile],
    mut waivers: Vec<Waiver>,
    violations: Vec<Violation>,
) -> (Vec<Violation>, usize) {
    let mut surviving = Vec::new();
    for v in violations {
        let Some(file) = files.iter().find(|f| f.path == v.file) else {
            surviving.push(v);
            continue;
        };
        if consume_waiver(&mut waivers, file, v.rule, v.line) {
            continue;
        }
        surviving.push(v);
    }

    let mut used_count = 0usize;
    for w in &waivers {
        if w.justification.is_empty() {
            surviving.push(Violation {
                rule: "blanket-waiver",
                file: w.file.clone(),
                line: w.line,
                message: format!(
                    "waiver for `{}` carries no justification — every waiver must \
                     say *why* the rule does not apply here",
                    w.rule
                ),
            });
        } else if !RULES.contains(&w.rule.as_str()) {
            surviving.push(Violation {
                rule: "unknown-rule",
                file: w.file.clone(),
                line: w.line,
                message: format!(
                    "waiver names unknown rule `{}` (known: {})",
                    w.rule,
                    RULES.join(", ")
                ),
            });
        } else if !w.used {
            surviving.push(Violation {
                rule: "unused-waiver",
                file: w.file.clone(),
                line: w.line,
                message: format!(
                    "waiver for `{}` matched no violation — stale waivers hide \
                     future regressions; delete it",
                    w.rule
                ),
            });
        } else {
            used_count += 1;
        }
    }
    (surviving, used_count)
}
