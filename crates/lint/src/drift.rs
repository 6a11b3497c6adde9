//! The cross-file `drift` rule: vocabularies that live in more than one
//! place must agree.
//!
//! Two families of checks:
//!
//! 1. **Engine-error coverage.** The variants of `EngineError`
//!    (`crates/engine/src/error.rs`) must each (a) be listed in the
//!    wire coverage table `ENGINE_ERROR_VARIANTS`
//!    (`crates/server/src/wire.rs`), whose conformance test proves each
//!    typed error round-trips the wire as a decodable error frame, and
//!    (b) appear in at least one test (a `tests/` file or a
//!    `#[cfg(test)]` region) — a typed error nobody constructs in a
//!    test is an untested promise. Stale names in the wire table are
//!    flagged too.
//! 2. **Request-kind table vs. DESIGN.md.** The declared arity of
//!    `REQUEST_KIND_TABLE` (`crates/engine/src/request.rs`), its entry
//!    count, and the anchored wire-tag table in `DESIGN.md`
//!    (`<!-- lint:wire-tag-table -->`) must all agree — same row count,
//!    same (name, tag) pairs — so the documented wire vocabulary cannot
//!    drift from the one source-of-truth table the codec derives from.
//!    Wire tags are append-only, so a tag below the highest one in use
//!    that no kind carries is a **retired** tag: the table's
//!    `reserved: … (requests), … (responses)` line must list exactly
//!    those gaps — of `REQUEST_KIND_TABLE` and of the `RESP_*` constants
//!    in `wire.rs` — so a retired tag is documented and never reused.

use crate::lex::{find_token, string_literals};
use crate::rules::{SourceFile, Violation};

const ERROR_RS: &str = "crates/engine/src/error.rs";
const WIRE_RS: &str = "crates/server/src/wire.rs";
const REQUEST_RS: &str = "crates/engine/src/request.rs";

/// Inputs for the drift rule beyond the Rust sources.
pub struct DriftDocs {
    /// The contents of `DESIGN.md`, if present.
    pub design_md: Option<String>,
}

fn file<'a>(files: &'a [SourceFile], path: &str) -> Option<&'a SourceFile> {
    files.iter().find(|f| f.path == path)
}

/// Parses the variant names of `pub enum EngineError { … }`.
fn engine_error_variants(f: &SourceFile) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let lines = &f.lexed.lines;
    let Some(open) = lines
        .iter()
        .position(|l| l.code.contains("enum EngineError") && l.code.contains('{'))
    else {
        return out;
    };
    let body_depth = lines[open].depth_end;
    for (idx, line) in lines.iter().enumerate().skip(open + 1) {
        if line.depth_start < body_depth {
            break;
        }
        if line.depth_start != body_depth {
            continue; // inside a variant's field block
        }
        let t = line.code.trim();
        let ident: String = t
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !ident.is_empty() && ident.chars().next().is_some_and(char::is_uppercase) {
            out.push((ident, idx + 1));
        }
    }
    out
}

/// Parses the string entries of `ENGINE_ERROR_VARIANTS: [&str; N]`.
fn wire_error_table(f: &SourceFile) -> Option<(usize, Vec<String>)> {
    let lines = &f.lexed.lines;
    let start = lines
        .iter()
        .position(|l| l.code.contains("ENGINE_ERROR_VARIANTS") && l.code.contains(':'))?;
    let arity = parse_declared_arity(&lines[start].code)?;
    let mut names = Vec::new();
    for line in &lines[start..] {
        names.extend(string_literals(line));
        if line.code.contains("];") {
            break;
        }
    }
    Some((arity, names))
}

/// Extracts `N` from a declaration like `: [&str; N] = [` or
/// `: [(RequestKind, &str, u8); N] = [` — the `;` whose run-up to the
/// next `]` is a bare integer.
fn parse_declared_arity(code: &str) -> Option<usize> {
    for (i, c) in code.char_indices() {
        if c != ';' {
            continue;
        }
        let rest = &code[i + 1..];
        let Some(close) = rest.find(']') else {
            continue;
        };
        if let Ok(n) = rest[..close].trim().parse() {
            return Some(n);
        }
    }
    None
}

/// Parses `REQUEST_KIND_TABLE`: declared arity plus `(name, tag)` rows.
fn request_kind_table(f: &SourceFile) -> Option<(usize, Vec<(String, u64)>)> {
    let lines = &f.lexed.lines;
    let start = lines
        .iter()
        .position(|l| l.code.contains("const REQUEST_KIND_TABLE"))?;
    let arity = parse_declared_arity(&lines[start].code)?;
    let mut rows = Vec::new();
    for line in &lines[start + 1..] {
        if line.code.contains("];") {
            break;
        }
        if !line.code.contains("RequestKind::") {
            continue;
        }
        let Some(name) = string_literals(line).into_iter().next() else {
            continue;
        };
        // The tag is the last integer on the row: `…, "name", 7),`.
        let digits: String = line
            .code
            .chars()
            .rev()
            .skip_while(|c| !c.is_ascii_digit())
            .take_while(|c| c.is_ascii_digit())
            .collect();
        let tag: u64 = digits.chars().rev().collect::<String>().parse().ok()?;
        rows.push((name, tag));
    }
    Some((arity, rows))
}

/// Parses the anchored wire-tag table out of DESIGN.md: rows of
/// `| Kind | name | tag |` between `<!-- lint:wire-tag-table -->` and
/// `<!-- /lint:wire-tag-table -->`.
fn design_wire_table(design: &str) -> Option<Vec<(String, u64)>> {
    let start = design.find("<!-- lint:wire-tag-table -->")?;
    let end = design[start..].find("<!-- /lint:wire-tag-table -->")? + start;
    let mut rows = Vec::new();
    for line in design[start..end].lines() {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 3 {
            continue;
        }
        // Skip header and separator rows.
        if cells[2].chars().all(|c| c == '-' || c == ':') || cells[2].parse::<u64>().is_err() {
            continue;
        }
        rows.push((cells[1].to_string(), cells[2].parse().ok()?));
    }
    Some(rows)
}

/// Parses the `reserved: 4, 5 (requests), 5, 6 (responses)` line of the
/// anchored DESIGN.md block into (request tags, response tags); a
/// missing line or side reserves nothing.
fn design_reserved_tags(design: &str) -> (Vec<u64>, Vec<u64>) {
    let block = design
        .split("<!-- lint:wire-tag-table -->")
        .nth(1)
        .and_then(|rest| rest.split("<!-- /lint:wire-tag-table -->").next())
        .unwrap_or("");
    let Some(line) = block
        .lines()
        .find_map(|l| l.trim().strip_prefix("reserved:"))
    else {
        return (Vec::new(), Vec::new());
    };
    let numbers = |text: &str| -> Vec<u64> {
        text.split(|c: char| !c.is_ascii_digit())
            .filter_map(|n| n.parse().ok())
            .collect()
    };
    let (requests, rest) = line.split_once("(requests)").unwrap_or(("", line));
    let responses = rest.split_once("(responses)").map_or("", |(r, _)| r);
    (numbers(requests), numbers(responses))
}

/// Parses the values of the `const RESP_*: u8 = N;` response body tags.
fn response_tags(f: &SourceFile) -> Vec<u64> {
    f.lexed
        .lines
        .iter()
        .filter_map(|l| {
            let rest = l.code.trim().strip_prefix("const RESP_")?;
            rest.split_once('=')?
                .1
                .trim()
                .trim_end_matches(';')
                .parse()
                .ok()
        })
        .collect()
}

/// Flags a mismatch between the tags DESIGN.md reserves and the gaps
/// (unused tags below the highest used one) of the `used` tag set.
fn check_reserved(what: &str, used: &[u64], reserved: &[u64], out: &mut Vec<Violation>) {
    let top = used.iter().copied().max().unwrap_or(0);
    let gaps: Vec<u64> = (1..top).filter(|t| !used.contains(t)).collect();
    let mut reserved = reserved.to_vec();
    reserved.sort_unstable();
    if gaps != reserved {
        out.push(Violation {
            rule: "drift",
            file: "DESIGN.md".into(),
            line: 1,
            message: format!(
                "DESIGN.md reserves {what} tags {reserved:?} but the retired (unused, \
                 never-reusable) tags in the source are {gaps:?}"
            ),
        });
    }
}

/// True if `ident` occurs as a token anywhere in test code.
fn appears_in_tests(files: &[SourceFile], ident: &str) -> bool {
    for f in files {
        let whole_file_is_test = f.path.starts_with("tests/") || f.path.contains("/tests/");
        for line in &f.lexed.lines {
            if (whole_file_is_test || line.in_test) && !find_token(&line.code, ident).is_empty() {
                return true;
            }
        }
    }
    false
}

/// Runs every drift check over the workspace.
pub fn check_drift(files: &[SourceFile], docs: &DriftDocs, out: &mut Vec<Violation>) {
    // — Engine-error coverage —
    if let Some(err_file) = file(files, ERROR_RS) {
        let variants = engine_error_variants(err_file);
        if variants.is_empty() {
            out.push(Violation {
                rule: "drift",
                file: ERROR_RS.into(),
                line: 1,
                message: "could not parse any `EngineError` variants".into(),
            });
        }
        let wire = file(files, WIRE_RS).and_then(wire_error_table);
        match &wire {
            None => out.push(Violation {
                rule: "drift",
                file: WIRE_RS.into(),
                line: 1,
                message: "missing `ENGINE_ERROR_VARIANTS` wire coverage table — every \
                          `EngineError` variant must be listed (and round-tripped by the \
                          conformance test)"
                    .into(),
            }),
            Some((arity, names)) => {
                if *arity != names.len() {
                    out.push(Violation {
                        rule: "drift",
                        file: WIRE_RS.into(),
                        line: 1,
                        message: format!(
                            "`ENGINE_ERROR_VARIANTS` declares arity {arity} but lists {} names",
                            names.len()
                        ),
                    });
                }
                for (v, line) in &variants {
                    if !names.contains(v) {
                        out.push(Violation {
                            rule: "drift",
                            file: ERROR_RS.into(),
                            line: *line,
                            message: format!(
                                "`EngineError::{v}` is not listed in \
                                 `ENGINE_ERROR_VARIANTS` ({WIRE_RS}) — wire error \
                                 coverage drifted"
                            ),
                        });
                    }
                }
                for n in names {
                    if !variants.iter().any(|(v, _)| v == n) {
                        out.push(Violation {
                            rule: "drift",
                            file: WIRE_RS.into(),
                            line: 1,
                            message: format!(
                                "`ENGINE_ERROR_VARIANTS` lists `{n}`, which is not an \
                                 `EngineError` variant — stale entry"
                            ),
                        });
                    }
                }
            }
        }
        for (v, line) in &variants {
            if !appears_in_tests(files, v) {
                out.push(Violation {
                    rule: "drift",
                    file: ERROR_RS.into(),
                    line: *line,
                    message: format!(
                        "`EngineError::{v}` appears in no test — every typed error \
                         needs at least one test constructing or matching it"
                    ),
                });
            }
        }
    }

    // — Request-kind table vs DESIGN.md —
    if let Some(req_file) = file(files, REQUEST_RS) {
        match request_kind_table(req_file) {
            None => out.push(Violation {
                rule: "drift",
                file: REQUEST_RS.into(),
                line: 1,
                message: "could not parse `REQUEST_KIND_TABLE`".into(),
            }),
            Some((arity, rows)) => {
                if arity != rows.len() {
                    out.push(Violation {
                        rule: "drift",
                        file: REQUEST_RS.into(),
                        line: 1,
                        message: format!(
                            "`REQUEST_KIND_TABLE` declares arity {arity} but holds {} rows",
                            rows.len()
                        ),
                    });
                }
                if let Some(design) = docs.design_md.as_deref() {
                    let (requests, responses) = design_reserved_tags(design);
                    let used: Vec<u64> = rows.iter().map(|(_, tag)| *tag).collect();
                    check_reserved("request", &used, &requests, out);
                    let used = file(files, WIRE_RS).map(response_tags).unwrap_or_default();
                    check_reserved("response", &used, &responses, out);
                }
                match docs.design_md.as_deref().and_then(design_wire_table) {
                    None => out.push(Violation {
                        rule: "drift",
                        file: "DESIGN.md".into(),
                        line: 1,
                        message: "DESIGN.md has no `<!-- lint:wire-tag-table -->` anchored \
                                  wire-tag table to cross-check `REQUEST_KIND_TABLE` against"
                            .into(),
                    }),
                    Some(doc_rows) => {
                        if doc_rows.len() != rows.len() {
                            out.push(Violation {
                                rule: "drift",
                                file: "DESIGN.md".into(),
                                line: 1,
                                message: format!(
                                    "DESIGN.md wire-tag table has {} rows but \
                                     `REQUEST_KIND_TABLE` has {} — the documented wire \
                                     vocabulary drifted",
                                    doc_rows.len(),
                                    rows.len()
                                ),
                            });
                        }
                        for (name, tag) in &rows {
                            if !doc_rows.iter().any(|(n, t)| n == name && t == tag) {
                                out.push(Violation {
                                    rule: "drift",
                                    file: "DESIGN.md".into(),
                                    line: 1,
                                    message: format!(
                                        "request kind `{name}` (tag {tag}) is missing from \
                                         (or mismatched in) the DESIGN.md wire-tag table"
                                    ),
                                });
                            }
                        }
                        for (name, tag) in &doc_rows {
                            if !rows.iter().any(|(n, t)| n == name && t == tag) {
                                out.push(Violation {
                                    rule: "drift",
                                    file: "DESIGN.md".into(),
                                    line: 1,
                                    message: format!(
                                        "DESIGN.md documents request kind `{name}` \
                                         (tag {tag}), which `REQUEST_KIND_TABLE` does not \
                                         define"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}
