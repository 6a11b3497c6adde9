//! The embedded known-bad corpus: one minimal snippet per rule that
//! **must** trip, paired with a fixed/waived twin that **must** come up
//! clean.
//!
//! `wqrtq-lint --self-test` (and the same corpus under `cargo test`)
//! runs every case both ways. This is the same pattern as
//! `benchmark/run.sh --check`'s comparator self-test: a gate you never
//! saw fail is indistinguishable from a gate wired to `true`, so the
//! corpus proves each rule actually fires before CI trusts its silence.

use crate::drift::DriftDocs;
use crate::lex::lex;
use crate::rules::{apply_waivers, check_file, collect_waivers, SourceFile, Violation};

/// One self-test case: a bad workspace that must trip `rule`, and a
/// good twin that must be entirely clean.
pub struct CorpusCase {
    /// Case name for diagnostics.
    pub name: &'static str,
    /// The rule the bad twin must trip.
    pub rule: &'static str,
    /// Bad twin: (virtual path, source) files.
    pub bad: &'static [(&'static str, &'static str)],
    /// Bad twin DESIGN.md contents, if the case needs one.
    pub bad_design: Option<&'static str>,
    /// Good twin files.
    pub good: &'static [(&'static str, &'static str)],
    /// Good twin DESIGN.md.
    pub good_design: Option<&'static str>,
}

/// The corpus, one entry per rule plus the waiver meta-rules.
pub const CORPUS: &[CorpusCase] = &[
    CorpusCase {
        name: "unsafe without SAFETY comment",
        rule: "safety-comment",
        bad: &[(
            "crates/demo/src/lib.rs",
            "pub fn shrink(v: &mut Vec<u8>) {\n    unsafe { v.set_len(0) }\n}\n",
        )],
        bad_design: None,
        good: &[(
            "crates/demo/src/lib.rs",
            "pub fn shrink(v: &mut Vec<u8>) {\n    // SAFETY: zero is within any capacity and u8 needs no drop.\n    unsafe { v.set_len(0) }\n}\n",
        )],
        good_design: None,
    },
    CorpusCase {
        name: "Relaxed atomic without ordering justification",
        rule: "atomics-audit",
        bad: &[(
            "crates/demo/src/flag.rs",
            "use std::sync::atomic::{AtomicBool, Ordering};\npub fn raise(f: &AtomicBool) {\n    f.store(true, Ordering::Relaxed);\n}\n",
        )],
        bad_design: None,
        good: &[(
            "crates/demo/src/flag.rs",
            "use std::sync::atomic::{AtomicBool, Ordering};\npub fn raise(f: &AtomicBool) {\n    // ordering: flag is advisory; the mpsc send below publishes it.\n    f.store(true, Ordering::Relaxed);\n}\n",
        )],
        good_design: None,
    },
    CorpusCase {
        name: "unwrap/panic/indexing in a no-panic zone",
        rule: "no-panic",
        bad: &[(
            "crates/server/src/server.rs",
            "fn first(queue: &[u8]) -> u8 {\n    if queue.is_empty() {\n        panic!(\"empty\");\n    }\n    queue.first().copied().unwrap()\n}\n",
        )],
        bad_design: None,
        good: &[(
            "crates/server/src/server.rs",
            "use std::sync::Mutex;\nfn head(queue: &Mutex<Vec<u8>>) -> Option<u8> {\n    queue.lock().expect(\"queue lock\").first().copied()\n}\n",
        )],
        good_design: None,
    },
    CorpusCase {
        name: "slice indexing in an indexing-checked zone",
        rule: "no-panic",
        bad: &[(
            "crates/engine/src/storage/demo.rs",
            "fn tag(frame: &[u8]) -> u8 {\n    frame[4]\n}\n",
        )],
        bad_design: None,
        good: &[(
            "crates/engine/src/storage/demo.rs",
            "fn tag(frame: &[u8]) -> Option<u8> {\n    frame.get(4).copied()\n}\n",
        )],
        good_design: None,
    },
    CorpusCase {
        name: "bare narrowing cast in codec",
        rule: "narrowing-cast",
        bad: &[(
            "crates/codec/src/demo.rs",
            "pub fn frame_len(payload: &[u8]) -> u32 {\n    payload.len() as u32\n}\n",
        )],
        bad_design: None,
        good: &[(
            "crates/codec/src/demo.rs",
            "pub fn frame_len(payload: &[u8]) -> u32 {\n    // lint: allow(narrowing-cast) — caller caps payloads at MAX_FRAME_LEN < 4 GiB.\n    payload.len() as u32\n}\n",
        )],
        good_design: None,
    },
    CorpusCase {
        name: "per-calling-convention twin of a query operation",
        rule: "variant-suffix",
        bad: &[(
            "crates/query/src/rank.rs",
            "pub fn is_member(snap: Snapshot<'_>) -> bool {\n    true\n}\npub fn is_member_masked(snap: Snapshot<'_>, dom: &Mask) -> bool {\n    true\n}\n",
        )],
        bad_design: None,
        good: &[(
            "crates/query/src/rank.rs",
            "pub fn is_member(snap: Snapshot<'_>) -> bool {\n    probe_masked(snap)\n}\nfn probe_masked(snap: Snapshot<'_>) -> bool {\n    true\n}\n",
        )],
        good_design: None,
    },
    CorpusCase {
        name: "calling-convention twin of an engine submit method",
        rule: "variant-suffix",
        bad: &[(
            "crates/engine/src/engine.rs",
            "impl Engine {\n    pub fn submit(&self, item: BatchSubmission) {}\n    pub fn submit_trace(&self, item: BatchSubmission, trace_id: u64) {}\n}\n",
        )],
        bad_design: None,
        good: &[(
            "crates/engine/src/engine.rs",
            "impl Engine {\n    pub fn submit(&self, item: BatchSubmission) {}\n}\n",
        )],
        good_design: None,
    },
    CorpusCase {
        name: "cross-file drift: error coverage and doc table",
        rule: "drift",
        bad: &[
            (
                "crates/engine/src/error.rs",
                "pub enum EngineError {\n    PhantomFailure,\n}\n",
            ),
            (
                "crates/server/src/wire.rs",
                "pub const ENGINE_ERROR_VARIANTS: [&str; 1] = [\"SomethingElse\"];\n",
            ),
            (
                "crates/engine/src/request.rs",
                "pub const REQUEST_KIND_TABLE: [(RequestKind, &str, u8); 2] = [\n    (RequestKind::TopK, \"topk\", 1),\n];\n",
            ),
        ],
        bad_design: Some("# design\nno table here\n"),
        good: &[
            (
                "crates/engine/src/error.rs",
                "pub enum EngineError {\n    PhantomFailure,\n}\n",
            ),
            (
                "crates/server/src/wire.rs",
                "pub const ENGINE_ERROR_VARIANTS: [&str; 1] = [\"PhantomFailure\"];\n",
            ),
            (
                "crates/engine/src/request.rs",
                "pub const REQUEST_KIND_TABLE: [(RequestKind, &str, u8); 1] = [\n    (RequestKind::TopK, \"topk\", 1),\n];\n",
            ),
            (
                "tests/errors.rs",
                "fn covers() { let _ = EngineError::PhantomFailure; }\n",
            ),
        ],
        good_design: Some(
            "# design\n<!-- lint:wire-tag-table -->\n| kind | name | tag |\n|------|------|-----|\n| TopK | topk | 1 |\n<!-- /lint:wire-tag-table -->\n",
        ),
    },
    CorpusCase {
        name: "retired wire tag missing from the reserved line",
        rule: "drift",
        bad: &[(
            "crates/engine/src/request.rs",
            "pub const REQUEST_KIND_TABLE: [(RequestKind, &str, u8); 2] = [\n    (RequestKind::TopK, \"topk\", 1),\n    (RequestKind::Stats, \"stats\", 3),\n];\n",
        )],
        bad_design: Some(
            "# design\n<!-- lint:wire-tag-table -->\n| kind | name | tag |\n|------|------|-----|\n| TopK | topk | 1 |\n| Stats | stats | 3 |\n<!-- /lint:wire-tag-table -->\n",
        ),
        good: &[(
            "crates/engine/src/request.rs",
            "pub const REQUEST_KIND_TABLE: [(RequestKind, &str, u8); 2] = [\n    (RequestKind::TopK, \"topk\", 1),\n    (RequestKind::Stats, \"stats\", 3),\n];\n",
        )],
        good_design: Some(
            "# design\n<!-- lint:wire-tag-table -->\n| kind | name | tag |\n|------|------|-----|\n| TopK | topk | 1 |\n| Stats | stats | 3 |\n\nreserved: 2 (requests)\n<!-- /lint:wire-tag-table -->\n",
        ),
    },
    CorpusCase {
        name: "waiver without justification is blanket",
        rule: "blanket-waiver",
        bad: &[(
            "crates/server/src/server.rs",
            "fn head(queue: &[u8]) -> u8 {\n    // lint: allow(no-panic)\n    queue.first().copied().unwrap()\n}\n",
        )],
        bad_design: None,
        good: &[(
            "crates/server/src/server.rs",
            "fn head(queue: &[u8]) -> u8 {\n    // lint: allow(no-panic) — callers hold a non-empty queue by protocol.\n    queue.first().copied().unwrap()\n}\n",
        )],
        good_design: None,
    },
    CorpusCase {
        name: "waiver matching nothing is stale",
        rule: "unused-waiver",
        bad: &[(
            "crates/demo/src/lib.rs",
            "fn fine() -> u8 {\n    // lint: allow(no-panic) — this code no longer unwraps.\n    0\n}\n",
        )],
        bad_design: None,
        good: &[("crates/demo/src/lib.rs", "fn fine() -> u8 {\n    0\n}\n")],
        good_design: None,
    },
    CorpusCase {
        name: "waiver naming an unknown rule",
        rule: "unknown-rule",
        bad: &[(
            "crates/demo/src/lib.rs",
            "fn fine() -> u8 {\n    // lint: allow(no-painc) — typo'd rule id.\n    0\n}\n",
        )],
        bad_design: None,
        good: &[("crates/demo/src/lib.rs", "fn fine() -> u8 {\n    0\n}\n")],
        good_design: None,
    },
];

/// Lints an in-memory workspace (used by the self-test and unit tests).
pub fn lint_sources(sources: &[(&str, &str)], design_md: Option<&str>) -> Vec<Violation> {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, src)| SourceFile {
            path: (*path).to_string(),
            lexed: lex(src),
        })
        .collect();
    let mut waivers = Vec::new();
    let mut violations = Vec::new();
    for f in &files {
        waivers.extend(collect_waivers(f));
        check_file(f, &mut violations);
    }
    crate::drift::check_drift(
        &files,
        &DriftDocs {
            design_md: design_md.map(str::to_string),
        },
        &mut violations,
    );
    let (violations, _) = apply_waivers(&files, waivers, violations);
    violations
}

/// Runs one corpus case; returns a failure description, or `None`.
pub fn run_case(case: &CorpusCase) -> Option<String> {
    let bad = lint_sources(case.bad, case.bad_design);
    if !bad.iter().any(|v| v.rule == case.rule) {
        return Some(format!(
            "[{}] bad twin did not trip `{}` (got: {:?})",
            case.name,
            case.rule,
            bad.iter().map(|v| v.rule).collect::<Vec<_>>()
        ));
    }
    let good = lint_sources(case.good, case.good_design);
    if !good.is_empty() {
        return Some(format!(
            "[{}] good twin is not clean: {:?}",
            case.name,
            good.iter()
                .map(|v| format!("{}:{} {}", v.file, v.line, v.rule))
                .collect::<Vec<_>>()
        ));
    }
    None
}

/// Runs the whole corpus; returns every failure.
pub fn run_all() -> Vec<String> {
    CORPUS.iter().filter_map(run_case).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_trips_and_every_good_twin_is_clean() {
        let failures = run_all();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn corpus_covers_every_rule() {
        for rule in crate::rules::RULES {
            assert!(
                CORPUS.iter().any(|c| c.rule == *rule),
                "no corpus case trips rule `{rule}`"
            );
        }
    }
}
