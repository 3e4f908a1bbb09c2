//! Negative-fixture coverage: each seeded tree under `tests/fixtures/`
//! must produce exactly the expected findings — rule IDs *and* file:line
//! spans — and the clean tree must produce none.

use std::path::PathBuf;

use dmst_analysis::{analyze, collect_workspace, Finding};

fn run(case: &str) -> Vec<Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(case);
    let files = collect_workspace(&root).expect("fixture tree readable");
    assert!(!files.is_empty(), "fixture `{case}` has no sources");
    analyze(&files)
}

/// Asserts the findings of `case` are exactly `want` as `(rule, path, line)`
/// triples, in the engine's sorted order.
fn expect(case: &str, want: &[(&str, &str, u32)]) {
    let got = run(case);
    let got_spans: Vec<(&str, &str, u32)> =
        got.iter().map(|f| (f.rule, f.path.as_str(), f.line)).collect();
    assert_eq!(got_spans, want, "case `{case}`: {got:#?}");
}

#[test]
fn clean_tree_reports_zero_findings() {
    expect("clean", &[]);
}

#[test]
fn hash_order() {
    expect(
        "hash_order",
        &[
            ("hash-order", "crates/core/src/state.rs", 3),
            ("hash-order", "crates/core/src/state.rs", 6),
        ],
    );
}

#[test]
fn time_source() {
    expect(
        "time_source",
        &[
            ("time-source", "crates/core/src/timer.rs", 3),
            ("time-source", "crates/core/src/timer.rs", 4),
        ],
    );
}

#[test]
fn entropy_source() {
    expect("entropy_source", &[("entropy-source", "crates/core/src/seed.rs", 4)]);
}

#[test]
fn encode_missing_variant_and_wildcard() {
    expect(
        "encode_missing",
        &[
            ("encode-exhaustive", "crates/core/src/msg.rs", 9),
            ("encode-exhaustive", "crates/core/src/msg.rs", 9),
            ("encode-exhaustive", "crates/core/src/msg.rs", 24),
        ],
    );
    let got = run("encode_missing");
    assert!(got.iter().any(|f| f.msg.contains("Msg::Probe never appears in Message::encode()")));
    assert!(got.iter().any(|f| f.msg.contains("Msg::Probe never appears in Message::decode()")));
    assert!(got.iter().any(|f| f.msg.contains("wildcard")), "{got:#?}");
}

#[test]
fn tag_guard_missing_and_stale() {
    expect(
        "tag_guard",
        &[("tag-guard", "crates/core/src/msg.rs", 12), ("tag-guard", "crates/core/src/node.rs", 5)],
    );
    let got = run("tag_guard");
    assert!(got.iter().any(|f| f.msg.contains("\"b:burst\"")), "{got:#?}");
    assert!(got.iter().any(|f| f.msg.contains("never sends")), "{got:#?}");
}

#[test]
fn panic_hygiene() {
    expect(
        "panic_hygiene",
        &[
            ("panic-hygiene", "crates/congest/src/network.rs", 4),
            ("panic-hygiene", "crates/congest/src/network.rs", 5),
        ],
    );
}

#[test]
fn unused_and_malformed_allow() {
    expect(
        "unused_allow",
        &[
            ("unused-allow", "crates/core/src/tidy.rs", 4),
            ("malformed-allow", "crates/core/src/tidy.rs", 9),
        ],
    );
}
