//! `dmst-analysis`: a protocol-contract static analyzer for this
//! workspace.
//!
//! The simulator's two load-bearing invariants — bit-identical
//! determinism across executors/shard counts, and a self-delimiting wire
//! encoding for every message on the unframed rings — are enforced
//! dynamically by proptests and golden pins, which only fire *after* a
//! drifting change lands. This crate is the compiler-adjacent gate: a lightweight lexer
//! (no `syn`; the build is offline and zero-dependency) plus a small rule
//! engine that walks every workspace `.rs` file and fails the build on
//! contract violations.
//!
//! It runs three ways, all from the same engine:
//! - `cargo run -p dmst-analysis -- --check` (CLI, used by CI),
//! - as a tier-1 `#[test]` (`tests/workspace_clean.rs`),
//! - against seeded fixture trees (`tests/fixtures.rs`).
//!
//! Suppressions are inline comments audited by the engine itself:
//!
//! ```text
//! // dmst-analysis:allow(<rule>) -- <reason>
//! ```
//!
//! A pragma applies to its own line and the next line. Unused or
//! malformed pragmas are errors (`unused-allow` / `malformed-allow`), so
//! the allow inventory cannot rot. See `DESIGN.md` § "Static contracts"
//! for the rule catalog and the division of labor with `clippy.toml`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use lexer::{lex, test_line_ranges, test_region_mask, Pragma, Tok};
use rules::{check_file, check_tag_guards, classify, is_known_rule, Scope};

/// One source file handed to [`analyze`]: a workspace-relative,
/// `/`-separated path plus its text.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Path relative to the analysis root, always `/`-separated.
    pub path: String,
    /// Full file contents.
    pub text: String,
}

/// One rule violation (or meta-rule violation) with its span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id (see [`rules::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }
}

/// A lexed + classified file, ready for the rules.
pub struct ParsedFile {
    /// Workspace-relative path.
    pub path: String,
    /// How the rules treat this file (see [`Scope`]).
    pub scope: Scope,
    /// Token stream (comments removed).
    pub tokens: Vec<Tok>,
    /// Parallel mask: `true` for tokens inside `#[cfg(test)]` modules.
    pub test_mask: Vec<bool>,
    /// Well-formed allow pragmas, excluding ones inside test modules.
    pub pragmas: Vec<Pragma>,
    /// Pragma-shaped comments that failed to parse.
    pub malformed: Vec<lexer::MalformedPragma>,
}

/// Lexes and classifies one file.
pub fn parse_file(path: String, text: &str) -> ParsedFile {
    let lexed = lex(text);
    let test_mask = test_region_mask(&lexed.tokens);
    let test_ranges = test_line_ranges(&lexed.tokens, &test_mask);
    let in_test = |line: u32| test_ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&line));
    let pragmas = lexed.pragmas.into_iter().filter(|p| !in_test(p.line)).collect();
    let malformed = lexed.malformed.into_iter().filter(|m| !in_test(m.line)).collect();
    ParsedFile { scope: classify(&path), path, tokens: lexed.tokens, test_mask, pragmas, malformed }
}

/// Runs every rule over `files` and returns the surviving findings,
/// sorted by path, line, and rule. Pragma suppression and the meta rules
/// (`unused-allow`, `malformed-allow`) are applied here.
pub fn analyze(files: &[SourceFile]) -> Vec<Finding> {
    let parsed: Vec<ParsedFile> =
        files.iter().map(|f| parse_file(f.path.clone(), &f.text)).collect();

    let mut raw: Vec<Finding> = Vec::new();
    for f in &parsed {
        check_file(f, &mut raw);
    }
    check_tag_guards(&parsed, &mut raw);

    let mut out: Vec<Finding> = Vec::new();
    for f in &parsed {
        let mut used = vec![false; f.pragmas.len()];
        for finding in raw.iter().filter(|x| x.path == f.path) {
            let suppressed = f.pragmas.iter().enumerate().any(|(pi, p)| {
                let hit = p.rule == finding.rule
                    && (finding.line == p.line || finding.line == p.line + 1);
                if hit {
                    used[pi] = true;
                }
                hit
            });
            if !suppressed {
                out.push(finding.clone());
            }
        }
        // Meta rules: every pragma must be well-formed, name a real rule,
        // and suppress at least one finding. Out-of-scope files (benches,
        // the analyzer itself) can mention the pragma grammar freely.
        if f.scope == Scope::Exempt {
            continue;
        }
        for m in &f.malformed {
            out.push(Finding {
                rule: "malformed-allow",
                path: f.path.clone(),
                line: m.line,
                msg: m.what.clone(),
            });
        }
        for (pi, p) in f.pragmas.iter().enumerate() {
            if !is_known_rule(&p.rule) {
                out.push(Finding {
                    rule: "malformed-allow",
                    path: f.path.clone(),
                    line: p.line,
                    msg: format!("allow names unknown rule `{}`", p.rule),
                });
            } else if !used[pi] {
                out.push(Finding {
                    rule: "unused-allow",
                    path: f.path.clone(),
                    line: p.line,
                    msg: format!(
                        "allow({}) suppresses nothing; delete it or move it to the \
                         offending line",
                        p.rule
                    ),
                });
            }
        }
    }
    // Findings in files not present in `parsed` cannot happen (rules only
    // attribute findings to input paths), so the loop above is exhaustive.
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.msg.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.msg.as_str(),
        ))
    });
    out
}

/// Collects the workspace's analyzable sources under `root`: the umbrella
/// `src/` and every `crates/*/src/` tree. `vendor/`, benches, examples,
/// and integration tests are never collected — [`rules::classify`] would
/// exempt them anyway, but skipping keeps the walk cheap. Paths in the
/// result are root-relative and `/`-separated, sorted.
pub fn collect_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let top_src = root.join("src");
    if top_src.is_dir() {
        walk_rs(&top_src, root, &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut kids: Vec<_> =
            fs::read_dir(&crates)?.collect::<Result<Vec<_>, _>>()?.into_iter().collect();
        kids.sort_by_key(|e| e.file_name());
        for kid in kids {
            let src = kid.path().join("src");
            if src.is_dir() {
                walk_rs(&src, root, &mut out)?;
            }
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// Recursively gathers `.rs` files under `dir` into `out`, with paths
/// relative to `root`.
fn walk_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile { path: rel, text: fs::read_to_string(&path)? });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(path: &str, text: &str) -> Vec<SourceFile> {
        vec![SourceFile { path: path.to_string(), text: text.to_string() }]
    }

    #[test]
    fn pragma_suppresses_same_and_next_line() {
        let src = "// dmst-analysis:allow(hash-order) -- lookup only, never iterated\n\
                   use std::collections::HashMap;\n";
        assert!(analyze(&one("crates/core/src/x.rs", src)).is_empty());
        let trailing = "use std::collections::HashMap; \
                        // dmst-analysis:allow(hash-order) -- lookup only\n";
        assert!(analyze(&one("crates/core/src/x.rs", trailing)).is_empty());
    }

    #[test]
    fn unused_allow_is_an_error() {
        let src = "// dmst-analysis:allow(hash-order) -- stale\nfn f() {}\n";
        let got = analyze(&one("crates/core/src/x.rs", src));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "unused-allow");
        assert_eq!(got[0].line, 1);
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let src = "// dmst-analysis:allow(no-such-rule) -- whatever\n";
        let got = analyze(&one("crates/core/src/x.rs", src));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "malformed-allow");
    }

    #[test]
    fn meta_rules_are_not_suppressible() {
        // An allow(unused-allow) pragma is itself an unknown-rule pragma.
        let src = "// dmst-analysis:allow(unused-allow) -- nice try\n";
        let got = analyze(&one("crates/core/src/x.rs", src));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "malformed-allow");
    }

    #[test]
    fn pragma_does_not_reach_two_lines_down() {
        let src = "// dmst-analysis:allow(hash-order) -- too far away\n\
                   \n\
                   use std::collections::HashMap;\n";
        let got = analyze(&one("crates/core/src/x.rs", src));
        let rules: Vec<&str> = got.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"hash-order"), "{got:?}");
        assert!(rules.contains(&"unused-allow"), "{got:?}");
    }

    #[test]
    fn findings_are_sorted() {
        let files = vec![
            SourceFile {
                path: "crates/core/src/b.rs".into(),
                text: "use std::collections::HashSet;\nuse std::time::Instant;\n".into(),
            },
            SourceFile {
                path: "crates/core/src/a.rs".into(),
                text: "use std::collections::HashMap;\n".into(),
            },
        ];
        let got = analyze(&files);
        assert_eq!(got.len(), 3);
        assert!(got[0].path < got[1].path);
        assert!(got[1].line < got[2].line);
    }
}
