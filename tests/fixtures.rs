//! The lint configuration as a fixture. Each static contract of the
//! workspace (DESIGN.md §7) that clippy enforces lives in a few lines of
//! config: a ban in a protocol crate's `clippy.toml`, an entry of the root
//! manifest's `[workspace.lints]`, or a module-level `deny`. Deleting such
//! a line would weaken the gate without failing anything, so each test
//! here pins the lines behind one contract.

use std::fs;
use std::path::Path;

/// The four library crates the determinism bans and workspace lints cover.
const PROTOCOL_CRATES: [&str; 4] =
    ["crates/congest", "crates/core", "crates/graphs", "crates/baselines"];

/// The CI step that turns clippy's warn-level lints into errors.
const CLIPPY_GATE: &str = "cargo clippy --workspace --all-targets --locked -- -D warnings";

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `path` values listed in the `clippy.toml` array `key`, comment lines
/// skipped.
fn config_paths(toml: &str, key: &str) -> Vec<String> {
    let live: String = toml
        .lines()
        .filter(|line| !line.trim_start().starts_with('#'))
        .map(|line| format!("\n{}", line.trim()))
        .collect();
    let Some((_, array)) = live.split_once(&format!("\n{key} = [")) else {
        return Vec::new();
    };
    let array = array.split_once(']').map_or(array, |(body, _)| body);
    array
        .split("path = \"")
        .skip(1)
        .filter_map(|entry| entry.split_once('"'))
        .map(|(path, _)| path.to_owned())
        .collect()
}

/// Asserts that the TOML table `[table]` of the file `rel` holds the line
/// `entry`.
fn assert_entry(rel: &str, table: &str, entry: &str) {
    let header = format!("[{table}]");
    let toml = read(rel);
    let body = toml.lines().map(str::trim).skip_while(|line| *line != header).skip(1);
    let found = body.take_while(|line| !line.starts_with('[')).any(|line| line == entry);
    assert!(found, "{rel}: `[{table}]` lost `{entry}`");
}

/// The lints that inner `#![level(...)]` attributes of `src` name, comment
/// lines skipped.
fn inner_lints(src: &str, level: &str) -> Vec<String> {
    let code: Vec<&str> = src.lines().filter(|line| !line.trim_start().starts_with("//")).collect();
    code.join(" ")
        .split(&format!("#![{level}("))
        .skip(1)
        .filter_map(|rest| rest.split_once(")]"))
        .flat_map(|(list, _)| list.split(','))
        .map(|lint| lint.trim().to_owned())
        .filter(|lint| !lint.is_empty())
        .collect()
}

/// Asserts every protocol crate's `clippy.toml` lists each of `paths` under
/// `key`, and that CI fails on the warnings those bans raise.
fn assert_banned(key: &str, paths: &[&str]) {
    for krate in PROTOCOL_CRATES {
        let got = config_paths(&read(&format!("{krate}/clippy.toml")), key);
        for path in paths {
            assert!(
                got.iter().any(|g| g == path),
                "{krate}/clippy.toml: `{key}` no longer lists `{path}` (lists {got:?})"
            );
        }
    }
    assert!(read(".github/workflows/ci.yml").contains(CLIPPY_GATE), "CI lost `{CLIPPY_GATE}`");
}

#[test]
fn hash_order() {
    assert_banned("disallowed-types", &["std::collections::HashMap", "std::collections::HashSet"]);
}

#[test]
fn time_source() {
    assert_banned("disallowed-types", &["std::time::Instant", "std::time::SystemTime"]);
    assert_banned("disallowed-methods", &["std::time::Instant::now", "std::time::SystemTime::now"]);
}

#[test]
fn entropy_source() {
    assert_banned("disallowed-types", &["std::collections::hash_map::RandomState"]);
    // The vendored `rand` is the only RNG crate and offers seeded
    // generators alone, so no ban names its constructors. One that reads
    // OS entropy would need a ban of its own.
    let rand = read("vendor/rand/src/lib.rs");
    for name in ["thread_rng", "OsRng", "from_entropy", "getrandom"] {
        assert!(!rand.contains(name), "vendor/rand gained `{name}`; ban it in each clippy.toml");
    }
}

#[test]
fn panic_hygiene() {
    let denied = inner_lints(&read("crates/congest/src/network.rs"), "deny");
    for lint in [
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::unreachable",
        "clippy::todo",
        "clippy::unimplemented",
    ] {
        assert!(denied.iter().any(|d| d == lint), "network.rs no longer denies `{lint}`");
    }
}

#[test]
fn unused_and_malformed_allow() {
    for lint in ["allow_attributes", "allow_attributes_without_reason"] {
        assert_entry("Cargo.toml", "workspace.lints.clippy", &format!("{lint} = \"deny\""));
    }
    assert_entry("Cargo.toml", "workspace.lints.rust", "unsafe_code = \"forbid\"");
    // The table binds every target of each package that opts in.
    for krate in PROTOCOL_CRATES {
        assert_entry(&format!("{krate}/Cargo.toml"), "lints", "workspace = true");
    }
    // An `#[expect]` that suppresses nothing is only a warning.
    assert!(read(".github/workflows/ci.yml").contains(CLIPPY_GATE), "CI lost `{CLIPPY_GATE}`");
}
