//! Architectural invariant: the protocol automaton lives in
//! `penelope-core` and nowhere else. The substrates (simulator, threaded
//! runtime, UDP daemon) and the CLI are *drivers* — they pump
//! `EngineInput`s and execute `EngineOutput`s, but they never branch on
//! protocol state themselves. This test denies the four identifiers that
//! historically marked inlined protocol logic (escrow bookkeeping,
//! suspicion-gossip merging, seq-epoch staleness, grant dedup) outside
//! the core crate, so the triplication the engine collapsed cannot creep
//! back in one convenient shortcut at a time.
//!
//! The same goes for the output loop. `NodeEngine::step` runs it for
//! every driver: it feeds grant outcomes back and emits the transport
//! events by one rule. So no crate but `penelope-core` may name the
//! grant-feedback seam (`SendGrant`, `GrantOutcome`), and no driver may
//! build a transport event itself — except the SLURM routes, which have
//! no engine.

use std::fs;
use std::path::{Path, PathBuf};

/// Identifiers whose presence outside `penelope-core` means a driver has
/// re-grown protocol logic.
const DENIED: &[&str] = &[
    "GrantEscrow",
    "observe_digest",
    "is_stale_grant",
    "applied_seqs",
];

/// Source trees that must stay protocol-free.
const DRIVER_TREES: &[&str] = &[
    "crates/sim/src",
    "crates/runtime/src",
    "crates/daemon/src",
    "src",
    "examples",
];

/// The grant-feedback seam, private to the engine's output loop.
const GRANT_FEEDBACK: &[&str] = &["SendGrant", "GrantOutcome"];

/// Transport events the engine emits for every Penelope send.
const TRANSPORT_EVENTS: &[&str] = &[
    "EventKind::MsgSent",
    "EventKind::MsgDropped",
    "EventKind::AckDropped",
    "EventKind::SendFailed",
];

/// Engine-less routes that still emit their own transport events:
/// `(file, function)`.
const ENGINELESS_ROUTES: &[(&str, &str)] = &[
    ("crates/sim/src/cluster.rs", "route_slurm"),
    ("crates/runtime/src/cluster.rs", "run_slurm"),
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("driver source tree exists") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whole-identifier search: `GrantEscrow` must not match `GrantEscrowed`
/// (the trace event drivers legitimately mention in comments and tests).
fn contains_identifier(haystack: &str, ident: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(ident) {
        let start = from + pos;
        let end = start + ident.len();
        let before_ok = haystack[..start]
            .chars()
            .next_back()
            .is_none_or(|c| !is_ident_char(c));
        let after_ok = haystack[end..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

#[test]
fn protocol_state_machinery_stays_inside_penelope_core() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for tree in DRIVER_TREES {
        rust_sources(&root.join(tree), &mut files);
    }
    assert!(
        files.len() >= 5,
        "suspiciously few driver sources found ({}); tree layout changed?",
        files.len()
    );

    let mut violations = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        for ident in DENIED {
            for (lineno, line) in text.lines().enumerate() {
                if contains_identifier(line, ident) {
                    violations.push(format!(
                        "{}:{}: `{}`",
                        path.strip_prefix(root).unwrap_or(path).display(),
                        lineno + 1,
                        ident
                    ));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "protocol logic leaked out of penelope-core — route it through \
         NodeEngine::handle instead:\n  {}",
        violations.join("\n  ")
    );
}

/// Every Rust source outside `penelope-core`: each other crate's `src`,
/// the facade's `src` and `examples`.
fn non_core_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates dir exists") {
        let krate = entry.expect("readable dir entry").path();
        let src = krate.join("src");
        if krate.file_name().is_some_and(|n| n != "core") && src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    rust_sources(&root.join("src"), &mut files);
    rust_sources(&root.join("examples"), &mut files);
    files
}

/// The 0-based line range of function `name` in `text`: from its `fn`
/// line to the first closing brace at the same indentation.
fn fn_lines(text: &str, name: &str) -> Option<std::ops::Range<usize>> {
    let lines: Vec<&str> = text.lines().collect();
    let start = lines
        .iter()
        .position(|l| l.contains(&format!("fn {name}(")))?;
    let indent = lines[start].len() - lines[start].trim_start().len();
    let close = format!("{}}}", " ".repeat(indent));
    let end = (start..lines.len()).find(|&i| lines[i] == close)?;
    Some(start..end + 1)
}

#[test]
fn only_the_engine_feeds_grants_back_and_emits_transport_events() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut violations = Vec::new();
    let files = non_core_sources(root);
    assert!(
        files.len() >= 20,
        "suspiciously few non-core sources found ({}); tree layout changed?",
        files.len()
    );
    for path in &files {
        let text = fs::read_to_string(path).expect("readable source file");
        let rel = path.strip_prefix(root).unwrap_or(path);
        for (lineno, line) in text.lines().enumerate() {
            for ident in GRANT_FEEDBACK {
                if contains_identifier(line, ident) {
                    violations.push(format!("{}:{}: `{ident}`", rel.display(), lineno + 1));
                }
            }
        }
    }

    let mut drivers = Vec::new();
    for tree in DRIVER_TREES {
        rust_sources(&root.join(tree), &mut drivers);
    }
    for path in &drivers {
        let text = fs::read_to_string(path).expect("readable source file");
        let rel = path.strip_prefix(root).unwrap_or(path);
        let allowed: Vec<_> = ENGINELESS_ROUTES
            .iter()
            .filter(|(file, _)| rel == Path::new(file))
            .map(|(_, name)| {
                fn_lines(&text, name)
                    .unwrap_or_else(|| panic!("{}: no fn {name}; update the list", rel.display()))
            })
            .collect();
        for (lineno, line) in text.lines().enumerate() {
            if allowed.iter().any(|r| r.contains(&lineno)) {
                continue;
            }
            for event in TRANSPORT_EVENTS {
                if contains_identifier(line, event) {
                    violations.push(format!("{}:{}: `{event}`", rel.display(), lineno + 1));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "only NodeEngine::step may feed grant outcomes back and emit transport \
         events — answer Effects::send with a Delivery instead:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn a_function_span_ends_at_its_own_closing_brace() {
    let text = "impl X {\n    fn a() {\n        if x {\n        }\n    }\n    fn b() {}\n}\n";
    assert_eq!(fn_lines(text, "a"), Some(1..5));
    assert_eq!(fn_lines(text, "c"), None);
}

#[test]
fn identifier_matching_respects_word_boundaries() {
    assert!(contains_identifier(
        "let e = GrantEscrow::new();",
        "GrantEscrow"
    ));
    assert!(!contains_identifier(
        "EventKind::GrantEscrowed { .. }",
        "GrantEscrow"
    ));
    assert!(contains_identifier(
        "x.observe_digest(now)",
        "observe_digest"
    ));
    assert!(!contains_identifier(
        "pre_observe_digest_hook()",
        "observe_digest"
    ));
    assert!(contains_identifier("applied_seqs", "applied_seqs"));
}
