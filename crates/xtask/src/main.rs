//! Workspace automation harness — the standard `cargo xtask` pattern: a
//! plain workspace binary (aliased in `.cargo/config.toml`) so repo-wide
//! checks need nothing but the Rust toolchain.
//!
//! `cargo xtask lint` runs the source-level checks the compiler cannot:
//!
//! 1. **no-panic**: non-test library code contains no `.unwrap()` /
//!    `.expect(` / `panic!(` / `unreachable!(` / `todo!(` /
//!    `unimplemented!(` / `assert!(` / `assert_eq!(` / `assert_ne!(`
//!    (`debug_assert*` is compiled out of release builds and does not
//!    count) beyond the per-file budgets in
//!    `crates/xtask/lint-allowlist.txt` (audited survivors).  The budget is
//!    exact in both directions: a *new* panic site fails, and a *removed*
//!    one fails too until the allowlist is re-tightened — run
//!    `cargo xtask lint --write-allowlist` after an audit.
//! 2. **safety-comments**: every `unsafe` token in library code is
//!    preceded by a `// SAFETY:` comment (currently vacuous: the whole
//!    workspace is `#![forbid(unsafe_code)]`, which check 4 enforces).
//! 3. **executor-determinism**: no `SystemTime`, `thread_rng` or
//!    `rand::random` in the executor's kernels — results must be a pure
//!    function of the plan and the data, or the equivalence proptests and
//!    BENCH numbers stop being reproducible.
//! 4. **forbid-unsafe**: every first-party crate root carries
//!    `#![forbid(unsafe_code)]`.
//! 5. **physicalop-freshness**: every `PhysicalOp` variant appears in
//!    `PhysicalOp::try_map_children` *and* in the `ranksql-verify` physical
//!    walk, so a new operator cannot silently bypass rewrite plumbing or
//!    validation, and every `JoinAlgorithm` appears in the executor's join
//!    lowering.  (Inside each of those matches the compiler enforces
//!    exhaustiveness; this check enforces that the *sites themselves* name
//!    every variant rather than hiding behind a wildcard.)
//!
//! Comments, string literals and `#[cfg(test)] mod` bodies are stripped
//! before token scanning, so prose about `unwrap` or asserts inside unit
//! tests never trip the gate.
//!
//! `cargo xtask loc` prints the source lines of each crate under `crates/`,
//! in all and outside its `#[cfg(test)] mod`s (the blocks the lint strips);
//! it gates nothing.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates under `crates/` whose sources are *exempt* from the no-panic
/// budget: the bench harness asserts freely by design, and this harness is
/// a dev tool, not library code shipped in the engine.
const PANIC_EXEMPT_CRATES: &[&str] = &["bench", "xtask"];

const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
];

const DETERMINISM_TOKENS: &[&str] = &["SystemTime", "thread_rng", "rand::random"];

/// Directories under the determinism lint (query results must be a pure
/// function of plan and data) and, per directory, the files exempt from it.
/// The server's listener is the deliberate edge of the system: it owns the
/// single wall-clock reading (`STATS` start time) — nothing downstream of
/// it may read a clock, which is exactly what scanning the rest of
/// `crates/server/src` enforces.
const DETERMINISM_SCOPES: &[(&str, &[&str])] = &[
    ("crates/executor/src", &[]),
    ("crates/server/src", &["crates/server/src/listener.rs"]),
];

const ALLOWLIST: &str = "crates/xtask/lint-allowlist.txt";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = repo_root();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let write = args.iter().any(|a| a == "--write-allowlist");
            lint(&root, write)
        }
        Some("loc") => loc(&root),
        _ => {
            eprintln!("usage: cargo xtask lint [--write-allowlist] | cargo xtask loc");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: two levels up from this crate's manifest.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn lint(root: &Path, write_allowlist: bool) -> ExitCode {
    let mut errors: Vec<String> = Vec::new();

    let files = library_sources(root);
    let panic_counts = check_no_panic(root, &files, &mut errors, write_allowlist);
    check_safety_comments(&files, &mut errors);
    check_executor_determinism(root, &mut errors);
    check_forbid_unsafe(root, &mut errors);
    check_physicalop_freshness(root, &mut errors);

    if write_allowlist {
        let path = root.join(ALLOWLIST);
        match write_allowlist_file(&path, &panic_counts) {
            Ok(()) => println!("wrote {} ({} entries)", ALLOWLIST, panic_counts.len()),
            Err(e) => errors.push(format!("cannot write {ALLOWLIST}: {e}")),
        }
    }

    if errors.is_empty() {
        println!(
            "xtask lint: all checks passed ({} library files)",
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} error(s)", errors.len());
        for e in &errors {
            eprintln!("  error: {e}");
        }
        ExitCode::FAILURE
    }
}

/// Every first-party library source file: `src/` of the umbrella crate and
/// of each crate under `crates/` (vendored dependencies are not ours to
/// lint).  Files are returned with repo-relative paths.
fn library_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), root, &mut files);
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            collect_rs(&dir.join("src"), root, &mut files);
        }
    }
    files
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = fs::read_to_string(&path) {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, text));
            }
        }
    }
}

fn is_panic_exempt(rel: &str) -> bool {
    PANIC_EXEMPT_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/")))
}

/// Replaces comments and string/char literals with spaces (newlines kept,
/// so line numbers survive).  Handles nested `/* */`, raw strings up to
/// `r###"`, and escapes; this is a lint heuristic, not a full lexer.
fn strip_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = vec![b' '; b.len()];
    // Keep newlines for line numbering.
    for (i, &c) in b.iter().enumerate() {
        if c == b'\n' {
            out[i] = b'\n';
        }
    }
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                out[i] = b'"';
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'"' {
                        out[i] = b'"';
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' if matches!(b.get(i + 1), Some(b'"' | b'#'))
                && (i == 0 || !is_ident_byte(b[i - 1])) =>
            {
                // Raw string r"..." / r#"..."# / r##"..."##.
                let mut hashes = 0usize;
                let mut j = i + 1;
                while b.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if b.get(j) == Some(&b'"') {
                    j += 1;
                    'raw: while j < b.len() {
                        if b[j] == b'"' {
                            let mut k = j + 1;
                            let mut seen = 0usize;
                            while seen < hashes && b.get(k) == Some(&b'#') {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break 'raw;
                            }
                        }
                        j += 1;
                    }
                    i = j;
                } else {
                    out[i] = b[i];
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal or lifetime; copy a short window verbatim —
                // a lifetime like 'a has no closing quote.
                out[i] = b'\'';
                if b.get(i + 1) == Some(&b'\\') && b.get(i + 3) == Some(&b'\'') {
                    i += 4;
                } else if b.get(i + 2) == Some(&b'\'') {
                    i += 3;
                } else {
                    i += 1;
                }
            }
            c => {
                out[i] = c;
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_default()
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// The `#[cfg(test)] [pub[(crate)]] mod … { … }` blocks of
/// already comment-stripped source: each as the byte range from its
/// attribute through its closing brace.
fn test_mods(stripped: &str) -> Vec<Range<usize>> {
    let b = stripped.as_bytes();
    let mut mods = Vec::new();
    let mut search = 0usize;
    while let Some(pos) = stripped[search..].find("#[cfg(test)]") {
        let attr = search + pos;
        // The next item must be a `mod` (possibly after more attributes).
        let mut i = attr + "#[cfg(test)]".len();
        while i < b.len() && (b[i].is_ascii_whitespace() || b[i] == b'#') {
            if b[i] == b'#' {
                // Skip a further attribute to its closing bracket.
                while i < b.len() && b[i] != b']' {
                    i += 1;
                }
            }
            i += 1;
        }
        let item = &stripped[i..];
        let item = ["pub(crate)", "pub"]
            .iter()
            .find_map(|vis| item.strip_prefix(vis))
            .map_or(item, str::trim_start);
        let i = b.len() - item.len();
        if item.starts_with("mod") {
            if let Some(open_rel) = item.find('{') {
                let open = i + open_rel;
                let mut depth = 0usize;
                let mut j = open;
                while j < b.len() {
                    match b[j] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let end = (j + 1).min(b.len());
                mods.push(attr..end);
                search = end;
                continue;
            }
        }
        search = attr + 1;
    }
    mods
}

/// Blanks the `#[cfg(test)] [pub[(crate)]] mod … { … }` blocks (unit tests
/// may panic freely) in already comment-stripped source, newlines kept.
fn blank_test_mods(stripped: &str) -> String {
    let mut out = stripped.as_bytes().to_vec();
    for span in test_mods(stripped) {
        for cell in &mut out[span] {
            if *cell != b'\n' {
                *cell = b' ';
            }
        }
    }
    String::from_utf8(out).unwrap_or_default()
}

/// The lines of `src` outside its `#[cfg(test)] mod`s, each counted from
/// its attribute's line through its closing brace's.
fn non_test_lines(src: &str) -> usize {
    let stripped = strip_comments_and_strings(src);
    let test: usize = (test_mods(&stripped).into_iter())
        .map(|span| stripped[span].matches('\n').count() + 1)
        .sum();
    src.lines().count().saturating_sub(test)
}

/// `cargo xtask loc`: the source lines of each crate under `crates/` (its
/// `src/`; the umbrella crate only re-exports them), in all and outside
/// `#[cfg(test)] mod`s, and their sums.  It prints and checks nothing.
fn loc(root: &Path) -> ExitCode {
    let mut lines: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for (rel, text) in library_sources(root) {
        let Some(krate) = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
        else {
            continue;
        };
        let counts = lines.entry(krate.to_owned()).or_default();
        *counts = (
            counts.0 + text.lines().count(),
            counts.1 + non_test_lines(&text),
        );
    }
    println!("{:<12} {:>8} {:>8}", "crate", "lines", "non-test");
    for (krate, (total, non_test)) in &lines {
        println!("{krate:<12} {total:>8} {non_test:>8}");
    }
    let (total, non_test) = lines.values().fold((0, 0), |(t, n), c| (t + c.0, n + c.1));
    println!("{:<12} {total:>8} {non_test:>8}", "all");
    ExitCode::SUCCESS
}

/// Occurrences of `tokens` in `text`.  A token that starts like an
/// identifier only counts where it does not continue one, so `assert!(`
/// does not match inside `debug_assert!(`.
fn count_tokens(text: &str, tokens: &[&str]) -> usize {
    let b = text.as_bytes();
    tokens
        .iter()
        .map(|t| {
            let word = t.bytes().next().is_some_and(is_ident_byte);
            text.match_indices(t)
                .filter(|&(i, _)| !word || i == 0 || !is_ident_byte(b[i - 1]))
                .count()
        })
        .sum()
}

/// Check 1: the no-panic budget.  Returns the actual per-file counts so
/// `--write-allowlist` can regenerate the file.
fn check_no_panic(
    root: &Path,
    files: &[(String, String)],
    errors: &mut Vec<String>,
    write_mode: bool,
) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for (rel, text) in files {
        if is_panic_exempt(rel) {
            continue;
        }
        let scannable = blank_test_mods(&strip_comments_and_strings(text));
        let n = count_tokens(&scannable, PANIC_TOKENS);
        if n > 0 {
            counts.insert(rel.clone(), n);
        }
    }
    if write_mode {
        return counts; // budgets are being regenerated, not enforced
    }
    let allowed = read_allowlist(&root.join(ALLOWLIST), errors);
    for (rel, &n) in &counts {
        match allowed.get(rel) {
            None => errors.push(format!(
                "{rel}: {n} panic site(s) (unwrap/expect/panic!/…) in non-test library code; \
                 audit them and run `cargo xtask lint --write-allowlist`"
            )),
            Some(&budget) if n > budget => errors.push(format!(
                "{rel}: {n} panic site(s), budget is {budget}; new unwrap/expect/panic! in \
                 non-test library code — handle the error or audit + re-run \
                 `cargo xtask lint --write-allowlist`"
            )),
            Some(&budget) if n < budget => errors.push(format!(
                "{rel}: {n} panic site(s), budget is {budget}; allowlist is stale — run \
                 `cargo xtask lint --write-allowlist` to tighten it"
            )),
            Some(_) => {}
        }
    }
    for rel in allowed.keys() {
        if !counts.contains_key(rel) {
            errors.push(format!(
                "{rel}: allowlisted but now has zero panic sites (or no longer exists) — run \
                 `cargo xtask lint --write-allowlist` to tighten the allowlist"
            ));
        }
    }
    counts
}

fn read_allowlist(path: &Path, errors: &mut Vec<String>) -> BTreeMap<String, usize> {
    let mut map = BTreeMap::new();
    let Ok(text) = fs::read_to_string(path) else {
        errors.push(format!(
            "missing {ALLOWLIST}; run `cargo xtask lint --write-allowlist` to create it"
        ));
        return map;
    };
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next().and_then(|n| n.parse().ok())) {
            (Some(file), Some(n)) => {
                map.insert(file.to_owned(), n);
            }
            _ => errors.push(format!(
                "{ALLOWLIST}:{}: malformed line `{line}`",
                lineno + 1
            )),
        }
    }
    map
}

fn write_allowlist_file(path: &Path, counts: &BTreeMap<String, usize>) -> std::io::Result<()> {
    let mut out = String::from(
        "# Audited panic-site budgets for non-test library code, enforced by\n\
         # `cargo xtask lint` in both directions (a new site fails, and so does a\n\
         # removed one until this file is re-tightened).  Regenerate after an audit\n\
         # with `cargo xtask lint --write-allowlist`.\n\
         #\n\
         # <repo-relative file> <count of .unwrap()/.expect(/panic!(/unreachable!(/todo!(/unimplemented!(/assert!(/assert_eq!(/assert_ne!(>\n",
    );
    for (rel, n) in counts {
        let _ = writeln!(out, "{rel} {n}");
    }
    fs::write(path, out)
}

/// Check 2: every `unsafe` token is preceded by a `// SAFETY:` comment on
/// one of the two preceding non-empty lines.
fn check_safety_comments(files: &[(String, String)], errors: &mut Vec<String>) {
    for (rel, text) in files {
        let stripped = strip_comments_and_strings(text);
        let original: Vec<&str> = text.lines().collect();
        for (lineno, line) in stripped.lines().enumerate() {
            let mut start = 0usize;
            while let Some(pos) = line[start..].find("unsafe") {
                let at = start + pos;
                let before_ok = at == 0 || !is_ident_byte(line.as_bytes()[at - 1]);
                let after = at + "unsafe".len();
                let after_ok = after >= line.len() || !is_ident_byte(line.as_bytes()[after]);
                if before_ok && after_ok {
                    let covered = original[..lineno]
                        .iter()
                        .rev()
                        .take_while(|l| !l.trim().is_empty())
                        .take(3)
                        .any(|l| l.trim_start().starts_with("// SAFETY:"))
                        || original
                            .get(lineno)
                            .is_some_and(|l| l.contains("// SAFETY:"));
                    if !covered {
                        errors.push(format!(
                            "{rel}:{}: `unsafe` without a preceding `// SAFETY:` comment",
                            lineno + 1
                        ));
                    }
                }
                start = after;
            }
        }
    }
}

/// Check 3: executor kernels and the server's request path must be
/// deterministic — no wall clocks, no ambient randomness.  Per-scope
/// exemptions cover the one file that *is* the non-deterministic edge
/// (the server listener's `STATS` start timestamp).
fn check_executor_determinism(root: &Path, errors: &mut Vec<String>) {
    for (dir, exempt) in DETERMINISM_SCOPES {
        let mut files = Vec::new();
        collect_rs(&root.join(dir), root, &mut files);
        for (rel, text) in &files {
            if exempt.contains(&rel.as_str()) {
                continue;
            }
            let scannable = blank_test_mods(&strip_comments_and_strings(text));
            for token in DETERMINISM_TOKENS {
                if scannable.contains(token) {
                    errors.push(format!(
                        "{rel}: `{token}` outside the listener edge — execution must be a \
                         pure function of plan and data"
                    ));
                }
            }
        }
    }
}

/// Check 4: every first-party crate root forbids `unsafe`.
fn check_forbid_unsafe(root: &Path, errors: &mut Vec<String>) {
    let mut roots = vec![root.join("src/lib.rs")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            for candidate in ["src/lib.rs", "src/main.rs"] {
                let p = dir.join(candidate);
                if p.exists() {
                    roots.push(p);
                    break;
                }
            }
        }
    }
    for path in roots {
        match fs::read_to_string(&path) {
            Ok(text) if text.contains("#![forbid(unsafe_code)]") => {}
            Ok(_) => errors.push(format!(
                "{}: crate root lacks `#![forbid(unsafe_code)]`",
                path.strip_prefix(root).unwrap_or(&path).display()
            )),
            Err(e) => errors.push(format!("{}: {e}", path.display())),
        }
    }
}

/// Check 5: `PhysicalOp` variant freshness.  Parses the variant list out of
/// the enum definition and requires each to be named (as `PhysicalOp::V`)
/// in `try_map_children` (the exhaustive child walk `map_children` wraps)
/// and in the verify crate's physical walk.  The variant count is pinned at
/// [`PHYSICAL_OPS`], so a parser that misreads the enum fails loudly and a
/// new operator is a deliberate edit here too.  Every `JoinAlgorithm` must
/// be named in the executor's join lowering, so a wildcard arm there fails
/// the lint.
/// The number of `PhysicalOp` variants: scans (sequential, rank, attribute
/// index), σ, π, µ, join, set operation, sort, top-k sort, limit.
const PHYSICAL_OPS: usize = 11;

fn check_physicalop_freshness(root: &Path, errors: &mut Vec<String>) {
    let physical = root.join("crates/algebra/src/physical.rs");
    let Ok(text) = fs::read_to_string(&physical) else {
        errors.push(format!("{}: unreadable", physical.display()));
        return;
    };
    let stripped = strip_comments_and_strings(&text);
    let variants = enum_variants(&stripped, "pub enum PhysicalOp");
    if variants.len() != PHYSICAL_OPS {
        errors.push(format!(
            "freshness parser found {} PhysicalOp variants, expected {PHYSICAL_OPS} — either \
             the parser is broken or an operator was added or removed without updating \
             PHYSICAL_OPS",
            variants.len()
        ));
        return;
    }
    let map_children = fn_body(&stripped, "fn try_map_children").unwrap_or_default();
    let mut verify_files = Vec::new();
    collect_rs(&root.join("crates/verify/src"), root, &mut verify_files);
    let verify_text: String = verify_files
        .iter()
        .map(|(_, t)| strip_comments_and_strings(t))
        .collect();
    for v in &variants {
        let qualified = format!("PhysicalOp::{v}");
        if !map_children.contains(&qualified) {
            errors.push(format!(
                "PhysicalOp::{v} is not named in PhysicalOp::try_map_children — rewrite \
                 passes would not descend into it"
            ));
        }
        if !verify_text.contains(&qualified) {
            errors.push(format!(
                "PhysicalOp::{v} is not named in the ranksql-verify physical walk — its \
                 invariants are unchecked"
            ));
        }
    }
    let (plan, build) = (
        root.join("crates/algebra/src/plan.rs"),
        root.join("crates/executor/src/build.rs"),
    );
    let (Ok(plan_text), Ok(build_text)) = (fs::read_to_string(&plan), fs::read_to_string(&build))
    else {
        errors.push(format!(
            "{} or {}: unreadable",
            plan.display(),
            build.display()
        ));
        return;
    };
    let algorithms = enum_variants(
        &strip_comments_and_strings(&plan_text),
        "pub enum JoinAlgorithm",
    );
    if algorithms.len() < 5 {
        errors.push(format!(
            "freshness parser found only {} JoinAlgorithm variants — the parser is broken, \
             not the code",
            algorithms.len()
        ));
        return;
    }
    let lowering = fn_body(&strip_comments_and_strings(&build_text), "fn lower(")
        .unwrap_or_default()
        .to_owned();
    for v in &algorithms {
        if !lowering.contains(&format!("JoinAlgorithm::{v}")) {
            errors.push(format!(
                "JoinAlgorithm::{v} is not named in the executor's join lowering \
                 (`lower` in crates/executor/src/build.rs) — a wildcard arm would run it \
                 as some other join"
            ));
        }
    }
}

/// Top-level variant names of `needle`'s enum body (depth-1 identifiers
/// directly followed by `{`, `(` or `,`).
fn enum_variants(stripped: &str, needle: &str) -> Vec<String> {
    let Some(start) = stripped.find(needle) else {
        return Vec::new();
    };
    let Some(body) = fn_body(&stripped[start..], needle) else {
        return Vec::new();
    };
    let b = body.as_bytes();
    let mut variants = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < b.len() {
        match b[i] {
            b'{' | b'(' | b'[' => depth += 1,
            b'}' | b')' | b']' => depth = depth.saturating_sub(1),
            c if depth == 0 && c.is_ascii_uppercase() => {
                let mut j = i;
                while j < b.len() && is_ident_byte(b[j]) {
                    j += 1;
                }
                let mut k = j;
                while k < b.len() && b[k].is_ascii_whitespace() {
                    k += 1;
                }
                if matches!(b.get(k), Some(b'{' | b'(' | b',') | None) {
                    variants.push(body[i..j].to_owned());
                }
                i = j;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    variants
}

/// The brace-delimited body following the first occurrence of `needle`
/// (works for fns and enums alike).
fn fn_body<'a>(stripped: &'a str, needle: &str) -> Option<&'a str> {
    let start = stripped.find(needle)?;
    let open = start + stripped[start..].find('{')?;
    let b = stripped.as_bytes();
    let mut depth = 0usize;
    let mut i = open;
    while i < b.len() {
        match b[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&stripped[open + 1..i]);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_removes_comments_and_strings_but_keeps_lines() {
        let src = "let a = 1; // .unwrap()\nlet b = \".expect(\"; /* panic!( */ let c;\n";
        let out = strip_comments_and_strings(src);
        assert_eq!(out.lines().count(), src.lines().count());
        assert_eq!(count_tokens(&out, PANIC_TOKENS), 0);
        assert!(out.contains("let c;"));
    }

    #[test]
    fn raw_strings_and_nested_comments_are_stripped() {
        let src = "let s = r#\"panic!( .unwrap() \"#; /* outer /* .expect( */ still */ x();";
        let out = strip_comments_and_strings(src);
        assert_eq!(count_tokens(&out, PANIC_TOKENS), 0);
        assert!(out.contains("x();"));
    }

    #[test]
    fn asserts_count_but_debug_asserts_do_not() {
        let src = "assert!(a); assert_eq!(a, b); assert_ne!(a, b); debug_assert!(a); \
                   debug_assert_eq!(a, b); debug_assert_ne!(a, b);";
        assert_eq!(count_tokens(src, PANIC_TOKENS), 3);
    }

    #[test]
    fn test_mods_are_blanked() {
        let src = "fn a() { b.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        let out = blank_test_mods(&strip_comments_and_strings(src));
        assert_eq!(count_tokens(&out, PANIC_TOKENS), 1);
        let shared = src.replace("mod tests", "pub(crate) mod tests");
        let out = blank_test_mods(&strip_comments_and_strings(&shared));
        assert_eq!(count_tokens(&out, PANIC_TOKENS), 1);
    }

    #[test]
    fn test_mod_lines_are_not_counted() {
        let src = "fn a() {}\n\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\n";
        assert_eq!(non_test_lines(src), 2);
        let later = format!("{src}fn b() {{}}\n");
        assert_eq!(non_test_lines(&later), 3);
        assert_eq!(non_test_lines("// #[cfg(test)] mod t {}\nfn a() {}\n"), 2);
    }

    #[test]
    fn enum_variants_parse_shapes() {
        let src = "pub enum E { Unit, Tuple(u8), Struct { x: u8 }, }";
        let stripped = strip_comments_and_strings(src);
        assert_eq!(
            enum_variants(&stripped, "pub enum E"),
            ["Unit", "Tuple", "Struct"]
        );
    }

    #[test]
    fn unsafe_word_boundary_ignores_forbid_attribute() {
        let files = vec![(
            "x.rs".to_owned(),
            "#![forbid(unsafe_code)]\nfn safe_fn() {}\n".to_owned(),
        )];
        let mut errors = Vec::new();
        check_safety_comments(&files, &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn uncommented_unsafe_is_flagged_and_safety_comment_clears_it() {
        let mut errors = Vec::new();
        check_safety_comments(
            &[("x.rs".to_owned(), "fn f() { unsafe { g() } }\n".to_owned())],
            &mut errors,
        );
        assert_eq!(errors.len(), 1, "{errors:?}");
        let mut errors = Vec::new();
        check_safety_comments(
            &[(
                "x.rs".to_owned(),
                "// SAFETY: g upholds its contract here.\nfn f() { unsafe { g() } }\n".to_owned(),
            )],
            &mut errors,
        );
        assert!(errors.is_empty(), "{errors:?}");
    }
}
