//! Facade lint for the workspace — the static half of `chanos-check`
//! (the model checker is the dynamic half).
//!
//! Seven rules, each guarding an invariant the type system cannot:
//!
//! 1. **Facade bypass.** Code outside the runtime-implementing crates
//!    must not call `std::thread::spawn`, use `std::sync::mpsc`, or
//!    read `Instant::now()`. Those crates (`parchan`, `rt`, `bench`,
//!    `check`) *are* the runtime or measure it; everyone else going
//!    around the facade breaks backend portability (the simulator
//!    cannot see an OS thread) and determinism (wall-clock reads in
//!    sim code de-seed traces).
//!
//! 2. **Stat registry.** Every `"chan.*"` / `"port.*"` / `"disk.*"`
//!    / `"driver.*"` / `"sched.*"` / `"nr.*"` / `"serve.*"` /
//!    `"cache.*"` / `"kernel.*"` / `"msgfs.*"` string literal must
//!    appear in `crates/check/stat_registry.txt`. A typo'd name
//!    silently records into a fresh counter while the assertion
//!    reading the intended name sees zero (the benchmark's ladder
//!    reads `kernel.*`, `msgfs.*` and `driver.*` counters by name).
//!
//! 3. **Ordering discipline.** Inside `crates/parchan/src`, every
//!    `SeqCst` in code must sit in a comment paragraph containing
//!    `ordering:` stating the invariant that needs sequential
//!    consistency. SeqCst is the "not sure" ordering; the rule forces
//!    each survivor of the downgrade pass to carry its proof
//!    obligation. A paragraph is a blank-line-delimited run, so one
//!    comment covers a whole protocol step.
//!
//! 4. **Mutex-free dispatch.** The scheduler's lock-free modules
//!    (`queue.rs`, `injector.rs`, `idle.rs` in `crates/parchan/src`)
//!    must contain no `Mutex`, `Condvar`, `plock`, or `.lock()` in
//!    code. These modules *are* the claim that task push/pop/steal
//!    and the park handshake take zero locks on the dispatch fast
//!    path; a lock creeping in would silently void the `parchan.*`
//!    numbers the benchmark records. No escape hatch — blocking
//!    belongs in `executor.rs`.
//!
//! 5. **Written once.** The OS stack (`vfs`, `kernel`, `serve`, `nr`,
//!    `drivers`, `net`, `vm`, `proto`) must not ask which backend it
//!    runs on: `backend()`, `try_backend()` or `Backend::` in code
//!    under their `src/`. A server that forks on the backend is two
//!    servers, one of which the simulator's traces and the benchmark
//!    never see; what differs between the backends belongs behind the
//!    `rt` facade (`rt::ReplyBatch` is how a burst is answered on
//!    both).
//!
//! 6. **Unsafe says why.** Inside `crates/parchan/src`, every `unsafe`
//!    block and `unsafe impl` must sit in a comment paragraph
//!    containing `SAFETY:` stating what the caller proved (owner
//!    thread, state-machine arm, ticket held). Same paragraph rule as
//!    3; an `unsafe fn` states its contract in its `# Safety` doc
//!    instead and is not matched.
//!
//! 7. **Driven code stays on the shim.** The files the real-code
//!    model checks drive (`executor.rs`, `chan.rs`, `oneshot.rs`,
//!    `queue.rs`, `injector.rs`, `idle.rs` in `crates/parchan/src`, and
//!    `crates/nr/src/lib.rs`) must not name
//!    `std::thread::{spawn, Builder, park, current}`,
//!    `std::sync::atomic::Atomic*`, `std::sync::{Mutex, Condvar,
//!    RwLock}` or `std::mem::MaybeUninit` outside `#[cfg(test)]`
//!    items: they take them from the `sync` facade (`crate::sync` in
//!    parchan, `rt::sync` above it), a value slot as its `ValueCell`.
//!    A stray `std` primitive is an operation the explorer never sees,
//!    which silently takes that code out of every check. No escape
//!    hatch.
//!
//! Escape hatch: a comment containing `chanos-lint: allow` suppresses
//! rules 1, 2 and 5 for the rest of its blank-line-delimited
//! paragraph — the comment is expected to say why.
//!
//! Run from anywhere: `cargo run -p chanos-check --bin lint`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates allowed to touch OS threads and the wall clock directly.
const FACADE_EXEMPT: &[&str] = &[
    "crates/parchan/", // is the threads runtime
    "crates/rt/",      // is the facade
    "crates/bench/",   // measures wall time by design
    "crates/check/",   // shims std::thread itself
];

/// Substrings whose presence in a non-exempt file is a bypass.
const BYPASS: &[(&str, &str)] = &[
    (
        "std::thread::spawn",
        "spawn through the runtime facade (`rt::spawn*` / `Runtime::spawn`); \
         raw OS threads are invisible to the simulator backend",
    ),
    (
        "std::sync::mpsc",
        "use the workspace channels (`rt::channel` / `parchan::channel`); \
         mpsc bypasses the paper's channel discipline and its stats",
    ),
    (
        "Instant::now",
        "read time through the facade (`rt::now()`); wall-clock reads \
         de-seed deterministic simulator traces",
    ),
];

fn workspace_root() -> PathBuf {
    // crates/check -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/check has a workspace root two levels up")
        .to_path_buf()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Strips `// ...` comments and string literal *contents* so rule
/// matching sees only code. Keeps the quotes themselves (rule 2 runs
/// on the raw line instead). Good enough for a line-based lint: raw
/// strings and block comments are rare in this workspace and the
/// patterns we search for do not straddle lines.
fn code_only(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push('"');
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

/// Crates written once against the `rt` facade (rule 5): their
/// `crates/<name>/src`.
const WRITTEN_ONCE: &[&str] = &[
    "vfs", "kernel", "serve", "nr", "drivers", "net", "vm", "proto",
];

/// Code patterns that ask which backend is running (rule 5);
/// `try_backend()` is caught by the first.
const BACKEND_FORK: &[&str] = &["backend()", "Backend::"];

/// Files that must stay mutex-free (rule 4): the lock-free dispatch
/// core. `injector.rs` is every shared run queue — the global
/// injector, the high lane and each worker's pinned queue — so all
/// three are audited here. Matched as path suffixes under
/// `crates/parchan/src/`.
const MUTEX_FREE: &[&str] = &[
    "crates/parchan/src/queue.rs",
    "crates/parchan/src/injector.rs",
    "crates/parchan/src/idle.rs",
];

/// Code patterns that mean "a lock" for rule 4.
const LOCKING: &[&str] = &["Mutex", "Condvar", "plock", ".lock()"];

/// Files the real-code model checks drive (rule 7).
const DRIVEN: &[&str] = &[
    "crates/parchan/src/executor.rs",
    "crates/parchan/src/chan.rs",
    "crates/parchan/src/oneshot.rs",
    "crates/parchan/src/queue.rs",
    "crates/parchan/src/injector.rs",
    "crates/parchan/src/idle.rs",
    "crates/nr/src/lib.rs",
];

/// The `std` primitives a driven file takes from the `sync` facade instead
/// (rule 7): a module path and the names under it; a trailing `*`
/// makes a name a prefix.
const UNSHIMMED: &[(&str, &[&str])] = &[
    ("std::thread::", &["spawn", "Builder", "park", "current"]),
    ("std::sync::atomic::", &["Atomic*"]),
    ("std::sync::", &["Mutex", "Condvar", "RwLock"]),
    ("std::mem::", &["MaybeUninit"]),
];

/// Code patterns that open an unsafe block or impl (rule 6); an
/// `unsafe fn` carries a `# Safety` doc instead.
const UNSAFE_SITE: &[&str] = &["unsafe {", "unsafe impl"];

/// Extracts `"chan.*"`, `"port.*"`, `"disk.*"`, `"driver.*"`,
/// `"sched.*"`, `"nr.*"`, `"serve.*"`, `"cache.*"`, `"kernel.*"` and
/// `"msgfs.*"` literals from a line.
fn stat_literals(line: &str) -> Vec<String> {
    let mut found = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            if let Some(end) = line[i + 1..].find('"') {
                let lit = &line[i + 1..i + 1 + end];
                for prefix in [
                    "chan.", "port.", "disk.", "driver.", "sched.", "nr.", "serve.", "cache.",
                    "kernel.", "msgfs.",
                ] {
                    if let Some(rest) = lit.strip_prefix(prefix) {
                        if !rest.is_empty()
                            && rest
                                .chars()
                                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                        {
                            found.push(lit.to_string());
                        }
                    }
                }
                i += end + 2;
                continue;
            }
        }
        i += 1;
    }
    found
}

/// Every `std::` path in `code`, use groups expanded:
/// `std::sync::{atomic::AtomicU8, Mutex}` yields
/// `std::sync::atomic::AtomicU8` and `std::sync::Mutex`.
fn std_paths(code: &str) -> Vec<String> {
    // Whitespace next to punctuation goes, so a group split over lines
    // reads as one path tree; `Mutex as M` keeps its space.
    let mut tight = String::with_capacity(code.len());
    for word in code.split_whitespace() {
        let glue = |c: Option<char>| c.is_some_and(|c| ":{},;()".contains(c));
        if !tight.is_empty() && !glue(tight.chars().last()) && !glue(word.chars().next()) {
            tight.push(' ');
        }
        tight.push_str(word);
    }
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(i) = tight[at..].find("std::") {
        let start = at + i;
        let joined = tight[..start]
            .chars()
            .last()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        at = start
            + if joined {
                5
            } else {
                expand(&tight[start..], "", &mut out)
            };
    }
    out
}

/// Reads one use tree from the front of `s` under `prefix`, pushing
/// each full path; returns the bytes consumed.
fn expand(s: &str, prefix: &str, out: &mut Vec<String>) -> usize {
    let b = s.as_bytes();
    let mut path = prefix.to_string();
    let mut i = 0;
    loop {
        let start = i;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        path.push_str(&s[start..i]);
        if s[i..].starts_with("::{") {
            path.push_str("::");
            i += 3;
            loop {
                i += expand(&s[i..], &path, out);
                match b.get(i) {
                    Some(b',') => i += 1,
                    Some(b'}') => return i + 1,
                    _ => return i,
                }
            }
        } else if s[i..].starts_with("::") {
            path.push_str("::");
            i += 2;
        } else {
            out.push(path);
            return i;
        }
    }
}

/// The rule-7 primitive `path` names, if any.
fn unshimmed(path: &str) -> Option<&'static str> {
    UNSHIMMED.iter().find_map(|(module, names)| {
        let rest = path.strip_prefix(module)?;
        let name = rest.split("::").next().unwrap_or(rest);
        names
            .iter()
            .any(|n| match n.strip_suffix('*') {
                Some(stem) => name.starts_with(stem),
                None => name == *n,
            })
            .then_some(*module)
    })
}

/// Paragraph-scoped comment cover (rules 3 and 6): has the current
/// blank-line-delimited run carried `marker` so far, this line included?
fn covered(state: &mut bool, raw: &str, marker: &str) -> bool {
    if raw.trim().is_empty() {
        *state = false;
    } else if raw.contains(marker) {
        *state = true;
    }
    *state
}

/// Runs every rule over one file (`rel` is its path from the
/// workspace root, `/`-separated), appending to `findings`.
fn lint_file(rel: &str, text: &str, registry: &[String], findings: &mut Vec<String>) {
    let exempt = FACADE_EXEMPT.iter().any(|p| rel.starts_with(p));
    // Paragraph-scoped state (reset at blank lines): has the
    // current blank-line-delimited run seen an `ordering:` /
    // `SAFETY:` / `chanos-lint: allow` comment so far?
    let parchan = rel.starts_with("crates/parchan/src/");
    let mutex_free = MUTEX_FREE.contains(&rel);
    let written_once = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split_once("/src/"))
        .is_some_and(|(krate, _)| WRITTEN_ONCE.contains(&krate));
    let driven = DRIVEN.contains(&rel);
    let mut ordering_covered = false;
    let mut safety_covered = false;
    let mut allowed = false;
    // Rule 7's state: a `#[cfg(test)]` seen and its item not yet
    // begun, the brace depth of the test item being skipped, and a
    // `use` statement still open across lines.
    let mut test_attr = false;
    let mut test_depth: Option<i64> = None;
    let mut open_use = String::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        if raw.trim().is_empty() {
            allowed = false;
        } else if raw.contains("chanos-lint: allow") {
            allowed = true;
        }
        let code = code_only(raw);

        // Rule 1: facade bypass.
        if !exempt && !allowed {
            for (pat, why) in BYPASS {
                if code.contains(pat) {
                    findings.push(format!("{rel}:{lineno}: facade bypass `{pat}` — {why}"));
                }
            }
        }

        // Rule 2: stat literals must be registered.
        if !allowed {
            for lit in stat_literals(raw) {
                if !registry.iter().any(|r| r == &lit) {
                    findings.push(format!(
                        "{rel}:{lineno}: stat literal \"{lit}\" not in \
                         crates/check/stat_registry.txt — a typo'd name \
                         records into a fresh counter nobody reads"
                    ));
                }
            }
        }

        // Rule 4: the lock-free dispatch modules must not lock.
        // Deliberately no `chanos-lint: allow` escape: the
        // zero-lock fast path is an acceptance criterion, not a
        // style preference.
        if mutex_free {
            for pat in LOCKING {
                if code.contains(pat) {
                    findings.push(format!(
                        "{rel}:{lineno}: `{pat}` in a mutex-free scheduler \
                         module — task dispatch (push/pop/steal, park \
                         handshake) must stay lock-free; blocking belongs \
                         in executor.rs"
                    ));
                }
            }
        }

        // Rules 3 and 6: inside parchan a `SeqCst` needs an `ordering:`
        // comment in its paragraph, an unsafe block or impl a `SAFETY:`.
        if parchan {
            if !covered(&mut ordering_covered, raw, "ordering:") && code.contains("SeqCst") {
                findings.push(format!(
                    "{rel}:{lineno}: bare `SeqCst` — state the invariant \
                     in an `// ordering:` comment in this paragraph, or \
                     downgrade the ordering"
                ));
            }
            if !covered(&mut safety_covered, raw, "SAFETY:")
                && UNSAFE_SITE.iter().any(|pat| code.contains(pat))
            {
                findings.push(format!(
                    "{rel}:{lineno}: bare `unsafe` — state what makes it sound \
                     (owner thread, state-machine arm, ticket held) in a \
                     `// SAFETY:` comment in this paragraph"
                ));
            }
        }

        // Rule 5: the OS stack does not ask which backend it is on.
        if written_once && !allowed {
            for pat in BACKEND_FORK {
                if code.contains(pat) {
                    findings.push(format!(
                        "{rel}:{lineno}: `{pat}` in the OS stack — a server is \
                         written once; move what differs between the backends \
                         behind the `rt` facade (`rt::ReplyBatch` answers a \
                         burst on both)"
                    ));
                }
            }
        }

        // Rule 7: the files the model checks drive stay on the shim.
        // Last in the loop: it skips test items and waits out
        // multi-line `use`s with `continue`.
        if driven {
            let depth = |c: &str| c.matches('{').count() as i64 - c.matches('}').count() as i64;
            let trimmed = code.trim();
            if let Some(d) = test_depth.as_mut() {
                *d += depth(&code);
                if *d <= 0 {
                    test_depth = None;
                }
                continue;
            }
            if trimmed.starts_with("#[cfg(test)]") {
                test_attr = true;
                continue;
            }
            if test_attr && !trimmed.is_empty() && !trimmed.starts_with("#[") {
                test_attr = false;
                let d = depth(&code);
                if d > 0 {
                    test_depth = Some(d);
                }
                continue;
            }
            let opens_use = trimmed
                .trim_start_matches("pub ")
                .trim_start_matches("pub(crate) ")
                .starts_with("use ");
            if opens_use || !open_use.is_empty() {
                open_use.push_str(&code);
                open_use.push(' ');
            }
            let stmt = if open_use.is_empty() {
                code.clone()
            } else if code.contains(';') {
                std::mem::take(&mut open_use)
            } else {
                continue;
            };
            for path in std_paths(&stmt) {
                if let Some(module) = unshimmed(&path) {
                    findings.push(format!(
                        "{rel}:{lineno}: `{path}` in code the model checks \
                         drive — take it from the `sync` facade (`{module}` \
                         has a shim), or the explorer never sees it"
                    ));
                }
            }
        }
    }
}

fn main() -> ExitCode {
    let root = workspace_root();
    let registry_path = root.join("crates/check/stat_registry.txt");
    let registry: Vec<String> = fs::read_to_string(&registry_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", registry_path.display()))
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();

    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.sort();

    let mut findings: Vec<String> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        if let Ok(text) = fs::read_to_string(path) {
            lint_file(&rel, &text, &registry, &mut findings);
        }
    }

    if findings.is_empty() {
        println!("lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            eprintln!("{f}");
        }
        eprintln!(
            "lint: {} finding(s) in {} files",
            findings.len(),
            files.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::{code_only, lint_file, stat_literals, std_paths};

    #[test]
    fn code_only_strips_comments_and_string_contents() {
        assert_eq!(code_only("let x = 1; // Instant::now"), "let x = 1; ");
        assert_eq!(code_only(r#"let s = "Instant::now";"#), r#"let s = "";"#);
        assert_eq!(code_only(r#"let s = "a\"b"; f()"#), r#"let s = ""; f()"#);
        assert_eq!(code_only("Instant::now()"), "Instant::now()");
    }

    #[test]
    fn stat_literal_extraction() {
        assert_eq!(
            stat_literals(r#"bump("chan.fast_sends"); g("disk.reads")"#),
            vec!["chan.fast_sends", "disk.reads"]
        );
        // Wrong charset or empty suffix: not a stat name.
        assert!(stat_literals(r#""chan.Weird""#).is_empty());
        assert!(stat_literals(r#""chan.""#).is_empty());
        assert!(stat_literals(r#"no strings here"#).is_empty());
        assert_eq!(
            stat_literals(r#""port.calls_timed_out""#),
            vec!["port.calls_timed_out"]
        );
        assert_eq!(
            stat_literals(r#"h.stat_get("sched.steal_batches")"#),
            vec!["sched.steal_batches"]
        );
        assert_eq!(
            stat_literals(r#"rt::stat_incr("nr.local_reads")"#),
            vec!["nr.local_reads"]
        );
        assert_eq!(
            stat_literals(r#"rt::stat_add("serve.kv_gets", n)"#),
            vec!["serve.kv_gets"]
        );
        assert_eq!(
            stat_literals(r#"rt::stat_incr("cache.fill_joins")"#),
            vec!["cache.fill_joins"]
        );
        assert_eq!(
            stat_literals(r#"rt::stat_incr("kernel.syscalls"); f("msgfs.vnodes_reaped")"#),
            vec!["kernel.syscalls", "msgfs.vnodes_reaped"]
        );
        assert_eq!(
            stat_literals(r#"rt::stat_add("driver.reads_merged", n)"#),
            vec!["driver.reads_merged"]
        );
        // A table-row string mentioning a counter is not a literal.
        assert!(stat_literals(r#""| sched.steals | {} |""#).is_empty());
    }

    #[test]
    fn bare_unsafe_in_parchan_is_a_finding() {
        let bare = "let v = unsafe { slot.read() };\n";
        let said = "// SAFETY: the ticket is ours.\nlet v = unsafe { slot.read() };\n";
        let lapsed = format!("{said}\nunsafe impl<T: Send> Send for Ring<T> {{}}\n");
        for (rel, text, want) in [
            ("crates/parchan/src/queue.rs", bare, 1),
            ("crates/parchan/src/queue.rs", said, 0),
            // Covered to the blank line, no further.
            ("crates/parchan/src/queue.rs", &lapsed, 1),
            // A declaration states its contract in `# Safety`.
            (
                "crates/parchan/src/queue.rs",
                "unsafe fn read(&self) {}\n",
                0,
            ),
            // A comment is not code; other crates are not in scope.
            ("crates/parchan/src/queue.rs", "// no unsafe { here }\n", 0),
            ("crates/sim/src/lib.rs", bare, 0),
        ] {
            let mut findings = Vec::new();
            lint_file(rel, text, &[], &mut findings);
            assert_eq!(findings.len(), want, "{rel}: {text:?} -> {findings:?}");
        }
    }

    #[test]
    fn backend_fork_in_the_os_stack_is_a_finding() {
        let fork = "let defer = rt::backend() == rt::Backend::Threads;\n";
        let allowed = "// chanos-lint: allow — picks the device.\nmatch rt::backend() {}\n";
        let lapsed = format!("{allowed}\nmatch rt::backend() {{}}\n");
        for (rel, text, want) in [
            ("crates/vfs/src/msgfs.rs", fork, 2),
            (
                "crates/proto/src/deadlock.rs",
                "if try_backend().is_some() {}\n",
                1,
            ),
            // The facade itself, and tests beside the stack, may ask.
            ("crates/rt/src/lib.rs", fork, 0),
            ("crates/vfs/tests/fs.rs", fork, 0),
            // A comment or a string is not code.
            ("crates/nr/src/lib.rs", "// not rt::backend() any more\n", 0),
            ("crates/nr/src/lib.rs", "let s = \"Backend::Sim\";\n", 0),
            // An allowed paragraph is covered to its blank line, no further.
            ("crates/drivers/src/disk.rs", allowed, 0),
            ("crates/drivers/src/disk.rs", &lapsed, 1),
        ] {
            let mut findings = Vec::new();
            lint_file(rel, text, &[], &mut findings);
            assert_eq!(findings.len(), want, "{rel}: {text:?} -> {findings:?}");
        }
    }

    #[test]
    fn use_groups_expand_to_full_paths() {
        assert_eq!(
            std_paths("use std::sync::{atomic::{AtomicU8, Ordering}, Mutex as M};"),
            [
                "std::sync::atomic::AtomicU8",
                "std::sync::atomic::Ordering",
                "std::sync::Mutex"
            ]
        );
        assert_eq!(
            std_paths("let n = std::thread::available_parallelism();"),
            ["std::thread::available_parallelism"]
        );
        assert!(std_paths("use chanos_check::sync::Mutex;").is_empty());
    }

    #[test]
    fn a_std_primitive_in_driven_code_is_a_finding() {
        let grouped = "use std::sync::{\n    atomic::{AtomicBool, Ordering},\n    Arc,\n};\n";
        let in_tests = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    fn f() {\n        std::thread::spawn(|| ());\n    }\n}\n";
        let after_tests = format!("{in_tests}fn g() {{\n    std::thread::park();\n}}\n");
        for (rel, text, want) in [
            ("crates/parchan/src/executor.rs", grouped, 1),
            (
                "crates/parchan/src/executor.rs",
                "let t = std::thread::current();\nstd::thread::Builder::new().spawn(f);\n",
                2,
            ),
            (
                "crates/parchan/src/chan.rs",
                "static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);\n",
                2,
            ),
            // Not a primitive the shim replaces; not a driven file.
            (
                "crates/parchan/src/executor.rs",
                "let n = std::thread::available_parallelism();\nuse std::sync::{Arc, Weak};\n",
                0,
            ),
            ("crates/parchan/src/counters.rs", grouped, 0),
            (
                "crates/nr/src/lib.rs",
                "use std::sync::{Arc, OnceLock, RwLock};\n",
                1,
            ),
            // Test items are skipped, to their closing brace only.
            ("crates/parchan/src/oneshot.rs", in_tests, 0),
            ("crates/parchan/src/oneshot.rs", &after_tests, 1),
            // A value slot is a `sync::ValueCell`.
            (
                "crates/parchan/src/queue.rs",
                "use std::mem::MaybeUninit;\nstruct Slot(UnsafeCell<std::mem::MaybeUninit<T>>);\n",
                2,
            ),
            (
                "crates/parchan/src/sync.rs",
                "use std::mem::MaybeUninit;\n",
                0,
            ),
        ] {
            let mut findings = Vec::new();
            lint_file(rel, text, &[], &mut findings);
            assert_eq!(findings.len(), want, "{rel}: {text:?} -> {findings:?}");
        }
    }
}
