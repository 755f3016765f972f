//! Facade lint for the workspace — the static half of `chanos-check`
//! (the model checker is the dynamic half).
//!
//! Six rules, each guarding an invariant the type system cannot:
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
    let mut ordering_covered = false;
    let mut safety_covered = false;
    let mut allowed = false;

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
    use super::{code_only, lint_file, stat_literals};

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
}
