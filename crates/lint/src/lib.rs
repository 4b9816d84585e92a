//! `pipes-lint`: the structural static-analysis gate for the kernel's
//! concurrency discipline. No external dependencies; `scripts/ci.sh` runs
//! it as a hard gate.
//!
//! Seven passes over a lightweight in-tree parse (comment/string-aware
//! lexer + brace-tree function extraction — no `syn`, consistent with the
//! offline-shims policy). See DESIGN.md § "Structural static analysis":
//!
//! 1. **`no-direct-sync`** — inside the concurrency-bearing kernel crates
//!    (`crates/{graph,sched,mem,meta,trace,ops}`), every lock, atomic,
//!    and thread primitive must come from the `pipes-sync` facade; direct
//!    `std::sync`, `std::thread`, `parking_lot`, or `loom` paths are
//!    rejected. An uninstrumented primitive is invisible to the model
//!    checker.
//! 2. **`ordering-justification`** — `Relaxed` and `SeqCst` orderings
//!    (workspace-wide, resolved through `use` declarations so
//!    `use ...::Ordering::{Relaxed}` or `Ordering as O` cannot hide them)
//!    require an adjacent `// ordering:` comment. Acquire/Release need no
//!    comment: they are the safe middle ground.
//! 3. **`no-lock-in-unsafe`** — lock acquisitions inside `unsafe` blocks
//!    are rejected.
//! 4. **`run-equivalence-test`** — every `on_run`/`on_run_left`/
//!    `on_run_right` override must be covered by an equivalence test
//!    naming the implementing type.
//! 5. **`lock-order`** — nested lock acquisitions feed a global
//!    lock-order graph keyed by the locked field's path; any cycle
//!    (including re-acquiring a held lock) is a potential deadlock.
//! 6. **`atomic-pairing`** — per atomic field, a Release-side store with
//!    no Acquire-side load anywhere (or vice versa) is a one-armed fence.
//! 7. **`blocking-while-locked`** — `park`/`wait`/`join`/`recv`-style
//!    calls while a lock guard is live, except condvar waits that are
//!    passed the guard they release.
//!
//! A finding can be waived with a `pipes-lint: allow(rule-name)` comment
//! on the offending line or the line above — intended for vendored code
//! only; the workspace itself is expected to carry **zero** waivers, and
//! every waiver the scan does find is listed in the report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomics;
pub mod lex;
pub mod lines;
pub mod locks;
pub mod parse;
pub mod rules;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// The seven pass names, in report order.
pub const PASSES: &[&str] = &[
    "no-direct-sync",
    "ordering-justification",
    "no-lock-in-unsafe",
    "run-equivalence-test",
    "lock-order",
    "atomic-pairing",
    "blocking-while-locked",
];

/// One finding.
#[derive(Debug)]
pub struct Violation {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Pass name (one of [`PASSES`]).
    pub rule: &'static str,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

/// One waiver comment found in the scanned sources.
#[derive(Debug)]
pub struct Waiver {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// Rule the waiver names.
    pub rule: String,
}

/// Scan configuration: which path prefixes each pass family applies to.
pub struct Config {
    /// Crates whose sources must go through the `pipes-sync` facade
    /// (rule 1).
    pub kernel_crates: Vec<String>,
    /// Crates the structural passes (5–7) analyze.
    pub analyzed_crates: Vec<String>,
    /// Directories never scanned: vendored shims (foreign idiom), the
    /// `benchmark/` package (a cargo workspace of its own, frozen by the
    /// benchmark contract), build output, VCS metadata, and the lint's own
    /// seeded-violation corpus.
    pub skip_dirs: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            kernel_crates: [
                "crates/graph",
                "crates/sched",
                "crates/mem",
                "crates/meta",
                "crates/trace",
                "crates/ops",
            ]
            .map(String::from)
            .to_vec(),
            analyzed_crates: [
                "crates/graph",
                "crates/sched",
                "crates/mem",
                "crates/meta",
                "crates/trace",
                "crates/ops",
                "crates/sync",
            ]
            .map(String::from)
            .to_vec(),
            skip_dirs: [
                "crates/shims",
                "crates/lint/tests/fixtures",
                "benchmark",
                "target",
                ".git",
            ]
            .map(String::from)
            .to_vec(),
        }
    }
}

impl Config {
    /// A configuration whose every pass applies to every path — used by
    /// the fixture tests, whose synthetic paths live outside `crates/`.
    pub fn all_paths() -> Self {
        Config {
            kernel_crates: vec![String::new()],
            analyzed_crates: vec![String::new()],
            skip_dirs: Vec::new(),
        }
    }
}

/// Everything one scan produced.
pub struct Outcome {
    /// All findings, in (pass, file, line) order of discovery.
    pub violations: Vec<Violation>,
    /// Every waiver comment present in the scanned sources (only waivers
    /// naming a real pass — an unknown rule name waives nothing).
    pub waivers: Vec<Waiver>,
    /// Number of files scanned.
    pub files: usize,
    /// Findings per pass (every pass listed, zero or not).
    pub per_pass: BTreeMap<&'static str, usize>,
    /// Coverage counters, proving the structural passes saw real code.
    pub stats: Stats,
    /// The raw lock-order graph edges (nested acquisitions), for
    /// debugging (`pipes-lint --edges`) and for tests pinning real edges.
    pub lock_edges: Vec<locks::NestedAcq>,
}

/// Coverage counters for the structural passes.
#[derive(Debug, Default)]
pub struct Stats {
    /// Function bodies walked by the guard-flow passes.
    pub functions: usize,
    /// Declared `Mutex`/`RwLock` fields, statics, and locals.
    pub lock_fields: usize,
    /// Declared atomic fields, statics, and locals.
    pub atomic_fields: usize,
    /// Nested acquisitions recorded into the lock-order graph.
    pub nested_acquisitions: usize,
    /// Atomic fields with at least one access site.
    pub atomics_accessed: usize,
}

/// Recursively collects `.rs` files under `root`, skipping `skip_dirs`,
/// and returns (workspace-relative path, source) pairs sorted by path.
pub fn collect_sources(root: &Path, cfg: &Config) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, cfg, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let src = std::fs::read_to_string(&file)?;
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        sources.push((rel, src));
    }
    Ok(sources)
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    cfg: &Config,
    out: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        if cfg.skip_dirs.iter().any(|s| rel.starts_with(s))
            || rel
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with('.'))
        {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, cfg, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every pass over the given sources.
pub fn analyze(sources: &[(PathBuf, String)], cfg: &Config) -> Outcome {
    let mut violations = Vec::new();
    let mut waivers = Vec::new();

    // Per-file parses, computed once.
    struct FileData {
        rel: PathBuf,
        lines: Vec<lines::Line>,
        toks: Vec<lex::Tok>,
        analyzed: bool,
    }
    let files: Vec<FileData> = sources
        .iter()
        .map(|(rel, src)| {
            let lns = lines::split_lines(src);
            let toks = lex::lex(&lns);
            FileData {
                rel: rel.clone(),
                analyzed: cfg.analyzed_crates.iter().any(|c| rel.starts_with(c)),
                lines: lns,
                toks,
            }
        })
        .collect();

    // Declarations are collected across every analyzed file first, so a
    // lock declared in `graph` is recognized at sites in `sched`.
    let mut aliases = std::collections::HashMap::new();
    for f in files.iter().filter(|f| f.analyzed) {
        parse::collect_aliases(&f.toks, &mut aliases);
    }
    let mut decls = parse::Decls::default();
    for f in files.iter().filter(|f| f.analyzed) {
        parse::collect_decls(&f.toks, &aliases, &mut decls);
    }

    let mut edges = Vec::new();
    let mut atomic_fields = BTreeMap::new();
    let mut stats = Stats {
        lock_fields: decls.lock_fields.len(),
        atomic_fields: decls.atomic_fields.len(),
        ..Stats::default()
    };
    for f in &files {
        // Waiver inventory (every file; placeholder rule names in prose —
        // which waive nothing — are not waivers).
        for (idx, line) in f.lines.iter().enumerate() {
            let mut rest = line.comment.as_str();
            while let Some(pos) = rest.find("pipes-lint: allow(") {
                let tail = &rest[pos + "pipes-lint: allow(".len()..];
                if let Some(end) = tail.find(')') {
                    if PASSES.contains(&&tail[..end]) {
                        waivers.push(Waiver {
                            path: f.rel.clone(),
                            line: idx + 1,
                            rule: tail[..end].to_string(),
                        });
                    }
                    rest = &tail[end..];
                } else {
                    break;
                }
            }
        }
        // Pass 1 (kernel crates only).
        if cfg.kernel_crates.iter().any(|c| f.rel.starts_with(c)) {
            rules::check_direct_sync(&f.rel, &f.lines, &mut violations);
        }
        // Pass 2 (workspace-wide, import-aware).
        let imports = lex::resolve_imports(&f.toks);
        let ord_sites = atomics::ordering_sites(&f.toks, &imports);
        atomics::check_ordering_justification(&f.rel, &f.lines, &ord_sites, &mut violations);
        // Pass 3 (workspace-wide).
        rules::check_lock_in_unsafe(&f.rel, &f.lines, &mut violations);
        // Passes 5–7 (analyzed crates).
        if f.analyzed {
            let funcs = parse::functions(&f.toks);
            stats.functions += funcs.len();
            locks::analyze_file(
                &f.rel,
                &f.toks,
                &f.lines,
                &funcs,
                &decls,
                &mut edges,
                &mut violations,
            );
            atomics::collect_atomic_sites(
                &f.rel,
                &f.toks,
                &f.lines,
                &ord_sites,
                &decls,
                &mut atomic_fields,
            );
        }
    }
    // Pass 4 (cross-file).
    rules::check_run_equivalence(sources, &mut violations);
    // Global views.
    stats.nested_acquisitions = edges.len();
    stats.atomics_accessed = atomic_fields.len();
    violations.extend(locks::lock_order_violations(&edges));
    violations.extend(atomics::pairing_violations(&atomic_fields));

    let mut per_pass: BTreeMap<&'static str, usize> = PASSES.iter().map(|p| (*p, 0)).collect();
    for v in &violations {
        *per_pass.entry(v.rule).or_insert(0) += 1;
    }
    Outcome {
        violations,
        waivers,
        files: sources.len(),
        per_pass,
        stats,
        lock_edges: edges,
    }
}

/// Serializes an [`Outcome`] as JSON (hand-rolled: the crate carries no
/// dependencies). Shape:
/// `{"files":N,"passes":{...},"violations":[...],"waivers":[...]}`.
pub fn to_json(o: &Outcome) -> String {
    let mut s = String::from("{");
    s.push_str(&format!("\"files\":{},", o.files));
    s.push_str(&format!(
        "\"coverage\":{{\"functions\":{},\"lock_fields\":{},\"atomic_fields\":{},\
         \"atomics_accessed\":{},\"nested_acquisitions\":{}}},",
        o.stats.functions,
        o.stats.lock_fields,
        o.stats.atomic_fields,
        o.stats.atomics_accessed,
        o.stats.nested_acquisitions
    ));
    s.push_str("\"passes\":{");
    let passes: Vec<String> = PASSES
        .iter()
        .map(|p| format!("\"{p}\":{}", o.per_pass.get(p).copied().unwrap_or(0)))
        .collect();
    s.push_str(&passes.join(","));
    s.push_str("},\"violations\":[");
    let vs: Vec<String> = o
        .violations
        .iter()
        .map(|v| {
            format!(
                "{{\"file\":{},\"line\":{},\"rule\":{},\"msg\":{}}}",
                json_str(&v.path.display().to_string()),
                v.line,
                json_str(v.rule),
                json_str(&v.msg)
            )
        })
        .collect();
    s.push_str(&vs.join(","));
    s.push_str("],\"waivers\":[");
    let ws: Vec<String> = o
        .waivers
        .iter()
        .map(|w| {
            format!(
                "{{\"file\":{},\"line\":{},\"rule\":{}}}",
                json_str(&w.path.display().to_string()),
                w.line,
                json_str(&w.rule)
            )
        })
        .collect();
    s.push_str(&ws.join(","));
    s.push_str("]}");
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the per-file passes (1–3) the way the old `check_source` did.
    fn check(path: &str, src: &str) -> Vec<String> {
        let sources = vec![(PathBuf::from(path), src.to_string())];
        let cfg = Config::default();
        let mut out = analyze(&sources, &cfg);
        // Drop cross-file rule-4 findings for these targeted tests.
        out.violations.retain(|v| v.rule != "run-equivalence-test");
        out.violations
            .iter()
            .map(|v| format!("{}:{}", v.rule, v.line))
            .collect()
    }

    #[test]
    fn direct_sync_flagged_only_in_kernel_crates() {
        let src = "use std::sync::Arc;\n";
        assert_eq!(
            check("crates/graph/src/edge.rs", src),
            vec!["no-direct-sync:1"]
        );
        assert_eq!(
            check("crates/meta/src/stats.rs", src),
            vec!["no-direct-sync:1"],
            "meta joined the facade-only set"
        );
        assert_eq!(
            check("crates/trace/src/ring.rs", src),
            vec!["no-direct-sync:1"],
            "trace joined the facade-only set"
        );
        assert_eq!(
            check("crates/ops/src/agg.rs", src),
            vec!["no-direct-sync:1"],
            "ops joined the facade-only set (live aggregate state since PR 6)"
        );
        assert!(check("crates/cql/src/lib.rs", src).is_empty());
        assert!(check("crates/sync/src/lib.rs", src).is_empty());
    }

    #[test]
    fn new_sched_layer_modules_are_inside_the_gate() {
        // The three-layer scheduler modules (plan/steal/worker) live in a
        // kernel crate; their claim/steal/park primitives must come from
        // the facade so the model checker can instrument them.
        let src = "use std::sync::atomic::AtomicUsize;\n";
        for path in [
            "crates/sched/src/plan.rs",
            "crates/sched/src/steal.rs",
            "crates/sched/src/worker.rs",
        ] {
            assert_eq!(check(path, src), vec!["no-direct-sync:1"], "{path}");
        }
    }

    #[test]
    fn shuffle_modules_are_inside_the_gate() {
        // The keyed-parallelism pipeline (partition → instances → merge)
        // lives in the graph kernel crate; its routing cells and merge
        // frontier state must come from the facade so the model checker can
        // drive partition-push vs merge-drain interleavings.
        let src = "use std::sync::atomic::AtomicUsize;\n";
        assert_eq!(
            check("crates/graph/src/shuffle.rs", src),
            vec!["no-direct-sync:1"],
            "shuffle stage must stay behind the pipes_sync facade"
        );
    }

    #[test]
    fn string_mention_of_std_sync_is_not_flagged() {
        let src = "let m = \"std::sync is banned\"; // std::thread too\n";
        assert!(check("crates/graph/src/edge.rs", src).is_empty());
    }

    #[test]
    fn unjustified_relaxed_is_flagged() {
        let src = "x.store(1, Ordering::Relaxed);\n";
        assert_eq!(
            check("crates/meta/src/stats.rs", src),
            vec!["ordering-justification:1"]
        );
    }

    #[test]
    fn imported_variant_no_longer_bypasses_rule_2() {
        // The old token match only saw `Ordering::Relaxed`; resolving
        // through `use` declarations closes the bypass.
        let src = "use std::sync::atomic::Ordering::{Relaxed, SeqCst};\n\
                   x.store(1, Relaxed);\n\
                   y.store(2, SeqCst);\n";
        assert_eq!(
            check("crates/cql/src/lib.rs", src),
            vec!["ordering-justification:2", "ordering-justification:3"]
        );
    }

    #[test]
    fn aliased_ordering_type_no_longer_bypasses_rule_2() {
        let src = "use std::sync::atomic::Ordering as O;\nx.store(1, O::Relaxed);\n";
        assert_eq!(check("a.rs", src), vec!["ordering-justification:2"]);
        let justified = "use std::sync::atomic::Ordering as O;\n\
                         x.store(1, O::Relaxed); // ordering: counter only\n";
        assert!(check("a.rs", justified).is_empty());
    }

    #[test]
    fn imported_acquire_release_need_no_comment() {
        let src = "use std::sync::atomic::Ordering::{Acquire, Release};\n\
                   x.store(1, Release);\nlet v = x.load(Acquire);\n";
        assert!(check("a.rs", src).is_empty());
    }

    #[test]
    fn same_line_and_above_comment_justify() {
        let same = "x.store(1, Ordering::Relaxed); // ordering: mutex holds\n";
        assert!(check("a.rs", same).is_empty());
        let above = "// ordering: the queue mutex synchronizes; hints only.\n\
                     x.store(1, Ordering::Relaxed);\n\
                     y.fetch_max(2, Ordering::Relaxed);\n";
        assert!(check("a.rs", above).is_empty(), "comment covers the run");
    }

    #[test]
    fn acquire_release_need_no_comment() {
        let src = "x.store(1, Ordering::Release);\nlet v = x.load(Ordering::Acquire);\n";
        assert!(check("a.rs", src).is_empty());
    }

    #[test]
    fn unrelated_code_between_comment_and_ordering_breaks_adjacency() {
        let src = "// ordering: stale justification\nlet y = 3;\nx.store(1, Ordering::SeqCst);\n";
        assert_eq!(check("a.rs", src), vec!["ordering-justification:3"]);
    }

    #[test]
    fn cmp_ordering_is_not_confused_with_atomics() {
        let src = "if a.cmp(b) == Ordering::Equal { return Ordering::Less; }\n";
        assert!(check("a.rs", src).is_empty());
        let imported = "use std::cmp::Ordering::{Equal, Less};\n\
                        if x == Equal { return Less; }\n";
        assert!(check("a.rs", imported).is_empty());
    }

    #[test]
    fn lock_inside_unsafe_block_is_flagged() {
        let src = "unsafe {\n    let g = m.lock();\n}\nlet ok = m.lock();\n";
        assert_eq!(check("a.rs", src), vec!["no-lock-in-unsafe:2"]);
    }

    #[test]
    fn waiver_suppresses_a_finding_and_is_inventoried() {
        let src = "// pipes-lint: allow(no-direct-sync)\nuse std::sync::Arc;\n";
        let sources = vec![(PathBuf::from("crates/graph/src/x.rs"), src.to_string())];
        let out = analyze(&sources, &Config::default());
        assert!(out.violations.is_empty());
        assert_eq!(out.waivers.len(), 1);
        assert_eq!(out.waivers[0].rule, "no-direct-sync");
        assert_eq!(out.waivers[0].line, 1);
    }

    #[test]
    fn string_continuations_keep_line_numbers_true() {
        let src = "let s = \"a\\\n  b\";\nuse std::sync::Arc;\n";
        assert_eq!(
            check("crates/graph/src/x.rs", src),
            vec!["no-direct-sync:3"]
        );
    }

    #[test]
    fn json_output_is_well_formed_and_escaped() {
        let sources = vec![(
            PathBuf::from("crates/graph/src/x.rs"),
            "use std::sync::Arc; // \"quotes\" in a comment\n".to_string(),
        )];
        let out = analyze(&sources, &Config::default());
        let json = to_json(&out);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"files\":1"));
        assert!(json.contains("\"no-direct-sync\":1"));
        assert!(json.contains("\"lock-order\":0"), "every pass is listed");
        // Balanced quotes: an unescaped interior quote would break this.
        let quotes = json.chars().filter(|&c| c == '"').count();
        assert_eq!(quotes % 2, 0);
    }

    mod rule4 {
        use super::*;
        use crate::rules::check_run_equivalence;

        fn run_rule4(files: &[(&str, &str)]) -> Vec<String> {
            let owned: Vec<(PathBuf, String)> = files
                .iter()
                .map(|(p, s)| (PathBuf::from(p), (*s).to_string()))
                .collect();
            let mut out = Vec::new();
            check_run_equivalence(&owned, &mut out);
            out.into_iter()
                .map(|v| format!("{}:{}:{}", v.path.display(), v.rule, v.line))
                .collect()
        }

        const OVERRIDE_SRC: &str = "impl<F> Operator for MyOp<F> {\n\
                                    \x20   fn on_run(&mut self, port: usize) {}\n\
                                    }\n";

        #[test]
        fn on_run_override_without_test_is_flagged() {
            assert_eq!(
                run_rule4(&[("crates/ops/src/my.rs", OVERRIDE_SRC)]),
                vec!["crates/ops/src/my.rs:run-equivalence-test:2"]
            );
        }

        #[test]
        fn on_run_override_with_named_test_passes() {
            let test = "fn check() { let op = MyOp::new(); op.on_run(0, &mut r, &mut o); }\n";
            assert!(run_rule4(&[
                ("crates/ops/src/my.rs", OVERRIDE_SRC),
                ("crates/ops/tests/run_props.rs", test),
            ])
            .is_empty());
        }

        #[test]
        fn type_token_must_match_whole_word() {
            // `FlatMyOp` must not satisfy coverage for `MyOp`.
            let test = "fn check() { let op = FlatMyOp::new(); op.on_run(0, &mut r, &mut o); }\n";
            assert_eq!(
                run_rule4(&[
                    ("crates/ops/src/my.rs", OVERRIDE_SRC),
                    ("crates/ops/tests/run_props.rs", test),
                ]),
                vec!["crates/ops/src/my.rs:run-equivalence-test:2"]
            );
        }

        #[test]
        fn run_pair_overrides_are_attributed_to_the_impl_type() {
            let src = "impl<L, R> BinaryOperator for MyJoin<L, R> {\n\
                       \x20   fn on_run_left(&mut self) {}\n\
                       \x20   fn on_run_right(&mut self) {}\n\
                       }\n";
            let found = run_rule4(&[("crates/ops/src/j.rs", src)]);
            assert_eq!(
                found,
                vec![
                    "crates/ops/src/j.rs:run-equivalence-test:2",
                    "crates/ops/src/j.rs:run-equivalence-test:3",
                ]
            );
        }

        #[test]
        fn trait_defaults_and_test_fixtures_are_exempt() {
            let trait_src = "pub trait Operator {\n    fn on_run(&mut self) {}\n}\n";
            let fixture = "impl Operator for Fixture {\n    fn on_run(&mut self) {}\n}\n";
            assert!(run_rule4(&[
                ("crates/graph/src/operator.rs", trait_src),
                ("crates/graph/tests/run_props.rs", fixture),
            ])
            .is_empty());
        }

        #[test]
        fn longer_identifiers_starting_with_on_run_are_not_overrides() {
            // A function *named* e.g. `on_run_override_check` is not a run
            // entry point; neither is `fn on_running`.
            let src = "impl Operator for MyOp {\n\
                       \x20   fn on_running(&mut self) {}\n\
                       \x20   fn on_run_helper(&mut self) {}\n\
                       }\n";
            assert!(run_rule4(&[("crates/ops/src/my.rs", src)]).is_empty());
        }

        #[test]
        fn rule4_waiver_suppresses_the_finding() {
            let src = "impl Operator for MyOp {\n\
                       \x20   // pipes-lint: allow(run-equivalence-test)\n\
                       \x20   fn on_run(&mut self) {}\n\
                       }\n";
            assert!(run_rule4(&[("crates/ops/src/my.rs", src)]).is_empty());
        }
    }
}
