//! The `cargo xtask` static passes: repo-specific rules the generic
//! toolchain cannot express, enforced on every PR.
//!
//! Two commands share the [`scanner`] front end:
//!
//! * `cargo xtask lint` — the seven token rules below.
//! * `cargo xtask analyze` — the four deeper passes in [`analyze`]:
//!   atomics discipline, the unsafe ledger, blocking reachability and the
//!   `Send`/`Sync` surface audit over the lock-free runtime.
//!
//! Both are deliberately dependency-free: a hand-rolled token scanner
//! (comments, strings, raw strings and char literals handled) feeds the
//! lint's seven rules:
//!
//! 1. **wallclock** — no `Instant::now()` / `SystemTime` outside
//!    `types::time` and the live-executor allowlist. Everything else must
//!    go through the [`Clock`] abstraction so the simulator stays
//!    deterministic.
//! 2. **panic-site** — no `.unwrap()` / `.expect(…)` in non-test code of
//!    the `core`, `broker` and `index` hot paths. Audited survivors
//!    (provably-unreachable pops guarded by a peek, etc.) carry a per-file
//!    budget in the allowlist; adding a new site fails the build until it
//!    is reviewed.
//! 3. **metric-name** — `"bistream_…"` series-name string literals may
//!    only appear in `types::metric_names`, the single source of truth,
//!    preventing registry/series drift.
//! 4. **doc-comment** — `pub` items in `crates/types` must carry doc
//!    comments (`#![warn(missing_docs)]` is advisory; this is not).
//! 5. **exposition-format** — Prometheus exposition-format literals
//!    (`# TYPE `/`# HELP `) may only appear in `types::telemetry`, the
//!    single exporter, so scrape output never drifts between emitters.
//! 6. **slo-name** — `"slo_…"` / `"alert_…"` identifier literals may only
//!    appear in `types::metric_names`, so SLO objectives and alert names
//!    stay one vocabulary across the engine, the watchdog, the recorder
//!    bundles and the dashboards that consume them.
//! 7. **lock-free** — no `Mutex` / `RwLock` in files tagged
//!    `lockfree <path>` in the allowlist (the sharded-runtime hot paths,
//!    which promise wait-free hand-off): a lock on a worker's frame path
//!    reintroduces exactly the broker contention the backend exists to
//!    remove, so it must happen in the facade or not at all.
//!
//! Test code is exempt everywhere: `tests/` and `examples/` directories
//! and anything at or below a file's first `#[cfg(test)]`.
//!
//! [`Clock`]: https://docs.rs/bistream-types/latest/bistream_types/time/trait.Clock.html

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod analyze;
pub mod scanner;

use scanner::{scan, test_boundary, Token};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Short rule identifier (`wallclock`, `panic-site`, `metric-name`,
    /// `doc-comment`, `exposition-format`, `slo-name`, `lock-free`).
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was found and why it is rejected.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Parsed `xtask.allow`: audited exemptions from the lint rules.
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    /// Files allowed to call `Instant::now()` / `SystemTime` (the live
    /// executors, which genuinely run on wall time).
    pub wallclock: Vec<String>,
    /// Per-file budget of audited `.expect()` / `.unwrap()` sites in the
    /// hot-path crates.
    pub panic_budget: BTreeMap<String, usize>,
    /// Files *tagged* as lock-free hot paths (the sharded runtime): the
    /// lint forbids `Mutex`/`RwLock` in them and `analyze` runs its
    /// atomics-discipline and blocking-reachability passes over them.
    /// Unlike the other entries this tag opts a file *into* rules rather
    /// than out of them.
    pub lockfree: Vec<String>,
    /// Lock-free files allowed to use `Ordering::SeqCst`. Empty in the
    /// shipped tree; the entry kind exists so an audited exception is a
    /// one-line review rather than a rule change.
    pub seqcst: Vec<String>,
    /// `(file, fn)` pairs allowed to call `thread::park` /
    /// `park_timeout`: the adaptive backoff helpers of the lock-free
    /// rings, and nothing else.
    pub parkok: Vec<(String, String)>,
}

impl Allowlist {
    /// Parse the allowlist format: one entry per line,
    /// `wallclock <path>`, `panic <path> <count>`, `lockfree <path>`,
    /// `seqcst <path>` or `parkok <path> <fn>`; `#` comments.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut out = Allowlist::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let (rule, path) = (words.next(), words.next());
            match (rule, path) {
                (Some("wallclock"), Some(p)) => out.wallclock.push(p.to_string()),
                (Some("lockfree"), Some(p)) => out.lockfree.push(p.to_string()),
                (Some("seqcst"), Some(p)) => out.seqcst.push(p.to_string()),
                (Some("parkok"), Some(p)) => {
                    let func = words
                        .next()
                        .ok_or_else(|| format!("line {}: parkok entry needs a fn name", i + 1))?;
                    out.parkok.push((p.to_string(), func.to_string()));
                }
                (Some("panic"), Some(p)) => {
                    let budget: usize = words
                        .next()
                        .ok_or_else(|| format!("line {}: panic entry needs a count", i + 1))?
                        .parse()
                        .map_err(|e| format!("line {}: bad count: {e}", i + 1))?;
                    out.panic_budget.insert(p.to_string(), budget);
                }
                _ => return Err(format!("line {}: unrecognised allowlist entry: {raw}", i + 1)),
            }
        }
        Ok(out)
    }
}

/// Scope in which a file's findings should be evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleScope {
    /// File is inside `crates/types/src`.
    pub in_types: bool,
    /// File is inside a hot-path crate (`core`, `broker`, `index`).
    pub in_hot_path: bool,
    /// File is `crates/types/src/time.rs` (the sanctioned clock home).
    pub is_time_module: bool,
    /// File is `crates/types/src/metric_names.rs` (the constants module).
    pub is_metric_names_module: bool,
    /// File is `crates/types/src/telemetry.rs` (the one exposition-format
    /// emitter).
    pub is_telemetry_module: bool,
}

impl RuleScope {
    /// Derive the scope from a workspace-relative path.
    pub fn of(rel_path: &str) -> RuleScope {
        let p = rel_path.replace('\\', "/");
        RuleScope {
            in_types: p.starts_with("crates/types/src/"),
            in_hot_path: p.starts_with("crates/core/src/")
                || p.starts_with("crates/broker/src/")
                || p.starts_with("crates/index/src/"),
            is_time_module: p == "crates/types/src/time.rs",
            is_metric_names_module: p == "crates/types/src/metric_names.rs",
            is_telemetry_module: p == "crates/types/src/telemetry.rs",
        }
    }
}

/// Run every token-based rule over one file's source.
pub fn lint_source(rel_path: &str, src: &str, allow: &Allowlist) -> Vec<Finding> {
    let scope = RuleScope::of(rel_path);
    let tokens = scan(src).tokens;
    let boundary = test_boundary(&tokens).unwrap_or(usize::MAX);
    let prod = |line: usize| line < boundary;
    let mut findings = Vec::new();

    // Rule 1: wallclock.
    if !scope.is_time_module && !allow.wallclock.iter().any(|p| p == rel_path) {
        for (idx, s) in tokens.iter().enumerate() {
            if !prod(s.line) {
                continue;
            }
            let Token::Ident(name) = &s.tok else { continue };
            if name == "SystemTime" {
                findings.push(Finding {
                    rule: "wallclock",
                    file: rel_path.to_string(),
                    line: s.line,
                    message: "SystemTime is forbidden outside types::time; take a Clock"
                        .to_string(),
                });
            }
            if name == "Instant" {
                // Instant :: now
                let next: Vec<&Token> = tokens[idx + 1..].iter().take(3).map(|s| &s.tok).collect();
                if matches!(
                    next.as_slice(),
                    [Token::Ch(':'), Token::Ch(':'), Token::Ident(m)] if m == "now"
                ) {
                    findings.push(Finding {
                        rule: "wallclock",
                        file: rel_path.to_string(),
                        line: s.line,
                        message: "Instant::now() is forbidden outside types::time and the \
                                  live-exec allowlist; take a Clock"
                            .to_string(),
                    });
                }
            }
        }
    }

    // Rule 2: panic sites in hot-path crates.
    if scope.in_hot_path {
        let mut sites = Vec::new();
        for (idx, s) in tokens.iter().enumerate() {
            if !prod(s.line) {
                continue;
            }
            let Token::Ident(name) = &s.tok else { continue };
            if name != "unwrap" && name != "expect" {
                continue;
            }
            let preceded_by_dot = idx > 0 && matches!(tokens[idx - 1].tok, Token::Ch('.'));
            let followed_by_call =
                matches!(tokens.get(idx + 1).map(|s| &s.tok), Some(Token::Ch('(')));
            if preceded_by_dot && followed_by_call {
                sites.push((s.line, name.clone()));
            }
        }
        let budget = allow.panic_budget.get(rel_path).copied().unwrap_or(0);
        let count = sites.len();
        if count > budget {
            for (line, name) in sites {
                findings.push(Finding {
                    rule: "panic-site",
                    file: rel_path.to_string(),
                    line,
                    message: format!(
                        ".{name}() in hot-path code ({count} sites, allowlist budget {budget}); \
                         return a typed error or audit the site into xtask.allow"
                    ),
                });
            }
        }
    }

    // Rule 3: metric-name literals.
    if !scope.is_metric_names_module {
        for s in &tokens {
            if !prod(s.line) {
                continue;
            }
            if let Token::Str(lit) = &s.tok {
                if lit.starts_with("bistream_") {
                    findings.push(Finding {
                        rule: "metric-name",
                        file: rel_path.to_string(),
                        line: s.line,
                        message: format!(
                            "metric name literal {lit:?}; use the constant from \
                             types::metric_names"
                        ),
                    });
                }
            }
        }
    }

    // Rule 4: doc comments on pub items in types.
    if scope.in_types {
        findings.extend(lint_pub_docs(rel_path, src, boundary));
    }

    // Rule 5: exposition-format literals outside the exporter.
    if !scope.is_telemetry_module {
        for s in &tokens {
            if !prod(s.line) {
                continue;
            }
            if let Token::Str(lit) = &s.tok {
                if lit.contains("# TYPE ") || lit.contains("# HELP ") {
                    findings.push(Finding {
                        rule: "exposition-format",
                        file: rel_path.to_string(),
                        line: s.line,
                        message: "Prometheus exposition-format literal; render through \
                                  types::telemetry, the single exporter"
                            .to_string(),
                    });
                }
            }
        }
    }

    // Rule 6: SLO objective / alert name literals outside the vocabulary
    // module.
    if !scope.is_metric_names_module {
        for s in &tokens {
            if !prod(s.line) {
                continue;
            }
            if let Token::Str(lit) = &s.tok {
                if lit.starts_with("slo_") || lit.starts_with("alert_") {
                    findings.push(Finding {
                        rule: "slo-name",
                        file: rel_path.to_string(),
                        line: s.line,
                        message: format!(
                            "SLO/alert name literal {lit:?}; use the constant from \
                             types::metric_names"
                        ),
                    });
                }
            }
        }
    }

    // Rule 7: no blocking locks in files tagged as lock-free hot paths.
    if allow.lockfree.iter().any(|p| p == rel_path) {
        for s in &tokens {
            if !prod(s.line) {
                continue;
            }
            let Token::Ident(name) = &s.tok else { continue };
            if name == "Mutex" || name == "RwLock" {
                findings.push(Finding {
                    rule: "lock-free",
                    file: rel_path.to_string(),
                    line: s.line,
                    message: format!(
                        "{name} in a lockfree-tagged file; the sharded-runtime hot paths \
                         must stay lock-free (atomics and rings only)"
                    ),
                });
            }
        }
    }

    findings
}

/// Item keywords that demand a doc comment when `pub`.
const PUB_ITEM_KEYWORDS: [&str; 9] =
    ["fn", "struct", "enum", "trait", "const", "static", "type", "mod", "union"];

/// Line-based check: every `pub` item (and struct field) in a types file
/// must be preceded by a `///` doc comment, attributes permitting.
fn lint_pub_docs(rel_path: &str, src: &str, boundary: usize) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut has_doc = false;
    let mut in_attr = false;
    for (i, raw) in src.lines().enumerate() {
        let lineno = i + 1;
        if lineno >= boundary {
            break;
        }
        let line = raw.trim();
        if in_attr {
            if line.ends_with(']') {
                in_attr = false;
            }
            continue;
        }
        if line.starts_with("///") {
            has_doc = true;
            continue;
        }
        if line.starts_with("#[") {
            if !line.ends_with(']') {
                in_attr = true;
            }
            continue; // attributes sit between doc and item
        }
        if line.starts_with("//") || line.is_empty() {
            continue; // plain comments / blanks don't break the doc link
        }
        let undocumented_pub = line.strip_prefix("pub ").and_then(|rest| {
            let first = rest.split(|c: char| !c.is_alphanumeric() && c != '_').next()?;
            if PUB_ITEM_KEYWORDS.contains(&first)
                || (first == "unsafe" || first == "async")
                || is_field_decl(rest)
            {
                Some(first.to_string())
            } else {
                None
            }
        });
        if let Some(item) = undocumented_pub {
            if !has_doc {
                findings.push(Finding {
                    rule: "doc-comment",
                    file: rel_path.to_string(),
                    line: lineno,
                    message: format!("undocumented pub {item} in types; add a /// doc comment"),
                });
            }
        }
        has_doc = false;
    }
    findings
}

/// `name: Type,`-shaped remainder ⇒ a pub struct field.
fn is_field_decl(rest: &str) -> bool {
    let Some(colon) = rest.find(':') else { return false };
    if rest[colon..].starts_with("::") {
        return false;
    }
    let name = rest[..colon].trim();
    !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_')
}

/// Recursively collect the workspace's production `.rs` files: everything
/// under `crates/*/src` and the facade's `src/`, excluding `tests/`,
/// `examples/` and the xtask crate itself.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut roots = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            if entry.file_name() == "xtask" {
                continue;
            }
            roots.push(entry.path().join("src"));
        }
    }
    for dir in roots {
        collect_rs(&dir, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)?.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "tests" && name != "examples" {
                collect_rs(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root`, loading `xtask.allow` from
/// the root if present.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let allow = match std::fs::read_to_string(root.join("xtask.allow")) {
        Ok(text) => Allowlist::parse(&text)?,
        Err(_) => Allowlist::default(),
    };
    let mut findings = Vec::new();
    for path in workspace_sources(root).map_err(|e| e.to_string())? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{rel}: {e}"))?;
        findings.extend(lint_source(&rel, &src, &allow));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        lint_source(path, src, &Allowlist::default())
    }

    #[test]
    fn scanner_skips_comments_and_strings() {
        let src = r#"
            // Instant::now() in a comment
            /* SystemTime in /* a nested */ block */
            fn f() { let s = "Instant::now()"; }
        "#;
        assert!(lint("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn wallclock_rule_fires_on_instant_now() {
        let findings = lint("crates/core/src/x.rs", "fn f() { let t = Instant::now(); }");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "wallclock");
    }

    #[test]
    fn wallclock_rule_fires_on_system_time() {
        let findings = lint("crates/bench/src/x.rs", "use std::time::SystemTime;\nfn f() {}\n");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn wallclock_rule_spares_time_module_and_allowlist() {
        let src = "fn f() { Instant::now(); }";
        assert!(lint("crates/types/src/time.rs", src).is_empty());
        let mut allow = Allowlist::default();
        allow.wallclock.push("crates/core/src/exec.rs".into());
        assert!(lint_source("crates/core/src/exec.rs", src, &allow).is_empty());
    }

    #[test]
    fn wallclock_rule_spares_instant_without_now() {
        assert!(
            lint("crates/core/src/x.rs", "fn f(epoch: Instant) { epoch.elapsed(); }").is_empty()
        );
    }

    #[test]
    fn panic_rule_fires_in_hot_paths_only() {
        let src = "fn f(x: Option<u32>) { x.unwrap(); }";
        assert_eq!(lint("crates/core/src/x.rs", src).len(), 1);
        assert_eq!(lint("crates/broker/src/x.rs", src).len(), 1);
        assert_eq!(lint("crates/index/src/x.rs", src).len(), 1);
        assert!(lint("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_rule_respects_budget() {
        let src = "fn f(x: Option<u32>) { x.expect(\"invariant\"); }";
        let mut allow = Allowlist::default();
        allow.panic_budget.insert("crates/core/src/x.rs".into(), 1);
        assert!(lint_source("crates/core/src/x.rs", src, &allow).is_empty());
        let two = "fn f(x: Option<u32>) { x.expect(\"a\"); x.expect(\"b\"); }";
        assert_eq!(lint_source("crates/core/src/x.rs", two, &allow).len(), 2);
    }

    #[test]
    fn panic_rule_ignores_non_method_idents() {
        // `unwrap` as a free function or path segment is not the lint's
        // target; only `.unwrap()` method calls are.
        assert!(lint("crates/core/src/x.rs", "fn unwrap() {} fn g() { unwrap(); }").is_empty());
    }

    #[test]
    fn test_code_is_exempt_from_every_rule() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n  fn g(x: Option<u32>) { x.unwrap(); \
                   Instant::now(); let n = \"bistream_foo\"; }\n}\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn metric_rule_fires_outside_constants_module() {
        let src = "fn f() { reg.counter(\"bistream_router_tuples_total\", &[]); }";
        let findings = lint("crates/core/src/router.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "metric-name");
        assert!(lint("crates/types/src/metric_names.rs", src).is_empty());
    }

    #[test]
    fn exposition_rule_fires_outside_the_exporter() {
        let src = "fn f(out: &mut String) { out.push_str(\"# TYPE x counter\\n\"); }";
        let findings = lint("crates/core/src/stats.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "exposition-format");
        assert!(lint("crates/types/src/telemetry.rs", src).is_empty());
        // HELP headers are covered too; unrelated `#` strings are not.
        assert_eq!(lint("crates/bench/src/x.rs", "fn f() { let h = \"# HELP x y\"; }").len(), 1);
        assert!(lint("crates/bench/src/x.rs", "fn f() { let h = \"# heading\"; }").is_empty());
    }

    #[test]
    fn slo_name_rule_fires_outside_constants_module() {
        let src = "fn f() { let a = \"alert_slo_burn\"; let o = \"slo_p99_latency_ms\"; }";
        let findings = lint("crates/core/src/exec.rs", src);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.rule == "slo-name"));
        assert!(lint("crates/types/src/metric_names.rs", src).is_empty());
        // Test code and unrelated literals stay exempt.
        let test_src = "fn f() {}\n#[cfg(test)]\nmod t { fn g() { let a = \"alert_x\"; } }\n";
        assert!(lint("crates/core/src/exec.rs", test_src).is_empty());
        assert!(lint("crates/core/src/exec.rs", "fn f() { let s = \"slowly\"; }").is_empty());
    }

    #[test]
    fn doc_rule_fires_on_undocumented_pub_items() {
        let src = "pub fn f() {}\n";
        let findings = lint("crates/types/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "doc-comment");
        // Same item outside types: fine.
        assert!(lint("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn doc_rule_accepts_docs_through_attributes() {
        let src = "/// Documented.\n#[derive(Debug)]\npub struct S {\n    /// Field doc.\n    \
                   pub ts: u64,\n}\n";
        assert!(lint("crates/types/src/x.rs", src).is_empty());
    }

    #[test]
    fn doc_rule_flags_undocumented_pub_field() {
        let src = "/// Documented.\npub struct S {\n    pub ts: u64,\n}\n";
        let findings = lint("crates/types/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn doc_rule_ignores_pub_use_and_pub_crate() {
        let src = "pub use foo::Bar;\npub(crate) fn f() {}\n";
        assert!(lint("crates/types/src/x.rs", src).is_empty());
    }

    #[test]
    fn raw_strings_are_scanned_as_literals() {
        let src = "fn f() { let s = r#\"bistream_raw\"#; }";
        assert_eq!(lint("crates/core/src/x.rs", src).len(), 1);
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_derail_the_scanner() {
        let src = "fn f<'a>(c: char) -> bool { c == '\"' || c == '\\'' }\nfn g() { \
                   Instant::now(); }";
        assert_eq!(lint("crates/core/src/x.rs", src).len(), 1);
    }

    #[test]
    fn allowlist_parses_and_rejects_garbage() {
        let allow = Allowlist::parse(
            "# comment\nwallclock crates/core/src/exec.rs\npanic crates/core/src/ordering.rs 1\n\
             lockfree crates/core/src/sharded/spsc.rs\n",
        )
        .expect("valid");
        assert_eq!(allow.wallclock, vec!["crates/core/src/exec.rs".to_string()]);
        assert_eq!(allow.panic_budget.get("crates/core/src/ordering.rs"), Some(&1));
        assert_eq!(allow.lockfree, vec!["crates/core/src/sharded/spsc.rs".to_string()]);
        assert!(Allowlist::parse("bogus entry here\n").is_err());
        assert!(Allowlist::parse("panic crates/core/src/x.rs\n").is_err(), "missing count");
    }

    #[test]
    fn allowlist_parses_analyze_entry_kinds() {
        let allow = Allowlist::parse(
            "seqcst crates/core/src/sharded/audited.rs\n\
             parkok crates/core/src/sharded/spsc.rs backoff\n",
        )
        .expect("valid");
        assert_eq!(allow.seqcst, vec!["crates/core/src/sharded/audited.rs".to_string()]);
        assert_eq!(
            allow.parkok,
            vec![("crates/core/src/sharded/spsc.rs".to_string(), "backoff".to_string())]
        );
        assert!(Allowlist::parse("parkok crates/core/src/x.rs\n").is_err(), "missing fn");
    }

    #[test]
    fn lockfree_rule_fires_only_in_tagged_files() {
        let src = "use parking_lot::Mutex;\nfn f(l: &RwLock<u32>) { let _m: Mutex<()>; }\n";
        let mut allow = Allowlist::default();
        allow.lockfree.push("crates/core/src/sharded/ring.rs".into());
        let findings = lint_source("crates/core/src/sharded/ring.rs", src, &allow);
        assert_eq!(findings.len(), 3, "every Mutex/RwLock mention: {findings:?}");
        assert!(findings.iter().all(|f| f.rule == "lock-free"));
        // The same source in an untagged file is out of the rule's scope.
        assert!(lint_source("crates/core/src/exec.rs", src, &allow).is_empty());
    }

    #[test]
    fn lockfree_rule_exempts_test_code_and_comments() {
        let src = "fn f() {} // a Mutex in a comment is fine\n#[cfg(test)]\nmod t {\n    \
                   use std::sync::Mutex;\n}\n";
        let mut allow = Allowlist::default();
        allow.lockfree.push("crates/core/src/sharded/spsc.rs".into());
        assert!(lint_source("crates/core/src/sharded/spsc.rs", src, &allow).is_empty());
    }

    #[test]
    fn lockfree_rule_matches_code_tokens_only() {
        // Regression guard for the rule-7 contract: `Mutex`/`RwLock` in
        // doc comments, block comments, string literals, or as a strict
        // substring of a longer identifier must never fire; the same
        // identifier as a code token must.
        let mut allow = Allowlist::default();
        allow.lockfree.push("crates/core/src/sharded/spsc.rs".into());
        let clean = "//! No RwLock here, the ring replaces it.\n\
                     /// A Mutex would serialize producers.\n\
                     /* Mutex in a block comment */\n\
                     fn f() { let s = \"Mutex\"; let r = r#\"RwLock\"#; }\n\
                     struct MutexGuardLike;\n\
                     fn g(_x: MutexGuardLike) {}\n";
        assert!(
            lint_source("crates/core/src/sharded/spsc.rs", clean, &allow).is_empty(),
            "comments / strings / superstring idents must not fire"
        );
        let dirty = "/// A Mutex in a doc comment.\nfn f(m: &Mutex<u32>) {}\n";
        let findings = lint_source("crates/core/src/sharded/spsc.rs", dirty, &allow);
        assert_eq!(findings.len(), 1, "the code token alone fires: {findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn scanner_counts_escaped_newlines_in_strings() {
        // A `\` line continuation inside a string literal spans a real
        // source line; the scanner must keep the line counter in step so
        // later findings land on the right line.
        let src = "fn f() { let s = \"a\\\nb\"; }\nfn g() { let t = Instant::now(); }\n";
        let findings = lint("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3, "finding must land on g's line: {findings:?}");
    }
}
