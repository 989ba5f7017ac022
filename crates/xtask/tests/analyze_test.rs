//! Analyze self-test: seed one violation of each pass into a scratch
//! workspace and prove `cargo xtask analyze` rejects it, then prove the
//! real shipped tree (and its committed ledger) is clean. Mirrors the
//! lint self-test so every gate that blocks CI also proves, in-repo, that
//! it actually catches what it claims to catch.

use std::fs;
use std::path::{Path, PathBuf};
use xtask::analyze::analyze_workspace;
use xtask::Finding;

/// A scratch directory under the target dir (kept inside the repo).
fn scratch(name: &str) -> PathBuf {
    let base = option_env!("CARGO_TARGET_TMPDIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("target").join("xtask-analyze-selftest"));
    let dir = base.join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap().to_path_buf()
}

fn write(root: &Path, rel: &str, content: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).expect("mkdir");
    fs::write(path, content).expect("write fixture");
}

fn analyze(root: &Path) -> Vec<Finding> {
    analyze_workspace(root, false).expect("analyze runs")
}

fn rules_hit(root: &Path) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = analyze(root).into_iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

/// Tag one scratch file as a lock-free hot path.
fn tag_lockfree(root: &Path, rel: &str) {
    write(root, "xtask.allow", &format!("lockfree {rel}\n"));
}

// ---- pass 1: atomics discipline -----------------------------------------

#[test]
fn seeded_implicit_ordering_is_rejected() {
    let root = scratch("implicit-ordering");
    tag_lockfree(&root, "crates/core/src/lf.rs");
    write(
        &root,
        "crates/core/src/lf.rs",
        "// protocol: field head relaxed-load / release-store\n\
         struct R { head: std::sync::atomic::AtomicUsize }\n\
         impl R {\n\
             fn f(&self, o: std::sync::atomic::Ordering) -> usize { self.head.load(o) }\n\
         }\n",
    );
    assert_eq!(rules_hit(&root), vec!["atomics-ordering"]);
}

#[test]
fn seeded_seqcst_is_rejected_unless_allowlisted() {
    let src = "// protocol: field head seqcst-load / release-store\n\
               struct R { head: std::sync::atomic::AtomicUsize }\n\
               impl R {\n\
                   fn f(&self) -> usize { self.head.load(std::sync::atomic::Ordering::SeqCst) }\n\
               }\n";
    let root = scratch("seqcst");
    tag_lockfree(&root, "crates/core/src/lf.rs");
    write(&root, "crates/core/src/lf.rs", src);
    assert_eq!(rules_hit(&root), vec!["atomics-seqcst"]);
    // The same file with a `seqcst` audit entry is clean.
    write(&root, "xtask.allow", "lockfree crates/core/src/lf.rs\nseqcst crates/core/src/lf.rs\n");
    assert_eq!(rules_hit(&root), Vec::<&str>::new());
}

#[test]
fn seeded_protocol_mismatch_is_rejected() {
    let root = scratch("protocol-mismatch");
    tag_lockfree(&root, "crates/core/src/lf.rs");
    write(
        &root,
        "crates/core/src/lf.rs",
        "// protocol: field head relaxed-load / release-store\n\
         struct R { head: std::sync::atomic::AtomicUsize }\n\
         impl R {\n\
             fn f(&self) -> usize { self.head.load(std::sync::atomic::Ordering::Acquire) }\n\
         }\n",
    );
    let findings = analyze(&root);
    assert_eq!(rules_hit(&root), vec!["atomics-protocol"]);
    assert!(
        findings[0].message.contains("allows only {Relaxed}"),
        "diagnostic names the declared set: {findings:?}"
    );
}

#[test]
fn atomic_field_without_protocol_header_is_rejected() {
    let root = scratch("no-protocol-header");
    tag_lockfree(&root, "crates/core/src/lf.rs");
    write(
        &root,
        "crates/core/src/lf.rs",
        "struct R { head: std::sync::atomic::AtomicUsize }\n\
         impl R {\n\
             fn f(&self) -> usize { self.head.load(std::sync::atomic::Ordering::Acquire) }\n\
         }\n",
    );
    assert_eq!(rules_hit(&root), vec!["atomics-protocol"]);
}

#[test]
fn clean_lockfree_fixture_passes_all_passes() {
    let root = scratch("clean-lockfree");
    tag_lockfree(&root, "crates/core/src/lf.rs");
    write(
        &root,
        "crates/core/src/lf.rs",
        "// protocol: field head relaxed-load / acquire-load / release-store\n\
         struct R { head: std::sync::atomic::AtomicUsize }\n\
         impl R {\n\
             fn push(&self) -> usize {\n\
                 let h = self.head.load(std::sync::atomic::Ordering::Acquire);\n\
                 self.head.store(h + 1, std::sync::atomic::Ordering::Release);\n\
                 h\n\
             }\n\
         }\n",
    );
    assert_eq!(rules_hit(&root), Vec::<&str>::new());
}

// ---- pass 2: unsafe ledger ----------------------------------------------

#[test]
fn seeded_missing_safety_comment_is_rejected() {
    let root = scratch("missing-safety");
    write(
        &root,
        "crates/core/src/lib.rs",
        "fn f() -> u8 { let p = 1u8; unsafe { std::ptr::read(&p) } }\n",
    );
    let rules = rules_hit(&root);
    assert!(rules.contains(&"unsafe-safety"), "missing SAFETY must fire: {rules:?}");
}

#[test]
fn unledgered_unsafe_fails_until_consciously_updated() {
    let root = scratch("ledger-flow");
    write(
        &root,
        "crates/core/src/lib.rs",
        "fn f() -> u8 {\n\
             let p = 1u8;\n\
             // SAFETY: p lives on this frame for the whole read.\n\
             unsafe { std::ptr::read(&p) }\n\
         }\n",
    );
    // No committed ledger: the site is justified but unledgered.
    assert_eq!(rules_hit(&root), vec!["unsafe-ledger"]);
    // A conscious regeneration writes the ledger and the tree is clean.
    assert!(analyze_workspace(&root, true).expect("update runs").is_empty());
    assert_eq!(rules_hit(&root), Vec::<&str>::new());
    // Byte stability: regenerating an unchanged tree is a no-op.
    let first = fs::read(root.join("UNSAFE_LEDGER.json")).expect("ledger written");
    analyze_workspace(&root, true).expect("update runs");
    let second = fs::read(root.join("UNSAFE_LEDGER.json")).expect("ledger rewritten");
    assert_eq!(first, second, "ledger rendering must be byte-stable");
}

#[test]
fn ledger_detects_justification_drift_and_stale_entries() {
    let root = scratch("ledger-drift");
    let file = "crates/core/src/lib.rs";
    write(
        &root,
        file,
        "fn f() -> u8 {\n\
             let p = 1u8;\n\
             // SAFETY: p lives on this frame for the whole read.\n\
             unsafe { std::ptr::read(&p) }\n\
         }\n",
    );
    assert!(analyze_workspace(&root, true).expect("update runs").is_empty());
    // Re-justifying the site (digest change) must fail until re-audited.
    write(
        &root,
        file,
        "fn f() -> u8 {\n\
             let p = 1u8;\n\
             // SAFETY: entirely different claim.\n\
             unsafe { std::ptr::read(&p) }\n\
         }\n",
    );
    let findings = analyze(&root);
    assert_eq!(rules_hit(&root), vec!["unsafe-ledger"]);
    assert!(findings[0].message.contains("drifted"), "{findings:?}");
    // Removing the unsafe entirely leaves a stale ledger entry behind.
    write(&root, file, "fn f() -> u8 { 1 }\n");
    let findings = analyze(&root);
    assert_eq!(rules_hit(&root), vec!["unsafe-ledger"]);
    assert!(findings[0].message.contains("stale"), "{findings:?}");
}

// ---- pass 4: Send/Sync surface audit ------------------------------------

#[test]
fn seeded_unledgered_unsafe_impl_send_is_rejected() {
    let root = scratch("send-audit");
    write(
        &root,
        "crates/core/src/lib.rs",
        "struct B(*mut u8);\n\
         // SAFETY: the owner hands the pointer across threads exactly once.\n\
         unsafe impl Send for B {}\n",
    );
    let rules = rules_hit(&root);
    assert!(rules.contains(&"send-sync-ledger"), "unledgered impl Send must fire: {rules:?}");
    // Ledgered (invariant + entry): the audit is satisfied.
    assert!(analyze_workspace(&root, true).expect("update runs").is_empty());
    assert_eq!(rules_hit(&root), Vec::<&str>::new());
}

#[test]
fn unsafe_impl_send_without_invariant_stays_rejected_even_if_ledgered() {
    let root = scratch("send-no-invariant");
    write(&root, "crates/core/src/lib.rs", "struct B(*mut u8);\nunsafe impl Send for B {}\n");
    // `--update-ledger` writes the entry, but the missing SAFETY invariant
    // still fails both the ledger pass and the Send/Sync audit.
    let findings = analyze_workspace(&root, true).expect("update runs");
    let mut rules: Vec<&'static str> = findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    assert_eq!(rules, vec!["send-sync-ledger", "unsafe-safety"]);
}

// ---- pass 3: blocking reachability --------------------------------------

#[test]
fn seeded_blocking_call_reachable_from_entry_is_rejected() {
    let root = scratch("blocking-reach");
    tag_lockfree(&root, "crates/core/src/lf.rs");
    write(
        &root,
        "crates/core/src/lf.rs",
        "pub fn ingest() { step(); }\n\
         fn step() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n",
    );
    let findings = analyze(&root);
    assert_eq!(rules_hit(&root), vec!["blocking-reachability"]);
    assert!(
        findings[0].message.contains("ingest → step → sleep"),
        "finding carries the call chain: {findings:?}"
    );
}

#[test]
fn blocking_call_behind_a_helper_in_another_crate_is_rejected() {
    let root = scratch("blocking-cross-crate");
    tag_lockfree(&root, "crates/core/src/lf.rs");
    write(&root, "crates/core/src/lf.rs", "pub fn ingest() { forward(); }\n");
    write(
        &root,
        "crates/broker/src/lib.rs",
        "pub fn forward() { wait_for_space(); }\n\
         fn wait_for_space() { let (_, cv) = &pair(); cv.wait_timeout(); }\n\
         fn pair() -> ((), u8) { ((), 0) }\n",
    );
    let findings = analyze(&root);
    assert_eq!(rules_hit(&root), vec!["blocking-reachability"]);
    assert!(
        findings[0].message.contains("ingest → forward → wait_for_space → wait_timeout"),
        "chain crosses the crate boundary: {findings:?}"
    );
}

#[test]
fn park_is_allowed_only_in_the_parkok_backoff_helper() {
    let src = "pub fn spin() { idle(); }\n\
               fn idle() { std::thread::park_timeout(std::time::Duration::from_micros(100)); }\n";
    let root = scratch("parkok");
    tag_lockfree(&root, "crates/core/src/lf.rs");
    write(&root, "crates/core/src/lf.rs", src);
    assert_eq!(rules_hit(&root), vec!["blocking-reachability"]);
    // The same park, allowlisted as the audited backoff helper: clean.
    write(
        &root,
        "xtask.allow",
        "lockfree crates/core/src/lf.rs\nparkok crates/core/src/lf.rs idle\n",
    );
    assert_eq!(rules_hit(&root), Vec::<&str>::new());
    // The allowlist names the helper, not the file: a park elsewhere in
    // the same file still fires.
    write(
        &root,
        "crates/core/src/lf.rs",
        "pub fn spin() { std::thread::park(); }\n\
         fn idle() { std::thread::park_timeout(std::time::Duration::from_micros(100)); }\n",
    );
    assert_eq!(rules_hit(&root), vec!["blocking-reachability"]);
}

#[test]
fn blocking_name_binding_to_a_lockfree_impl_is_traversed_not_flagged() {
    // `push_blocking` is a blacklisted *name*, but when every definition
    // it can resolve to lives in a lockfree-tagged file (the ring's own
    // spin-and-park implementation), the pass walks into it instead of
    // flagging the call site.
    let root = scratch("lockfree-binding");
    tag_lockfree(&root, "crates/core/src/lf.rs");
    write(
        &root,
        "crates/core/src/lf.rs",
        "pub fn ingest(r: &Ring) { r.push_blocking(); }\n\
         pub struct Ring;\n\
         impl Ring { pub fn push_blocking(&self) {} }\n",
    );
    assert_eq!(rules_hit(&root), Vec::<&str>::new());
    // The same call with the definition in an *untagged* broker file is a
    // finding: that one is the condvar implementation.
    let root = scratch("broker-binding");
    tag_lockfree(&root, "crates/core/src/lf.rs");
    write(&root, "crates/core/src/lf.rs", "pub fn ingest() { push_blocking(); }\n");
    write(&root, "crates/broker/src/lib.rs", "pub fn push_blocking() {}\n");
    assert_eq!(rules_hit(&root), vec!["blocking-reachability"]);
}

#[test]
fn protocol_checks_bind_through_tuple_index_hops() {
    // A cache-padded field is accessed as `head.0.load(…)`; the protocol
    // check must still bind the call site to `head`.
    let root = scratch("tuple-hop");
    tag_lockfree(&root, "crates/core/src/lf.rs");
    write(
        &root,
        "crates/core/src/lf.rs",
        "// protocol: field head relaxed-load / release-store\n\
         pub struct Pad<T>(pub T);\n\
         struct R { head: Pad<std::sync::atomic::AtomicUsize> }\n\
         impl R {\n\
             fn f(&self) -> usize { self.head.0.load(std::sync::atomic::Ordering::Acquire) }\n\
         }\n",
    );
    let found = analyze(&root);
    assert_eq!(rules_hit(&root), vec!["atomics-protocol"]);
    assert!(found.iter().any(|f| f.message.contains("allows only {Relaxed}")), "{found:?}");
}

#[test]
fn method_calls_resolve_through_the_receivers_declared_type() {
    // `self.joiner.flush()` must bind to the declared field type's impl,
    // not fan out to every workspace `fn flush` by bare-name collision.
    let root = scratch("receiver-typed");
    tag_lockfree(&root, "crates/core/src/lf.rs");
    write(
        &root,
        "crates/core/src/lf.rs",
        "pub struct W { joiner: Quiet }\n\
         impl W { pub fn run(&self) { self.joiner.flush(); } }\n\
         pub struct Quiet;\n\
         impl Quiet { pub fn flush(&self) {} }\n",
    );
    write(
        &root,
        "crates/core/src/cascade.rs",
        "pub struct Chatty;\n\
         impl Chatty { pub fn flush(&self) { std::thread::sleep(core::time::Duration::ZERO); } }\n",
    );
    assert_eq!(rules_hit(&root), Vec::<&str>::new());
    // Re-typing the field to the blocking implementation flips the verdict.
    write(
        &root,
        "crates/core/src/lf.rs",
        "pub struct W { joiner: Chatty }\n\
         impl W { pub fn run(&self) { self.joiner.flush(); } }\n",
    );
    assert_eq!(rules_hit(&root), vec!["blocking-reachability"]);
}

// ---- the shipped tree ----------------------------------------------------

/// The shipped tree must analyze clean against its committed ledger — the
/// same assertion `cargo xtask analyze` makes in CI, checked here so plain
/// `cargo test` covers it too.
#[test]
fn shipped_tree_is_clean_under_analyze() {
    let findings = analyze_workspace(&repo_root(), false).expect("analyze runs");
    assert!(
        findings.is_empty(),
        "shipped tree has analyze findings:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}
