//! Blocking reachability over a token-level intra-workspace call graph.
//!
//! The pass extracts every production `fn` definition (name + body token
//! range) and every `name(…)` call inside a body, then walks the graph
//! from the lock-free entry points — all functions defined in
//! `lockfree`-tagged files — proving no path reaches a blocking
//! primitive: condvar waits, `mpsc` receives, `thread::sleep`, the broker
//! queue's `push_blocking`, or thread parking.
//!
//! Call names resolve in tiers — same file, then same crate, then the
//! whole workspace, first non-empty tier wins — which mirrors how method
//! calls actually bind here: `push_blocking` inside the sharded runtime
//! binds to the ring's lock-free implementation, not the broker queue's
//! condvar one. Qualified calls (`Ring::new(…)`) additionally filter by
//! the receiver type of the `impl` block a candidate is defined in, so
//! `Vec::new` or `Arc::clone` never resolve to an unrelated workspace
//! `fn new`. Method calls on a typed binding (`self.joiner.flush(…)`
//! where the file declares `joiner: JoinerCore`) qualify the same way
//! through the receiver's declared type, and `self.method(…)` binds
//! within the caller's own `impl` block; a name whose declarations
//! conflict falls back to bare-name resolution, so imprecision always
//! errs toward more paths, never fewer. A blacklisted name is only traversed (instead of flagged)
//! when *every* definition it can resolve to lives in a lockfree-tagged
//! file; otherwise the pass flags it with the full call chain from the
//! entry point, so a finding reads as an event chain, not a coordinate.
//! `park`/`park_timeout` are permitted only in functions carrying a
//! `parkok <file> <fn>` allowlist entry (the audited backoff helpers —
//! bounded parking is the one sanctioned idle strategy).

use std::collections::{BTreeMap, HashMap, HashSet};

use super::SourceFile;
use crate::scanner::Token;
use crate::{Allowlist, Finding};

/// Names that block the calling thread when they bind to std / broker
/// primitives.
const BLOCKING: [&str; 13] = [
    "sleep",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "wait",
    "wait_for",
    "wait_timeout",
    "wait_while",
    "wait_until",
    "wait_timeout_while",
    "park",
    "park_timeout",
    "push_blocking",
];

/// Keywords that look like calls at the token level but are not.
const NOT_CALLS: [&str; 12] =
    ["if", "while", "match", "for", "loop", "return", "in", "as", "else", "move", "unsafe", "fn"];

/// Method names that are std atomic operations when called with an
/// `Ordering::…` argument. Those call sites belong to the atomics pass,
/// not the call graph — without this, `x.load(Ordering::Relaxed)` would
/// resolve to any workspace `fn load` by bare-name collision.
const ATOMIC_METHODS: [&str; 14] = [
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// One call site: callee name, optional `Type::` qualifier, source line.
#[derive(Clone)]
struct Call {
    name: String,
    qual: Option<String>,
    line: usize,
}

/// One production `fn` definition and the calls inside its body.
struct Def {
    name: String,
    file: usize,
    /// Receiver type of the enclosing `impl` block, if any.
    self_ty: Option<String>,
    calls: Vec<Call>,
}

/// Receiver types of `impl` blocks, by token range.
fn impl_ranges(f: &SourceFile) -> Vec<(std::ops::Range<usize>, String)> {
    let toks = &f.scanned.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !matches!(&toks[i].tok, Token::Ident(kw) if kw == "impl") {
            continue;
        }
        // Skip a generic parameter list directly after `impl`.
        let mut j = i + 1;
        if matches!(toks.get(j).map(|s| &s.tok), Some(Token::Ch('<'))) {
            let mut depth = 0usize;
            while j < toks.len() {
                match &toks[j].tok {
                    Token::Ch('<') => depth += 1,
                    Token::Ch('>') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // `impl Trait for Type` → Type; `impl Type` → the first ident.
        let mut first = None;
        let mut after_for = None;
        let mut body = None;
        while j < toks.len() {
            match &toks[j].tok {
                Token::Ch('{') => {
                    body = Some(j);
                    break;
                }
                Token::Ch(';') => break,
                Token::Ident(id) if id == "for" => after_for = Some(j),
                Token::Ident(id) if first.is_none() => first = Some(id.clone()),
                _ => {}
            }
            j += 1;
        }
        let (Some(open), Some(ty)) = (
            body,
            after_for
                .and_then(|k| {
                    toks[k + 1..].iter().find_map(|s| match &s.tok {
                        Token::Ident(id) => Some(id.clone()),
                        _ => None,
                    })
                })
                .or(first),
        ) else {
            continue;
        };
        let mut depth = 1usize;
        let mut k = open + 1;
        while k < toks.len() && depth > 0 {
            match &toks[k].tok {
                Token::Ch('{') => depth += 1,
                Token::Ch('}') => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        out.push((open..k, ty));
    }
    out
}

/// True when the argument list opening at token `open` mentions an
/// `Ordering` path — the signature of a std atomic operation.
fn has_ordering_arg(toks: &[crate::scanner::Spanned], open: usize) -> bool {
    let mut depth = 0usize;
    for s in toks.iter().skip(open) {
        match &s.tok {
            Token::Ch('(') => depth += 1,
            Token::Ch(')') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            Token::Ident(id) if id == "Ordering" => return true,
            _ => {}
        }
    }
    false
}

/// Declared types of fields and typed bindings in one file: every
/// `name: Type` token pattern whose first type ident is capitalized
/// (struct fields, fn params, typed `let`s; smart pointers resolve to
/// the wrapper — atomics behind an `Arc` are already excluded from the
/// graph). A name declared with two different types maps to `None`, so
/// resolution falls back to bare-name tiers rather than guessing.
fn binding_types(f: &SourceFile) -> HashMap<String, Option<String>> {
    let toks = &f.scanned.tokens;
    let mut out: HashMap<String, Option<String>> = HashMap::new();
    for i in 0..toks.len().saturating_sub(2) {
        let Token::Ident(name) = &toks[i].tok else { continue };
        if !matches!(toks[i + 1].tok, Token::Ch(':')) || matches!(toks[i + 2].tok, Token::Ch(':')) {
            continue; // not `name: …`, or the head of a `name::path`
        }
        if i > 0 && matches!(toks[i - 1].tok, Token::Ch(':')) {
            continue; // the tail of a `path::name` sequence
        }
        let mut ty = None;
        for s in toks[i + 2..].iter().take(10) {
            match &s.tok {
                Token::Ident(id) if matches!(id.as_str(), "mut" | "dyn" | "const") => {}
                Token::Ident(id) => {
                    ty = Some(id.clone());
                    break;
                }
                Token::Ch(',' | ';' | '{' | '}' | '=' | '(' | ')') => break,
                _ => {}
            }
        }
        let Some(ty) = ty else { continue };
        if !ty.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            continue; // lowercase ⇒ a pattern binding or keyword, not a type
        }
        match out.entry(name.clone()) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if e.get().as_deref() != Some(ty.as_str()) {
                    e.insert(None);
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Some(ty));
            }
        }
    }
    out
}

/// Crate key of a workspace-relative path (`crates/<k>/…` → `k`).
fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/").and_then(|r| r.split('/').next()).unwrap_or("root")
}

/// Extract the production fn definitions of one file.
fn defs_of(file_idx: usize, f: &SourceFile) -> Vec<Def> {
    let toks = &f.scanned.tokens;
    let impls = impl_ranges(f);
    let bindings = binding_types(f);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !f.prod(toks[i].line) {
            continue;
        }
        if !matches!(&toks[i].tok, Token::Ident(kw) if kw == "fn") {
            continue;
        }
        let Some(Token::Ident(name)) = toks.get(i + 1).map(|s| &s.tok) else { continue };
        // Find the body: the first `{` after the signature; a `;` first
        // means a bodyless trait-method declaration.
        let mut j = i + 2;
        let mut body_start = None;
        while j < toks.len() {
            match &toks[j].tok {
                Token::Ch('{') => {
                    body_start = Some(j + 1);
                    break;
                }
                Token::Ch(';') => break,
                _ => j += 1,
            }
        }
        let Some(start) = body_start else { continue };
        let mut depth = 1usize;
        let mut k = start;
        while k < toks.len() && depth > 0 {
            match &toks[k].tok {
                Token::Ch('{') => depth += 1,
                Token::Ch('}') => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        let mut calls = Vec::new();
        for c in start..k.saturating_sub(1) {
            let Token::Ident(callee) = &toks[c].tok else { continue };
            if NOT_CALLS.contains(&callee.as_str()) {
                continue;
            }
            if !matches!(toks.get(c + 1).map(|s| &s.tok), Some(Token::Ch('('))) {
                continue;
            }
            if c > 0 && matches!(&toks[c - 1].tok, Token::Ident(kw) if kw == "fn") {
                continue; // a nested definition, not a call
            }
            if ATOMIC_METHODS.contains(&callee.as_str()) && has_ordering_arg(toks, c + 1) {
                continue; // a std atomic op, owned by the atomics pass
            }
            // `Qual :: callee (` — remember the path qualifier.
            // `recv . callee (` — qualify by the receiver's declared
            // type; `self . callee (` binds within the caller's impl.
            let qual = if c >= 3
                && matches!(toks[c - 1].tok, Token::Ch(':'))
                && matches!(toks[c - 2].tok, Token::Ch(':'))
            {
                match &toks[c - 3].tok {
                    Token::Ident(q) => Some(q.clone()),
                    _ => None,
                }
            } else if c >= 2 && matches!(toks[c - 1].tok, Token::Ch('.')) {
                match &toks[c - 2].tok {
                    Token::Ident(recv) if recv == "self" => Some("Self".to_string()),
                    Token::Ident(recv) => bindings.get(recv.as_str()).cloned().flatten(),
                    _ => None,
                }
            } else {
                None
            };
            calls.push(Call { name: callee.clone(), qual, line: toks[c].line });
        }
        let self_ty = impls
            .iter()
            .filter(|(r, _)| r.contains(&i))
            .min_by_key(|(r, _)| r.end - r.start)
            .map(|(_, ty)| ty.clone());
        out.push(Def { name: name.clone(), file: file_idx, self_ty, calls });
    }
    out
}

/// Walk state shared by the DFS.
struct Walk<'a> {
    files: &'a [SourceFile],
    defs: &'a [Def],
    by_name: HashMap<&'a str, Vec<usize>>,
    lockfree: Vec<bool>,
    parkok: &'a [(String, String)],
    visited: HashSet<usize>,
    findings: BTreeMap<(String, usize, String), Finding>,
}

impl Walk<'_> {
    /// Tiered resolution: same file, then same crate, then workspace. A
    /// `Qual::name` call only binds to defs whose `impl` receiver is
    /// `Qual` (with `Self::` resolved against the caller's impl block);
    /// a qualifier matching no workspace impl is an external path.
    fn resolve(&self, call: &Call, caller: usize) -> Vec<usize> {
        let Some(all) = self.by_name.get(call.name.as_str()) else { return Vec::new() };
        let from_file = self.defs[caller].file;
        let qual = match call.qual.as_deref() {
            Some("Self") => self.defs[caller].self_ty.as_deref(),
            other => other,
        };
        let candidates: Vec<usize> = match qual {
            Some(q) => all
                .iter()
                .copied()
                .filter(|&d| self.defs[d].self_ty.as_deref() == Some(q))
                .collect(),
            None => all.clone(),
        };
        let same_file: Vec<usize> =
            candidates.iter().copied().filter(|&d| self.defs[d].file == from_file).collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let from_crate = crate_of(&self.files[from_file].rel);
        let same_crate: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&d| crate_of(&self.files[self.defs[d].file].rel) == from_crate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        candidates
    }

    fn dfs(&mut self, d: usize, path: &mut Vec<usize>) {
        if !self.visited.insert(d) {
            return;
        }
        path.push(d);
        let calls = self.defs[d].calls.clone();
        for call in &calls {
            let (name, line) = (call.name.clone(), call.line);
            let resolved = self.resolve(call, d);
            if BLOCKING.contains(&name.as_str()) {
                let all_lockfree = !resolved.is_empty()
                    && resolved.iter().all(|&r| self.lockfree[self.defs[r].file]);
                if all_lockfree {
                    // Binds to a lock-free implementation (e.g. the ring's
                    // own `push_blocking`): keep walking into it instead.
                    for r in resolved {
                        self.dfs(r, path);
                    }
                    continue;
                }
                let caller_file = self.files[self.defs[d].file].rel.clone();
                let caller_name = self.defs[d].name.clone();
                let park = name == "park" || name == "park_timeout";
                let allowed = park
                    && self
                        .parkok
                        .iter()
                        .any(|(file, func)| *file == caller_file && *func == caller_name);
                if allowed {
                    continue;
                }
                let chain: Vec<String> = path.iter().map(|&p| self.defs[p].name.clone()).collect();
                let entry = chain.first().cloned().unwrap_or_else(|| "?".to_string());
                let message = format!(
                    "blocking primitive `{name}` reachable from lock-free entry `{entry}`: \
                     {} → {name}; hot paths must stay non-blocking (park only via audited \
                     `parkok` backoff helpers)",
                    chain.join(" → ")
                );
                self.findings.entry((caller_file.clone(), line, name.clone())).or_insert_with(
                    || Finding { rule: "blocking-reachability", file: caller_file, line, message },
                );
                continue;
            }
            for r in resolved {
                self.dfs(r, path);
            }
        }
        path.pop();
    }
}

/// Run the blocking-reachability pass over the scanned workspace.
pub fn check(files: &[SourceFile], allow: &Allowlist) -> Vec<Finding> {
    let mut defs = Vec::new();
    for (idx, f) in files.iter().enumerate() {
        defs.extend(defs_of(idx, f));
    }
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, d) in defs.iter().enumerate() {
        by_name.entry(d.name.as_str()).or_default().push(i);
    }
    let lockfree: Vec<bool> =
        files.iter().map(|f| allow.lockfree.iter().any(|p| p == &f.rel)).collect();
    let entries: Vec<usize> = (0..defs.len()).filter(|&i| lockfree[defs[i].file]).collect();
    let mut walk = Walk {
        files,
        defs: &defs,
        by_name,
        lockfree,
        parkok: &allow.parkok,
        visited: HashSet::new(),
        findings: BTreeMap::new(),
    };
    let mut path = Vec::new();
    for e in entries {
        walk.dfs(e, &mut path);
    }
    walk.findings.into_values().collect()
}
