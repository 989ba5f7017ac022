//! The unsafe ledger and the `Send`/`Sync` surface audit.
//!
//! Every `unsafe` block, fn, impl or trait in production code needs an
//! adjacent `// SAFETY:` comment — on the same line, or directly above
//! with nothing but the comment's own continuation lines in between
//! (`unsafe-safety`). All sites are then aggregated per enclosing item
//! into a byte-stable `UNSAFE_LEDGER.json` (rendered with
//! [`bistream_types::jsonlite`], the same codec the replayable artifacts
//! use) recording file, item, site count and an FNV-1a digest of the
//! justifications. The analyze pass diffs the tree against the committed
//! ledger, so adding, removing or re-justifying unsafe fails CI until the
//! ledger is consciously regenerated with
//! `cargo xtask analyze --update-ledger` (`unsafe-ledger`).
//!
//! The `Send`/`Sync` audit rides on the same site extraction: every
//! `unsafe impl Send`/`Sync` must carry its invariant as a SAFETY comment
//! *and* appear in the committed ledger (`send-sync-ledger`).

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use bistream_types::jsonlite::{json_str, Json};

use super::SourceFile;
use crate::scanner::Token;
use crate::Finding;

/// The committed ledger's filename at the workspace root.
pub const LEDGER_FILE: &str = "UNSAFE_LEDGER.json";

/// What kind of construct an `unsafe` keyword introduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteKind {
    Block,
    Fn,
    ImplSend,
    ImplSync,
    Other,
}

/// One `unsafe` site in production code.
#[derive(Debug, Clone)]
struct Site {
    line: usize,
    kind: SiteKind,
    /// Enclosing item label, e.g. `fn try_push` or `impl Send for Ring`.
    item: String,
    /// The adjacent SAFETY justification, if present.
    safety: Option<String>,
}

/// One ledger entry: unsafe-site count and justification digest for an
/// enclosing item. Keyed by `(file, item)` in the ledger map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Number of unsafe sites attributed to the item.
    pub count: u64,
    /// FNV-1a 64 digest over the sites' SAFETY justifications, in hex.
    pub digest: String,
}

/// Ledger map: `(file, item)` → entry, ordered for byte-stable rendering.
pub type Ledger = BTreeMap<(String, String), Entry>;

/// FNV-1a 64-bit digest, rendered by the caller as 16 hex digits.
fn fnv1a64(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Extract every production `unsafe` site in one file, with its enclosing
/// item and adjacent SAFETY justification.
fn collect_sites(f: &SourceFile) -> Vec<Site> {
    let toks = &f.scanned.tokens;
    // Lines that carry any code token: a SAFETY walk-up stops at them.
    let token_lines: BTreeSet<usize> = toks.iter().map(|s| s.line).collect();
    // fn-def names by token index, to label `unsafe { … }` blocks with
    // their enclosing function.
    let mut fn_defs: Vec<(usize, String)> = Vec::new();
    for i in 0..toks.len() {
        if matches!(&toks[i].tok, Token::Ident(kw) if kw == "fn") {
            if let Some(Token::Ident(name)) = toks.get(i + 1).map(|s| &s.tok) {
                fn_defs.push((i, name.clone()));
            }
        }
    }
    let enclosing_fn = |idx: usize| -> Option<&str> {
        fn_defs.iter().rev().find(|(i, _)| *i < idx).map(|(_, n)| n.as_str())
    };

    let mut sites = Vec::new();
    for i in 0..toks.len() {
        if !f.prod(toks[i].line) {
            continue;
        }
        if !matches!(&toks[i].tok, Token::Ident(kw) if kw == "unsafe") {
            continue;
        }
        let line = toks[i].line;
        let (kind, item) = match toks.get(i + 1).map(|s| &s.tok) {
            Some(Token::Ch('{')) => {
                let item = enclosing_fn(i).map_or("(module)".to_string(), |n| format!("fn {n}"));
                (SiteKind::Block, item)
            }
            Some(Token::Ident(kw)) if kw == "fn" => {
                let name = match toks.get(i + 2).map(|s| &s.tok) {
                    Some(Token::Ident(n)) => n.clone(),
                    _ => "?".to_string(),
                };
                (SiteKind::Fn, format!("fn {name}"))
            }
            Some(Token::Ident(kw)) if kw == "impl" => {
                // `unsafe impl<…> Trait for Type<…>`: the trait is the
                // ident right before `for`, the type right after.
                let mut trait_name = None;
                let mut type_name = None;
                let mut prev: Option<&str> = None;
                for s in toks.iter().skip(i + 2).take(24) {
                    match &s.tok {
                        Token::Ch('{') | Token::Ch(';') => break,
                        Token::Ident(id) if id == "for" => {
                            trait_name = prev;
                        }
                        Token::Ident(id) => {
                            if trait_name.is_some() && type_name.is_none() {
                                type_name = Some(id.as_str());
                            }
                            prev = Some(id.as_str());
                        }
                        _ => {}
                    }
                }
                let (t, ty) = (trait_name.unwrap_or("?"), type_name.unwrap_or("?"));
                let kind = match t {
                    "Send" => SiteKind::ImplSend,
                    "Sync" => SiteKind::ImplSync,
                    _ => SiteKind::Other,
                };
                (kind, format!("impl {t} for {ty}"))
            }
            Some(Token::Ident(kw)) if kw == "trait" => {
                let name = match toks.get(i + 2).map(|s| &s.tok) {
                    Some(Token::Ident(n)) => n.clone(),
                    _ => "?".to_string(),
                };
                (SiteKind::Other, format!("trait {name}"))
            }
            _ => (SiteKind::Other, "(unsafe)".to_string()),
        };
        let safety = safety_comment(f, line, &token_lines);
        sites.push(Site { line, kind, item, safety });
    }
    sites
}

/// The SAFETY justification adjacent to `line`: a `// SAFETY: …` comment
/// on the line itself, or directly above with only the comment's own
/// lines in between (any code token or blank line breaks adjacency).
fn safety_comment(f: &SourceFile, line: usize, token_lines: &BTreeSet<usize>) -> Option<String> {
    let comment_at = |l: usize| f.scanned.comments.iter().find(|c| c.line <= l && l <= c.end_line);
    if let Some(c) = comment_at(line) {
        if let Some(rest) = c.text.strip_prefix("SAFETY:") {
            return Some(rest.trim().to_string());
        }
    }
    // Walk up through the contiguous comment block, collecting
    // continuation lines until the opening SAFETY line.
    let mut below: Vec<String> = Vec::new();
    let mut l = line.checked_sub(1)?;
    loop {
        if token_lines.contains(&l) {
            return None; // a code line breaks adjacency
        }
        let c = comment_at(l)?;
        if let Some(rest) = c.text.strip_prefix("SAFETY:") {
            below.reverse();
            let mut text = rest.trim().to_string();
            for cont in below {
                text.push('\n');
                text.push_str(&cont);
            }
            return Some(text);
        }
        below.push(c.text.clone());
        l = c.line.checked_sub(1)?;
    }
}

/// Build the ledger for a set of scanned files.
fn compute(files: &[SourceFile]) -> (Ledger, Vec<(String, Site)>) {
    let mut groups: BTreeMap<(String, String), Vec<Site>> = BTreeMap::new();
    let mut flat = Vec::new();
    for f in files {
        for site in collect_sites(f) {
            groups.entry((f.rel.clone(), site.item.clone())).or_default().push(site.clone());
            flat.push((f.rel.clone(), site));
        }
    }
    let mut ledger = Ledger::new();
    for (key, mut sites) in groups {
        sites.sort_by_key(|s| s.line);
        let joined: Vec<String> =
            sites.iter().map(|s| s.safety.clone().unwrap_or_default()).collect();
        let digest = format!("{:016x}", fnv1a64(&joined.join("\n\n")));
        ledger.insert(key, Entry { count: sites.len() as u64, digest });
    }
    (ledger, flat)
}

/// Render a ledger in its one canonical byte form (sorted entries,
/// two-space indent, trailing newline).
pub fn render(ledger: &Ledger) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": [");
    let total = ledger.len();
    for (idx, ((file, item), e)) in ledger.iter().enumerate() {
        out.push_str("\n    {\n");
        out.push_str(&format!("      \"file\": {},\n", json_str(file)));
        out.push_str(&format!("      \"item\": {},\n", json_str(item)));
        out.push_str(&format!("      \"count\": {},\n", e.count));
        out.push_str(&format!("      \"digest\": {}\n    }}", json_str(&e.digest)));
        if idx + 1 < total {
            out.push(',');
        }
    }
    if total > 0 {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Parse a committed ledger file.
pub fn parse(text: &str) -> Result<Ledger, String> {
    let v = Json::parse(text).map_err(|e| format!("{e:?}"))?;
    let mut out = Ledger::new();
    for entry in v.field("entries").and_then(Json::as_array).map_err(|e| format!("{e:?}"))? {
        let file = entry.field_str("file").map_err(|e| format!("{e:?}"))?.to_string();
        let item = entry.field_str("item").map_err(|e| format!("{e:?}"))?.to_string();
        let count = entry.field_u64("count").map_err(|e| format!("{e:?}"))?;
        let digest = entry.field_str("digest").map_err(|e| format!("{e:?}"))?.to_string();
        out.insert((file, item), Entry { count, digest });
    }
    Ok(out)
}

/// Run the unsafe-ledger and Send/Sync-audit passes.
///
/// With `update` the computed ledger is written to `UNSAFE_LEDGER.json`
/// and becomes the committed one; SAFETY findings still fail the run.
pub fn check(root: &Path, files: &[SourceFile], update: bool) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    let (computed, sites) = compute(files);

    for (file, site) in &sites {
        if site.safety.is_none() {
            findings.push(Finding {
                rule: "unsafe-safety",
                file: file.clone(),
                line: site.line,
                message: format!(
                    "unsafe site in `{}` without an adjacent `// SAFETY:` comment stating the \
                     invariant that makes it sound",
                    site.item
                ),
            });
        }
    }

    let ledger_path = root.join(LEDGER_FILE);
    let committed = if update {
        std::fs::write(&ledger_path, render(&computed))
            .map_err(|e| format!("{LEDGER_FILE}: {e}"))?;
        computed.clone()
    } else {
        match std::fs::read_to_string(&ledger_path) {
            Ok(text) => match parse(&text) {
                Ok(l) => l,
                Err(e) => {
                    findings.push(Finding {
                        rule: "unsafe-ledger",
                        file: LEDGER_FILE.to_string(),
                        line: 1,
                        message: format!("unparseable ledger: {e}"),
                    });
                    Ledger::new()
                }
            },
            // No ledger committed: clean only if the tree has no unsafe.
            Err(_) => Ledger::new(),
        }
    };

    if !update {
        for ((file, item), entry) in &computed {
            let site_line = sites
                .iter()
                .filter(|(f, s)| f == file && s.item == *item)
                .map(|(_, s)| s.line)
                .min()
                .unwrap_or(1);
            match committed.get(&(file.clone(), item.clone())) {
                None => findings.push(Finding {
                    rule: "unsafe-ledger",
                    file: file.clone(),
                    line: site_line,
                    message: format!(
                        "{} unsafe site(s) in `{item}` are not in {LEDGER_FILE}; audit them, \
                         then run `cargo xtask analyze --update-ledger`",
                        entry.count
                    ),
                }),
                Some(c) if c != entry => findings.push(Finding {
                    rule: "unsafe-ledger",
                    file: file.clone(),
                    line: site_line,
                    message: format!(
                        "`{item}` drifted from {LEDGER_FILE} (count {} → {}, digest {} → {}); \
                         re-audit, then run `cargo xtask analyze --update-ledger`",
                        c.count, entry.count, c.digest, entry.digest
                    ),
                }),
                Some(_) => {}
            }
        }
        for (file, item) in committed.keys() {
            if !computed.contains_key(&(file.clone(), item.clone())) {
                findings.push(Finding {
                    rule: "unsafe-ledger",
                    file: LEDGER_FILE.to_string(),
                    line: 1,
                    message: format!(
                        "stale ledger entry `{file}` / `{item}` no longer exists in the tree; \
                         run `cargo xtask analyze --update-ledger`"
                    ),
                });
            }
        }
    }

    // Send/Sync surface audit: every unsafe impl Send/Sync must be
    // ledgered with its invariant.
    for (file, site) in &sites {
        if !matches!(site.kind, SiteKind::ImplSend | SiteKind::ImplSync) {
            continue;
        }
        let ledgered = committed.contains_key(&(file.clone(), site.item.clone()));
        if !ledgered || site.safety.is_none() {
            findings.push(Finding {
                rule: "send-sync-ledger",
                file: file.clone(),
                line: site.line,
                message: format!(
                    "`{}` widens the thread-safety surface and must be ledgered with its \
                     invariant: a `// SAFETY:` comment plus an {LEDGER_FILE} entry",
                    site.item
                ),
            });
        }
    }

    Ok(findings)
}
