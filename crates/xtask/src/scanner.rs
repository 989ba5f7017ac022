//! Shared token scanner behind the `lint` and `analyze` passes.
//!
//! Tokenizes Rust source just well enough for house-rule analysis: line and
//! (nested) block comments are captured separately from the significant
//! token stream, normal and raw string literals are kept whole as
//! [`Token::Str`], char literals and lifetimes are skipped, identifiers are
//! kept whole. Every rule that matches identifiers therefore matches *code
//! tokens only* — a `Mutex` in a doc comment or a `"push_blocking"` in a
//! string literal can never trip a pass.

/// A significant token produced by the scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// An identifier or keyword, kept whole.
    Ident(String),
    /// The unescaped body of a normal, raw or byte string literal.
    Str(String),
    /// Any other single significant character (`.`, `:`, `(` …).
    Ch(char),
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Spanned {
    /// The token itself.
    pub tok: Token,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// One comment with the 1-based line span it covers and its inner text
/// (`//`/`///`/`//!`/`/* … */` markers stripped, surrounding space
/// trimmed).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// 1-based line the comment ends on (same as `line` for `//`).
    pub end_line: usize,
    /// Marker-stripped, trimmed comment text.
    pub text: String,
}

/// Token + comment view of one source file.
#[derive(Debug, Default)]
pub struct Scanned {
    /// Significant tokens, in source order.
    pub tokens: Vec<Spanned>,
    /// Comments, in source order.
    pub comments: Vec<Comment>,
}

/// Scan one file. See the module docs for what is and is not tokenized.
pub fn scan(src: &str) -> Scanned {
    let bytes = src.as_bytes();
    let mut out = Scanned::default();
    let mut i = 0;
    let mut line = 1;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                let text = src[start..i]
                    .trim_start_matches('/')
                    .trim_start_matches('!')
                    .trim()
                    .to_string();
                out.comments.push(Comment { line, end_line: line, text });
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let end = i.saturating_sub(2).max(start);
                let text = src[start..end.min(src.len())]
                    .trim_start_matches(['*', '!'])
                    .trim()
                    .to_string();
                out.comments.push(Comment { line: start_line, end_line: line, text });
            }
            '"' => {
                let start_line = line;
                let mut lit = String::new();
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => {
                            // An escaped newline (line continuation) still
                            // advances the line counter; losing it would
                            // misattribute every later finding.
                            if bytes.get(i + 1) == Some(&b'\n') {
                                line += 1;
                            }
                            i += 2;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b => {
                            if b == b'\n' {
                                line += 1;
                            }
                            lit.push(b as char);
                            i += 1;
                        }
                    }
                }
                out.tokens.push(Spanned { tok: Token::Str(lit), line: start_line });
            }
            'r' | 'b'
                if {
                    // Raw string heads: r", r#", br", b" …
                    let mut j = i + 1;
                    if c == 'b' && bytes.get(j) == Some(&b'r') {
                        j += 1;
                    }
                    while bytes.get(j) == Some(&b'#') {
                        j += 1;
                    }
                    bytes.get(j) == Some(&b'"') && (c == 'b' || j > i + 1)
                } =>
            {
                // Raw (or byte) string: skip to the matching quote+hashes.
                let start_line = line;
                let mut j = i + 1;
                if c == 'b' && bytes.get(j) == Some(&b'r') {
                    j += 1;
                }
                let mut hashes = 0;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                j += 1; // opening quote
                let mut lit = String::new();
                'raw: while j < bytes.len() {
                    if bytes[j] == b'"' {
                        let mut k = j + 1;
                        let mut seen = 0;
                        while seen < hashes && bytes.get(k) == Some(&b'#') {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            j = k;
                            break 'raw;
                        }
                    }
                    if bytes[j] == b'\n' {
                        line += 1;
                    }
                    lit.push(bytes[j] as char);
                    j += 1;
                }
                out.tokens.push(Spanned { tok: Token::Str(lit), line: start_line });
                i = j;
            }
            '\'' => {
                // Char literal or lifetime. `'a'` / `'\n'` are literals;
                // `'a` (no closing quote right after) is a lifetime.
                if bytes.get(i + 1) == Some(&b'\\') {
                    i += 2;
                    while i < bytes.len() && bytes[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                } else if bytes.get(i + 2) == Some(&b'\'') {
                    i += 3;
                } else {
                    i += 1; // lifetime tick; identifier follows as a token
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.tokens.push(Spanned { tok: Token::Ident(src[start..i].to_string()), line });
            }
            c if c.is_whitespace() => {
                i += 1;
            }
            other => {
                out.tokens.push(Spanned { tok: Token::Ch(other), line });
                i += 1;
            }
        }
    }
    out
}

/// Line (1-based) of the first `#[cfg(test)]` attribute, if any; tokens at
/// or after it are test code.
pub fn test_boundary(tokens: &[Spanned]) -> Option<usize> {
    // #[cfg(test)] tokenizes as `#` `[` cfg `(` test `)` `]`.
    for w in tokens.windows(7) {
        let shape: Vec<&Token> = w.iter().map(|s| &s.tok).collect();
        if matches!(
            shape.as_slice(),
            [Token::Ch('#'), Token::Ch('['), Token::Ident(a), Token::Ch('('), Token::Ident(b), Token::Ch(')'), Token::Ch(']')]
                if a == "cfg" && b == "test"
        ) {
            return Some(w[0].line);
        }
    }
    None
}
