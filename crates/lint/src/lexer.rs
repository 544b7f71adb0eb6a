//! A small hand-rolled Rust lexer: just enough token structure for the
//! lint rules, with exact line numbers and comment-directive capture.
//!
//! The lexer understands line/nested-block comments, string/char/byte
//! literals (including raw strings with any number of `#` guards),
//! lifetimes, numeric literals (distinguishing float from integer), and
//! punctuation. It does **not** build an AST — rules pattern-match over
//! the flat token stream, which is enough for the hazards this tool
//! targets and keeps the implementation dependency-free.

/// What a token is, with just the payload the rules need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`unwrap`, `pub`, `fn`, …).
    Ident(String),
    /// An integer literal (`42`, `0x5FA1`, `1_000u64`), carrying its
    /// normalized (radix-decoded, underscore- and suffix-stripped,
    /// wrapping) value so `0x2A` and `42` compare equal — what the
    /// `seed-collision` rule keys on.
    Int(u64),
    /// A float literal (`0.0`, `1e-4`, `2.5f32`).
    Float,
    /// A string literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// A char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A lifetime (`'a`).
    Lifetime,
    /// A single punctuation character (`.`, `=`, `[`, `!`, …).
    Punct(char),
}

/// One token with the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token's kind and payload.
    pub kind: TokenKind,
    /// 1-based line number.
    pub line: usize,
}

/// A `// lint: allow(rule-a, rule-b)` suppression comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// The rule ids inside `allow(…)`.
    pub rules: Vec<String>,
}

impl AllowDirective {
    /// Whether the directive covers a `rule` finding on `line`: it must
    /// name the rule and sit on that line or the line above.
    pub fn covers(&self, line: usize, rule: &str) -> bool {
        (self.line == line || self.line + 1 == line) && self.rules.iter().any(|r| r == rule)
    }
}

/// What a `// lint: hot` / `// lint: cold` / `// lint: total` marker says
/// about the function it annotates (the `fn` on the same line or the line
/// below).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerKind {
    /// The function is an additional hot-path entry point for the
    /// call-graph analyses (see `crate::callgraph`).
    Hot,
    /// The function is cold (per-round setup, not per-batch work); the
    /// call-graph analyses do not traverse through it.
    Cold,
    /// The function is an additional panic-freedom entry point for the
    /// totality analysis (see `crate::totality`): no panic source may be
    /// reachable from it.
    Total,
}

/// A `// lint: hot`, `// lint: cold`, or `// lint: total` annotation
/// comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marker {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// What the annotated function is asserted to be.
    pub kind: MarkerKind,
}

/// The output of [`lex`]: the token stream plus every lint directive.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Token>,
    /// Suppression comments in source order.
    pub allows: Vec<AllowDirective>,
    /// Hot/cold function annotations in source order.
    pub markers: Vec<Marker>,
}

/// Lexes Rust source. Unterminated literals are tolerated (the rest of
/// the file becomes part of the literal) — the linter must never panic on
/// the code it scans.
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && next == Some('/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            let comment: String = chars[start..i].iter().collect();
            if let Some(d) = parse_allow(&comment, line) {
                out.allows.push(d);
            } else if let Some(m) = parse_marker(&comment, line) {
                out.markers.push(m);
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 1;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            let tok_line = line;
            i = skip_string(&chars, i + 1, &mut line);
            out.tokens.push(Token { kind: TokenKind::Str, line: tok_line });
        } else if is_raw_string_start(&chars, i) {
            let tok_line = line;
            i = skip_raw_string(&chars, i, &mut line);
            out.tokens.push(Token { kind: TokenKind::Str, line: tok_line });
        } else if (c == 'b' && next == Some('\'')) || c == '\'' {
            let quote = if c == 'b' { i + 1 } else { i };
            // `'a` (no closing quote right after the identifier) is a
            // lifetime; everything else is a char literal.
            let after = chars.get(quote + 1).copied();
            let closes = chars.get(quote + 2).copied() == Some('\'');
            if c == '\'' && after.is_some_and(|a| a.is_alphabetic() || a == '_') && !closes {
                let mut j = quote + 1;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                out.tokens.push(Token { kind: TokenKind::Lifetime, line });
                i = j;
            } else {
                let tok_line = line;
                i = skip_char_literal(&chars, quote + 1, &mut line);
                out.tokens.push(Token { kind: TokenKind::Char, line: tok_line });
            }
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            out.tokens.push(Token { kind: TokenKind::Ident(ident), line });
        } else if c.is_ascii_digit() {
            let (end, is_float, value) = scan_number(&chars, i);
            out.tokens.push(Token {
                kind: if is_float { TokenKind::Float } else { TokenKind::Int(value) },
                line,
            });
            i = end;
        } else {
            out.tokens.push(Token { kind: TokenKind::Punct(c), line });
            i += 1;
        }
    }
    out
}

/// Recognises `r"`, `r#"`, `br"`, `br#"` (any number of hashes).
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn skip_raw_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    if chars.get(i) == Some(&'b') {
        i += 1;
    }
    i += 1; // 'r'
    let mut hashes = 0;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
        } else if chars[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && chars.get(j) == Some(&'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

/// Skips a (non-raw) string body starting just after the opening quote.
fn skip_string(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a char/byte literal body starting just after the opening quote.
fn skip_char_literal(chars: &[char], mut i: usize, line: &mut usize) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '\'' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Scans a numeric literal starting at a digit; returns
/// `(end, is_float, normalized_value)`. The value decodes the radix
/// prefix, skips `_` separators, stops at the type suffix, and wraps on
/// overflow — it is only meaningful when `is_float` is false.
fn scan_number(chars: &[char], start: usize) -> (usize, bool, u64) {
    let mut i = start;
    let mut is_float = false;
    let mut value = 0u64;
    // Hex/octal/binary literals are always integers.
    if chars[i] == '0' && matches!(chars.get(i + 1), Some('x') | Some('o') | Some('b') | Some('X'))
    {
        let radix = match chars[i + 1] {
            'x' | 'X' => 16,
            'o' => 8,
            _ => 2,
        };
        i += 2;
        let mut in_suffix = false;
        while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
            if !in_suffix && chars[i] != '_' {
                match chars[i].to_digit(radix) {
                    Some(d) => {
                        value = value.wrapping_mul(u64::from(radix)).wrapping_add(u64::from(d));
                    }
                    None => in_suffix = true, // `u64`/`i32` tail
                }
            }
            i += 1;
        }
        return (i, false, value);
    }
    while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
        if chars[i] != '_' {
            let d = u64::from(chars[i] as u8 - b'0');
            value = value.wrapping_mul(10).wrapping_add(d);
        }
        i += 1;
    }
    // A '.' continues the float only when not followed by another '.'
    // (range) or an identifier start (method call on a literal).
    if chars.get(i) == Some(&'.') {
        let after = chars.get(i + 1).copied();
        let method_or_range = after.is_some_and(|a| a == '.' || a.is_alphabetic() || a == '_');
        if !method_or_range {
            is_float = true;
            i += 1;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                i += 1;
            }
        }
    }
    if matches!(chars.get(i), Some('e') | Some('E')) {
        let mut j = i + 1;
        if matches!(chars.get(j), Some('+') | Some('-')) {
            j += 1;
        }
        if chars.get(j).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            i = j;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                i += 1;
            }
        }
    }
    // Type suffix (f32/f64 forces float; i*/u* keeps integer).
    let suf_start = i;
    while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
        i += 1;
    }
    let suffix: String = chars[suf_start..i].iter().collect();
    if suffix.starts_with("f32") || suffix.starts_with("f64") {
        is_float = true;
    }
    (i, is_float, value)
}

/// Parses a `// lint: allow(a, b)` comment, returning `None` for
/// ordinary comments.
fn parse_allow(comment: &str, line: usize) -> Option<AllowDirective> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("lint:")?.trim();
    let inner = rest.strip_prefix("allow(")?.split(')').next()?;
    let rules: Vec<String> =
        inner.split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect();
    if rules.is_empty() {
        None
    } else {
        Some(AllowDirective { line, rules })
    }
}

/// Parses a `// lint: hot` / `// lint: cold` / `// lint: total` comment,
/// returning `None` for ordinary comments (trailing prose after the
/// keyword is tolerated: `// lint: cold — once-per-round setup`).
fn parse_marker(comment: &str, line: usize) -> Option<Marker> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("lint:")?.trim();
    let keyword = rest.split(|c: char| !c.is_ascii_alphanumeric()).next()?;
    match keyword {
        "hot" => Some(Marker { line, kind: MarkerKind::Hot }),
        "cold" => Some(Marker { line, kind: MarkerKind::Cold }),
        "total" => Some(Marker { line, kind: MarkerKind::Total }),
        _ => None,
    }
}

/// The identifier a token spells, if it is one.
pub(crate) fn ident(t: &Token) -> Option<&str> {
    match &t.kind {
        TokenKind::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

/// The punctuation character a token is, if it is one.
pub(crate) fn punct(t: &Token) -> Option<char> {
    match t.kind {
        TokenKind::Punct(c) => Some(c),
        _ => None,
    }
}

/// [`ident`] of the token at `i`; `None` past the end.
pub(crate) fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    toks.get(i).and_then(ident)
}

/// [`punct`] of the token at `i`; `None` past the end.
pub(crate) fn punct_at(toks: &[Token], i: usize) -> Option<char> {
    toks.get(i).and_then(punct)
}

/// Index of the token closing the `(`, `[` or `{` at `open`, counting
/// only that delimiter pair. An unclosed group, or an `open` that holds
/// none of the three, runs to the last token.
pub(crate) fn matching(toks: &[Token], open: usize) -> usize {
    let last = toks.len().saturating_sub(1);
    let (lo, hi) = match punct_at(toks, open) {
        Some('(') => ('(', ')'),
        Some('[') => ('[', ']'),
        Some('{') => ('{', '}'),
        _ => return last,
    };
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match punct(t) {
            Some(c) if c == lo => depth += 1,
            Some(c) if c == hi => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            // unwrap() in a comment
            /* panic! in /* nested */ block */
            let s = "unwrap()";
            let r = r#"expect("x")"#;
            let c = 'p';
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
        assert!(!ids.contains(&"expect".to_string()));
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "let a = 1;\n/* two\nlines */\nlet b = 2;\n";
        let lexed = lex(src);
        let b = lexed.tokens.iter().find(|t| t.kind == TokenKind::Ident("b".into())).unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn float_vs_int_vs_method_call() {
        let kinds: Vec<TokenKind> = lex("1.0 2 3e-4 5f32 0x5FA1 7.max(2) 0..3")
            .tokens
            .into_iter()
            .map(|t| t.kind)
            .collect();
        assert!(kinds.contains(&TokenKind::Float)); // 1.0
        let floats = kinds.iter().filter(|k| **k == TokenKind::Float).count();
        assert_eq!(floats, 3, "1.0, 3e-4, 5f32: {kinds:?}");
        let ints = kinds.iter().filter(|k| matches!(k, TokenKind::Int(_))).count();
        assert_eq!(ints, 6, "2, 0x5FA1, 7, 2, 0, 3: {kinds:?}");
        assert!(kinds.contains(&TokenKind::Int(0x5FA1)), "hex decodes: {kinds:?}");
    }

    #[test]
    fn int_literals_normalize_radix_separators_and_suffixes() {
        let kinds: Vec<TokenKind> = lex("42 0x2A 0o52 0b101010 4_2 42u64 0xFEEDu32")
            .tokens
            .into_iter()
            .map(|t| t.kind)
            .collect();
        let values: Vec<u64> = kinds
            .iter()
            .filter_map(|k| match k {
                TokenKind::Int(v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(values, vec![42, 42, 42, 42, 42, 42, 0xFEED]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Lifetime).count();
        let charlits = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(charlits, 1);
    }

    #[test]
    fn allow_directives_are_captured() {
        let src = "foo(); // lint: allow(must-use-result, float-eq)\nbar();\n// lint: allow(unchecked-index)\nbaz();\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 2);
        assert_eq!(lexed.allows[0].line, 1);
        assert_eq!(lexed.allows[0].rules, vec!["must-use-result", "float-eq"]);
        assert_eq!(lexed.allows[1].line, 3);
        assert_eq!(lexed.allows[1].rules, vec!["unchecked-index"]);
    }

    #[test]
    fn raw_strings_with_hash_guards_hide_quotes_and_tokens() {
        let src = r####"let a = r#"inner "quoted" unwrap()"#; let b = r##"nested "# guard"##; after();"####;
        let lexed = lex(src);
        let strs = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Str).count();
        assert_eq!(strs, 2, "{:?}", lexed.tokens);
        assert!(lexed.tokens.iter().any(|t| t.kind == TokenKind::Ident("after".into())));
        assert!(!lexed.tokens.iter().any(|t| t.kind == TokenKind::Ident("unwrap".into())));
    }

    #[test]
    fn nested_block_comments_track_depth_and_lines() {
        let src =
            "before();\n/* outer /* inner\n/* deeper */ still inner */\nouter tail */ after();";
        let lexed = lex(src);
        let ids = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some((s.clone(), t.line)),
                _ => None,
            })
            .collect::<Vec<_>>();
        assert_eq!(
            ids,
            vec![("before".to_string(), 1), ("after".to_string(), 4)],
            "nested comment swallowed the wrong span"
        );
    }

    #[test]
    fn char_literals_holding_quote_and_equals_stay_closed() {
        // A lexer that mistakes '"' for a string opener would swallow the
        // rest of the file; one that mistakes '=' for punctuation would
        // hand float-eq a bogus comparison.
        let src = "let q = '\"'; let e = '='; let esc = '\\''; done();";
        let lexed = lex(src);
        let chars = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Char).count();
        assert_eq!(chars, 3, "{:?}", lexed.tokens);
        assert!(lexed.tokens.iter().any(|t| t.kind == TokenKind::Ident("done".into())));
        // Exactly the three `let` assignments produce '=' punctuation; the
        // '=' inside the char literal must not leak out.
        let eqs = lexed.tokens.iter().filter(|t| t.kind == TokenKind::Punct('=')).count();
        assert_eq!(eqs, 3, "{:?}", lexed.tokens);
    }

    #[test]
    fn allow_directives_inside_cfg_test_modules_are_still_collected() {
        // The lexer reports every directive; exempting test modules is the
        // rule engine's job (it needs the token ranges to decide).
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { if x == 0.5 {} } // lint: allow(float-eq)\n}\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].line, 3);
        assert_eq!(lexed.allows[0].rules, vec!["float-eq"]);
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let lexed = lex(r#"let s = "a\"unwrap()\"b"; done();"#);
        assert!(lexed.tokens.iter().any(|t| t.kind == TokenKind::Ident("done".into())));
        assert!(!lexed.tokens.iter().any(|t| t.kind == TokenKind::Ident("unwrap".into())));
    }
}
