//! Lexer for the EARTH-C subset.

use std::fmt;

/// A source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Default for Pos {
    fn default() -> Self {
        Pos { line: 1, col: 1 }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Token kinds of the EARTH-C subset. Identifiers borrow their spelling
/// from the source text, so a token is a plain copyable value.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // token names mirror their lexemes
pub enum Tok<'a> {
    /// Identifier or keyword-adjacent name.
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Double(f64),

    // Keywords.
    KwStruct,
    KwInt,
    KwDouble,
    KwVoid,
    KwIf,
    KwElse,
    KwWhile,
    KwDo,
    KwFor,
    KwForall,
    KwSwitch,
    KwCase,
    KwDefault,
    KwBreak,
    KwReturn,
    KwLocal,
    KwShared,
    KwNull,
    KwOwnerOf,
    KwSizeof,

    // Punctuation and operators.
    LBrace,
    RBrace,
    LParen,
    RParen,
    Semi,
    Comma,
    Colon,
    Arrow,    // ->
    Dot,      // .
    Star,     // *
    Slash,    // /
    Percent,  // %
    Plus,     // +
    Minus,    // -
    Assign,   // =
    EqEq,     // ==
    NotEq,    // !=
    Lt,       // <
    Le,       // <=
    Gt,       // >
    Ge,       // >=
    AndAnd,   // &&
    OrOr,     // ||
    Not,      // !
    Amp,      // &
    At,       // @
    ParOpen,  // {^
    ParClose, // ^}
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer `{v}`"),
            Tok::Double(v) => write!(f, "double `{v}`"),
            Tok::KwStruct => write!(f, "`struct`"),
            Tok::KwInt => write!(f, "`int`"),
            Tok::KwDouble => write!(f, "`double`"),
            Tok::KwVoid => write!(f, "`void`"),
            Tok::KwIf => write!(f, "`if`"),
            Tok::KwElse => write!(f, "`else`"),
            Tok::KwWhile => write!(f, "`while`"),
            Tok::KwDo => write!(f, "`do`"),
            Tok::KwFor => write!(f, "`for`"),
            Tok::KwForall => write!(f, "`forall`"),
            Tok::KwSwitch => write!(f, "`switch`"),
            Tok::KwCase => write!(f, "`case`"),
            Tok::KwDefault => write!(f, "`default`"),
            Tok::KwBreak => write!(f, "`break`"),
            Tok::KwReturn => write!(f, "`return`"),
            Tok::KwLocal => write!(f, "`local`"),
            Tok::KwShared => write!(f, "`shared`"),
            Tok::KwNull => write!(f, "`NULL`"),
            Tok::KwOwnerOf => write!(f, "`OWNER_OF`"),
            Tok::KwSizeof => write!(f, "`sizeof`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Slash => write!(f, "`/`"),
            Tok::Percent => write!(f, "`%`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Assign => write!(f, "`=`"),
            Tok::EqEq => write!(f, "`==`"),
            Tok::NotEq => write!(f, "`!=`"),
            Tok::Lt => write!(f, "`<`"),
            Tok::Le => write!(f, "`<=`"),
            Tok::Gt => write!(f, "`>`"),
            Tok::Ge => write!(f, "`>=`"),
            Tok::AndAnd => write!(f, "`&&`"),
            Tok::OrOr => write!(f, "`||`"),
            Tok::Not => write!(f, "`!`"),
            Tok::Amp => write!(f, "`&`"),
            Tok::At => write!(f, "`@`"),
            Tok::ParOpen => write!(f, "`{{^`"),
            Tok::ParClose => write!(f, "`^}}`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// The token kind/payload.
    pub tok: Tok<'a>,
    /// Where the token starts.
    pub pos: Pos,
}

/// A lexical error.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Where the error occurred.
    pub pos: Pos,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// The scanning state: a byte offset into the source and the position of
/// the character there. Every token boundary is an ASCII byte, so offsets
/// used for slicing are always character boundaries.
struct Cursor<'a> {
    src: &'a str,
    i: usize,
    pos: Pos,
}

impl<'a> Cursor<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn at(&self, offset: usize) -> Option<u8> {
        self.bytes().get(self.i + offset).copied()
    }

    /// Steps over one byte. Columns count characters, so the continuation
    /// bytes of a multi-byte character do not advance the column.
    fn bump(&mut self) {
        let b = self.bytes()[self.i];
        if b == b'\n' {
            self.pos.line += 1;
            self.pos.col = 1;
        } else if b & 0xC0 != 0x80 {
            self.pos.col += 1;
        }
        self.i += 1;
    }

    /// Steps over bytes while `keep` holds and returns the text covered.
    /// `keep` must hold only for ASCII bytes other than the newline, each
    /// of which is one column.
    fn take_columns(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let rest = &self.bytes()[self.i..];
        let n = rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
        let text = &self.src[self.i..self.i + n];
        self.i += n;
        self.pos.col += n as u32;
        text
    }

    /// The character at the cursor, which must not be at the end.
    fn char(&self) -> char {
        self.src[self.i..]
            .chars()
            .next()
            .expect("cursor is inside the source")
    }
}

/// Tokenizes EARTH-C source. Identifier tokens borrow from `src`.
///
/// Supports `//` line comments and `/* */` block comments.
///
/// # Errors
///
/// Returns a [`LexError`] on unknown characters or malformed numbers.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    // A token of this language averages four to five bytes of source.
    let mut out = Vec::with_capacity(src.len() / 4 + 1);
    let mut c = Cursor {
        src,
        i: 0,
        pos: Pos::default(),
    };

    while let Some(b) = c.at(0) {
        let start = c.pos;
        // Whitespace (ASCII here; other scripts' spaces below).
        if b == b' ' {
            c.take_columns(|b| b == b' ');
            continue;
        }
        if matches!(b, b'\t'..=b'\r') {
            c.bump();
            continue;
        }
        // Comments.
        if b == b'/' && c.at(1) == Some(b'/') {
            while c.at(0).is_some_and(|b| b != b'\n') {
                c.bump();
            }
            continue;
        }
        if b == b'/' && c.at(1) == Some(b'*') {
            c.bump();
            c.bump();
            loop {
                if c.at(1).is_none() {
                    return Err(LexError {
                        pos: start,
                        message: "unterminated block comment".into(),
                    });
                }
                if c.at(0) == Some(b'*') && c.at(1) == Some(b'/') {
                    c.bump();
                    c.bump();
                    break;
                }
                c.bump();
            }
            continue;
        }
        // Identifiers and keywords.
        if b.is_ascii_alphabetic() || b == b'_' {
            let tok = match c.take_columns(|b| b.is_ascii_alphanumeric() || b == b'_') {
                "struct" => Tok::KwStruct,
                "int" => Tok::KwInt,
                "double" => Tok::KwDouble,
                "void" => Tok::KwVoid,
                "if" => Tok::KwIf,
                "else" => Tok::KwElse,
                "while" => Tok::KwWhile,
                "do" => Tok::KwDo,
                "for" => Tok::KwFor,
                "forall" => Tok::KwForall,
                "switch" => Tok::KwSwitch,
                "case" => Tok::KwCase,
                "default" => Tok::KwDefault,
                "break" => Tok::KwBreak,
                "return" => Tok::KwReturn,
                "local" => Tok::KwLocal,
                "shared" => Tok::KwShared,
                "NULL" => Tok::KwNull,
                "OWNER_OF" => Tok::KwOwnerOf,
                "sizeof" => Tok::KwSizeof,
                name => Tok::Ident(name),
            };
            out.push(Token { tok, pos: start });
            continue;
        }
        // Numbers.
        if b.is_ascii_digit() {
            let first = c.i;
            let mut is_double = false;
            c.take_columns(|b| b.is_ascii_digit());
            if c.at(0) == Some(b'.') && c.at(1).is_some_and(|b| b.is_ascii_digit()) {
                is_double = true;
                c.bump();
                c.take_columns(|b| b.is_ascii_digit());
            }
            // Exponent.
            if matches!(c.at(0), Some(b'e' | b'E')) {
                let sign = matches!(c.at(1), Some(b'+' | b'-')) as usize;
                if c.at(1 + sign).is_some_and(|b| b.is_ascii_digit()) {
                    is_double = true;
                    for _ in 0..=sign {
                        c.bump();
                    }
                    c.take_columns(|b| b.is_ascii_digit());
                }
            }
            let s = &src[first..c.i];
            let tok = if is_double {
                Tok::Double(s.parse().map_err(|_| LexError {
                    pos: start,
                    message: format!("malformed double literal `{s}`"),
                })?)
            } else {
                Tok::Int(s.parse().map_err(|_| LexError {
                    pos: start,
                    message: format!("integer literal out of range `{s}`"),
                })?)
            };
            out.push(Token { tok, pos: start });
            continue;
        }
        // Multi-character operators.
        let two = match (b, c.at(1)) {
            (b'{', Some(b'^')) => Some(Tok::ParOpen),
            (b'^', Some(b'}')) => Some(Tok::ParClose),
            (b'-', Some(b'>')) => Some(Tok::Arrow),
            (b'=', Some(b'=')) => Some(Tok::EqEq),
            (b'!', Some(b'=')) => Some(Tok::NotEq),
            (b'<', Some(b'=')) => Some(Tok::Le),
            (b'>', Some(b'=')) => Some(Tok::Ge),
            (b'&', Some(b'&')) => Some(Tok::AndAnd),
            (b'|', Some(b'|')) => Some(Tok::OrOr),
            _ => None,
        };
        let tok = if let Some(tok) = two {
            c.bump();
            c.bump();
            tok
        } else {
            let t = match b {
                b'{' => Tok::LBrace,
                b'}' => Tok::RBrace,
                b'(' => Tok::LParen,
                b')' => Tok::RParen,
                b';' => Tok::Semi,
                b',' => Tok::Comma,
                b':' => Tok::Colon,
                b'.' => Tok::Dot,
                b'*' => Tok::Star,
                b'/' => Tok::Slash,
                b'%' => Tok::Percent,
                b'+' => Tok::Plus,
                b'-' => Tok::Minus,
                b'=' => Tok::Assign,
                b'<' => Tok::Lt,
                b'>' => Tok::Gt,
                b'!' => Tok::Not,
                b'&' => Tok::Amp,
                b'@' => Tok::At,
                _ => {
                    let other = c.char();
                    if other.is_whitespace() {
                        for _ in 0..other.len_utf8() {
                            c.bump();
                        }
                        continue;
                    }
                    return Err(LexError {
                        pos: start,
                        message: format!("unexpected character `{other}`"),
                    });
                }
            };
            c.bump();
            t
        };
        out.push(Token { tok, pos: start });
    }
    out.push(Token {
        tok: Tok::Eof,
        pos: c.pos,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("struct Point int foo"),
            vec![
                Tok::KwStruct,
                Tok::Ident("Point"),
                Tok::KwInt,
                Tok::Ident("foo"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("42 2.25 1e3 7"),
            vec![
                Tok::Int(42),
                Tok::Double(2.25),
                Tok::Double(1000.0),
                Tok::Int(7),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("p->x == q.y && a != b"),
            vec![
                Tok::Ident("p"),
                Tok::Arrow,
                Tok::Ident("x"),
                Tok::EqEq,
                Tok::Ident("q"),
                Tok::Dot,
                Tok::Ident("y"),
                Tok::AndAnd,
                Tok::Ident("a"),
                Tok::NotEq,
                Tok::Ident("b"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn parallel_sequence_tokens() {
        assert_eq!(
            toks("{^ a; b; ^}"),
            vec![
                Tok::ParOpen,
                Tok::Ident("a"),
                Tok::Semi,
                Tok::Ident("b"),
                Tok::Semi,
                Tok::ParClose,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a // hello\nb /* multi\nline */ c"),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Ident("c"), Tok::Eof]
        );
    }

    #[test]
    fn positions_tracked() {
        let ts = lex("a\n  b").unwrap();
        assert_eq!(ts[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(ts[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("/* nope").is_err());
    }

    #[test]
    fn bad_char_errors() {
        let e = lex("a $ b").unwrap_err();
        assert!(e.message.contains("unexpected"));
        assert_eq!(e.pos.col, 3);
    }

    #[test]
    fn at_owner_of() {
        assert_eq!(
            toks("f(x) @ OWNER_OF(p)"),
            vec![
                Tok::Ident("f"),
                Tok::LParen,
                Tok::Ident("x"),
                Tok::RParen,
                Tok::At,
                Tok::KwOwnerOf,
                Tok::LParen,
                Tok::Ident("p"),
                Tok::RParen,
                Tok::Eof
            ]
        );
    }
}
