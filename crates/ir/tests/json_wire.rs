//! Fences around the JSON codec as a wire format: decoding is linear in
//! the document, strings survive every round trip, and a malformed
//! document is refused with the same message at the same byte offset.

use earth_ir::json::{self, parse, Value};
use earth_qcheck::Rng;
use std::time::{Duration, Instant};

/// A string of `len` bytes shaped like a source text on the wire: a
/// multi-byte character and three escapes per 64-byte line, so both the
/// run copy and the escape path are on the clock.
fn source_like(len: usize) -> String {
    let line = format!("  x = p->next; /* é */ y = \"s\";{}\n", " ".repeat(31));
    line.repeat(len / line.len())
}

/// Decoding runs on earthd's event-loop thread, so it must be linear: a
/// reader that does anything per character over the rest of the document
/// (one `from_utf8(&bytes[pos..])` is enough) takes minutes on 4 MB in a
/// debug build and stalls every connection on far less.
#[test]
fn a_4_mb_string_parses_in_linear_time() {
    let source = source_like(4 << 20);
    let doc = json::Obj::new().str("source", &source).finish();
    let start = Instant::now();
    let v = parse(&doc).unwrap();
    let rendered = v.render();
    let took = start.elapsed();
    assert_eq!(rendered, doc);
    assert_eq!(
        v,
        Value::Object(vec![("source".into(), Value::Str(source))])
    );
    assert!(
        took < Duration::from_secs(5),
        "4 MB document took {took:?} to parse and render"
    );
}

/// Draws from every class the codec distinguishes: quote, backslash, each
/// of U+0000–U+001F, plain ASCII, `/`, DEL, two-, three- and four-byte
/// characters.
fn random_string(rng: &mut Rng) -> String {
    let len = rng.index(40);
    (0..len)
        .map(|_| match rng.index(8) {
            0 => '"',
            1 => '\\',
            2 | 3 => char::from(rng.index(0x20) as u8),
            4 => *rng.pick(&['/', '\u{7f}', 'u', ' ', 'a', 'F', '0']),
            5 => *rng.pick(&['é', 'λ', '\u{80}', '\u{7ff}']),
            6 => *rng.pick(&['€', '→', '\u{800}', '\u{ffff}', '\u{d7ff}', '\u{e000}']),
            _ => *rng.pick(&['😀', '🚀', '\u{10000}', '\u{10ffff}']),
        })
        .collect()
}

/// What an `ensure_ascii` encoder (Python's `json.dumps`) writes for `s`:
/// everything outside printable ASCII as `\uXXXX`, characters beyond the
/// BMP as a surrogate pair.
fn ascii_encoded(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ' '..='~' => out.push(c),
            _ => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
        }
    }
    out.push('"');
    out
}

#[test]
fn random_strings_round_trip() {
    earth_qcheck::cases(2000, |rng| {
        let s = random_string(rng);
        let enc = json::string(&s);
        assert!(
            enc.chars().all(|c| c >= ' '),
            "raw control character in {enc:?}"
        );
        let v = parse(&enc).unwrap();
        assert_eq!(v, Value::Str(s.clone()), "{enc}");
        // parse → render → parse is the identity, as a value and as a key.
        assert_eq!(v.render(), enc);
        let doc = Value::Object(vec![(s.clone(), Value::Array(vec![v]))]);
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        // The other spelling of the same string decodes to it too.
        assert_eq!(parse(&ascii_encoded(&s)).unwrap(), Value::Str(s));
    });
}

type Outcome = Result<&'static str, (&'static str, usize)>;

/// Documents the reader must refuse (and a few it must accept), with the
/// message and byte offset of the refusal: clients match on these, so a
/// rewrite of the reader must reproduce them.
const CORPUS: &[(&str, Outcome)] = &[
    ("", Err(("expected a JSON value", 0))),
    // Unterminated strings: the offset is the end of the document.
    ("\"", Err(("unterminated string", 1))),
    ("\"abc", Err(("unterminated string", 4))),
    ("\"abc\\\"", Err(("unterminated string", 6))),
    ("{\"a\":\"b", Err(("unterminated string", 7))),
    ("{\"a", Err(("unterminated string", 3))),
    ("\"😀", Err(("unterminated string", 5))),
    // Bad and truncated two-letter escapes: the offset is the byte
    // after the backslash.
    ("\"abc\\", Err(("bad escape", 5))),
    ("\"\\x\"", Err(("bad escape", 2))),
    ("{\"a\":\"b\\", Err(("bad escape", 8))),
    ("[\"x\",\"\\q\"]", Err(("bad escape", 7))),
    ("\"café\\", Err(("bad escape", 7))),
    // `\u` escapes: the offset is the `u`.
    ("\"\\u\"", Err(("truncated \\u escape", 2))),
    ("\"\\u1\"", Err(("truncated \\u escape", 2))),
    ("\"\\u12\"", Err(("truncated \\u escape", 2))),
    ("\"\\u123", Err(("truncated \\u escape", 2))),
    ("{\"a\\u00", Err(("truncated \\u escape", 4))),
    ("\"\\u00e9\\u12\"", Err(("truncated \\u escape", 8))),
    ("\"\\u123\"", Err(("bad \\u escape", 2))),
    ("\"\\u12g4\"", Err(("bad \\u escape", 2))),
    ("\"\\u-041\"", Err(("bad \\u escape", 2))),
    ("\"\\u 041\"", Err(("bad \\u escape", 2))),
    ("{\"k\":\"é\\u00zz\"}", Err(("bad \\u escape", 9))),
    // A multi-byte character straddling or inside the four-byte window.
    ("\"\\u12é4\"", Err(("bad \\u escape", 2))),
    ("\"\\u1€\"", Err(("bad \\u escape", 2))),
    ("\"\\u😀\"", Err(("bad \\u escape", 2))),
    ("\"\\u004é\"", Err(("bad \\u escape", 2))),
    // A sign is not a hex digit (`u32::from_str_radix` would take it).
    ("\"\\u+041\"", Err(("bad \\u escape", 2))),
    // A surrogate pair is one character; a surrogate on its own is none.
    ("\"\\ud83d\\ude00\"", Ok("\"😀\"")),
    ("\"\\uD83D\\uDE00\"", Ok("\"😀\"")),
    ("\"\\udbff\\udfff\"", Ok("\"\u{10ffff}\"")),
    ("\"\\ud83d\"", Err(("bad \\u code point", 2))),
    ("\"\\ude00\"", Err(("bad \\u code point", 2))),
    ("\"\\ud83dx\"", Err(("bad \\u code point", 2))),
    ("\"\\ud83d\\n\"", Err(("bad \\u code point", 2))),
    ("\"\\ud83d\\u0041\"", Err(("bad \\u code point", 2))),
    ("\"\\ud83d\\ud83d\"", Err(("bad \\u code point", 2))),
    ("\"\\ude00\\ud83d\"", Err(("bad \\u code point", 2))),
    ("\"ab\\ud83d\"", Err(("bad \\u code point", 4))),
    // The low half is an escape of its own: what is wrong with it is
    // reported at its `u`.
    ("\"\\ud83d\\ude0\"", Err(("bad \\u escape", 8))),
    ("\"\\ud83d\\ude0", Err(("truncated \\u escape", 8))),
    ("\"\\ud83d\\u+e00\"", Err(("bad \\u escape", 8))),
    // Outside strings.
    ("\"tab\there\" x", Err(("trailing data", 11))),
    ("{\"a\":1,}", Err(("expected `\"`", 7))),
    ("{\"a\" 1}", Err(("expected `:`", 5))),
    ("[1 2]", Err(("expected `,` or `]`", 3))),
    ("nul", Err(("invalid literal", 0))),
    ("-", Err(("malformed number", 1))),
    ("1e", Err(("malformed number", 2))),
    ("[[[[", Err(("expected a JSON value", 4))),
];

#[test]
fn malformed_documents_keep_their_messages_and_offsets() {
    for (doc, want) in CORPUS {
        let got = parse(doc).map(|v| v.render());
        match (got, want) {
            (Ok(got), Ok(want)) => assert_eq!(got, *want, "{doc:?}"),
            (Err(e), Err((message, offset))) => {
                assert_eq!(
                    (e.message.as_str(), e.offset),
                    (*message, Some(*offset)),
                    "{doc:?}"
                );
            }
            (got, want) => panic!("{doc:?}: got {got:?}, want {want:?}"),
        }
    }
}
