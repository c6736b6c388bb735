//! Fuzz-style property: the frontend never panics, whatever bytes it is
//! fed — it either produces a program or a positioned error.

#[test]
fn arbitrary_ascii_never_panics() {
    earth_qcheck::cases(256, |rng| {
        let len = rng.index(401);
        let src: String = (0..len)
            .map(|_| {
                // Printable ASCII plus newline, mirroring the old `[ -~\n]`.
                let c = rng.range(b' ' as i64, b'~' as i64 + 2) as u8;
                if c > b'~' {
                    '\n'
                } else {
                    c as char
                }
            })
            .collect();
        let _ = earth_frontend::compile(&src);
    });
}

#[test]
fn token_soup_never_panics() {
    const TOKENS: &[&str] = &[
        "struct", "int", "double", "if", "while", "forall", "return", "{^", "^}", "{", "}", "(",
        ")", ";", "->", "*", "=", "p", "S", "42", "@", "OWNER_OF", "NULL", "sizeof", "&", "shared",
        "local",
    ];
    earth_qcheck::cases(256, |rng| {
        let len = rng.index(60);
        let src = (0..len)
            .map(|_| *rng.pick(TOKENS))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = earth_frontend::compile(&src);
    });
}

/// Hostile nesting: every way the grammar nests, repeated far past any
/// stack, alone and inside one another, cut off at a random point.
#[test]
fn deep_nesting_never_panics() {
    const OPENERS: &[&str] = &[
        "(", "-", "!", "f(", "f(1, ", "f() @ ", "1 + ", "1 * (", "1 && ", "1 < ",
    ];
    const NESTERS: &[&str] = &[
        "if (1) ",
        "if (1) { ",
        "while (1) ",
        "do { ",
        "{ ",
        "{^ ",
        "for (;;) ",
        "if (1) x = 1; else ",
        "switch (1) { case 1: ",
    ];
    earth_qcheck::cases(48, |rng| {
        let mut src = String::from("int f() { return 1; } int main() { int x; ");
        for _ in 0..1 + rng.index(3) {
            let depth = 1 + rng.index(40_000);
            if rng.index(2) == 0 {
                let nester = *rng.pick(NESTERS);
                src.extend(std::iter::repeat_n(nester, depth));
                src.push_str("x = 1; ");
            } else {
                src.push_str("x = ");
                let opener = *rng.pick(OPENERS);
                src.extend(std::iter::repeat_n(opener, depth));
                src.push_str("1 ");
                if rng.index(2) == 0 {
                    src.extend(std::iter::repeat_n(")", depth));
                }
                src.push_str("; ");
            }
        }
        src.push_str("return x; }");
        let cut = rng.index(src.len() + 1);
        let _ = earth_frontend::compile(&src[..cut]);
        let _ = earth_frontend::compile(&src);
    });
}
