//! Error-path coverage for the EARTH-C frontend: every rejection carries a
//! position and a useful message.

use earth_frontend::{compile, FrontendError};

fn err(src: &str) -> String {
    match compile(src) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("expected an error for:\n{src}"),
    }
}

#[test]
fn unknown_struct_in_field() {
    let e = err("struct A { B* x; }; int main() { return 0; }");
    assert!(e.contains("unknown struct"), "{e}");
}

#[test]
fn recursive_by_value_struct() {
    let e = err("struct A { A inner; }; int main() { return 0; }");
    assert!(e.contains("recursively contains itself"), "{e}");
}

#[test]
fn duplicate_struct() {
    let e = err("struct A { int x; }; struct A { int y; }; int main() { return 0; }");
    assert!(e.contains("duplicate struct"), "{e}");
}

#[test]
fn duplicate_function() {
    let e = err("struct A { int x; }; int f() { return 0; } int f() { return 1; } ");
    assert!(e.contains("duplicate function"), "{e}");
}

#[test]
fn builtin_shadowing() {
    let e = err("struct A { int x; }; int sqrt(int v) { return v; }");
    assert!(e.contains("shadows a builtin"), "{e}");
}

#[test]
fn void_variable() {
    let e = err("struct A { int x; }; int main() { void v; return 0; }");
    assert!(e.contains("void"), "{e}");
}

#[test]
fn arrow_on_struct_value() {
    let e = err("struct A { int x; }; int main() { A s; s.x = 1; return s->x; }");
    assert!(e.contains("use `.`"), "{e}");
}

#[test]
fn dot_on_pointer() {
    let e = err("struct A { int x; }; int f(A *p) { return p.x; }");
    assert!(e.contains("use `->`"), "{e}");
}

#[test]
fn unknown_field() {
    let e = err("struct A { int x; }; int f(A *p) { return p->y; }");
    assert!(e.contains("no field `y`"), "{e}");
}

#[test]
fn unknown_function_call() {
    let e = err("struct A { int x; }; int main() { return g(); }");
    assert!(e.contains("unknown function"), "{e}");
}

#[test]
fn arity_mismatch() {
    let e = err("struct A { int x; }; int g(int a) { return a; } int main() { return g(); }");
    assert!(e.contains("expects 1 arguments"), "{e}");
}

#[test]
fn local_on_non_pointer() {
    let e = err("struct A { int x; }; int main() { local int v; return 0; }");
    assert!(e.contains("`local` only applies to pointers"), "{e}");
}

#[test]
fn shared_must_be_int() {
    let e = err("struct A { int x; }; int main() { shared double d; return 0; }");
    assert!(e.contains("must have type int"), "{e}");
}

#[test]
fn shared_read_requires_valueof() {
    let e = err("struct A { int x; }; int main() { shared int c; return c; }");
    assert!(e.contains("valueof"), "{e}");
}

#[test]
fn shared_write_requires_writeto() {
    let e = err("struct A { int x; }; int main() { shared int c; c = 1; return 0; }");
    assert!(e.contains("writeto"), "{e}");
}

#[test]
fn addr_of_outside_atomics() {
    let e = err("struct A { int x; }; int main() { int v; int w; w = &v; return w; }");
    assert!(e.contains("&"), "{e}");
}

#[test]
fn sizeof_outside_malloc() {
    let e = err("struct A { int x; }; int main() { return sizeof(A); }");
    assert!(e.contains("sizeof"), "{e}");
}

#[test]
fn forall_step_too_complex() {
    let e = err(r#"
        struct N { N* next; int v; };
        int main() {
            N *p;
            forall (p = NULL; p != NULL; p = p->next->next) { }
            return 0;
        }
    "#);
    // p->next->next is not even parseable as a single postfix chain in the
    // subset; whichever stage rejects it must say something useful.
    assert!(!e.is_empty());
}

#[test]
fn forall_impure_condition() {
    let e = err(r#"
        struct N { N* next; int v; };
        int main() {
            N *p;
            N *q;
            q = malloc(sizeof(N));
            q->v = 1;
            forall (p = q; q->v > 0; p = p->next) { }
            return 0;
        }
    "#);
    assert!(e.contains("simple comparisons"), "{e}");
}

#[test]
fn missing_return_value() {
    let e = err("struct A { int x; }; int main() { return; }");
    assert!(e.contains("missing return value"), "{e}");
}

#[test]
fn void_function_returning_value() {
    let e = err("struct A { int x; }; void f() { return 3; } int main() { return 0; }");
    assert!(e.contains("void function returns"), "{e}");
}

#[test]
fn void_function_used_as_value() {
    let e = err("struct A { int x; }; void f() { } int main() { return f(); }");
    assert!(e.contains("void"), "{e}");
}

#[test]
fn positions_point_at_the_problem() {
    let e = compile("struct A { int x; };\nint main() {\n    return y;\n}").unwrap_err();
    match e {
        FrontendError::Lower(le) => assert_eq!(le.pos.line, 3, "{le}"),
        other => panic!("expected lower error, got {other}"),
    }
}

/// Columns count characters, not bytes: the comment ahead of the error
/// holds two-, three- and four-byte characters.
#[test]
fn columns_count_characters_after_non_ascii_comments() {
    let e = compile("struct A { int x; };\nint main() { /* naïve ✓ 漢字 */ return $; } // é")
        .unwrap_err();
    assert_eq!(
        e.to_string(),
        "parse error at 2:38: unexpected character `$`"
    );
    let e = compile("struct A { int x; };\n// ünïcödé ✓\nint main() { /* 漢 */ return y; }")
        .unwrap_err();
    assert_eq!(
        e.to_string(),
        "error at 3:29: unknown variable `y` in `main`"
    );
}

/// The `FE003` diagnostic of a program nested past `MAX_NESTING`, with
/// the position it was reported at.
fn too_deep(src: &str) -> earth_frontend::Pos {
    match compile(src) {
        Err(e @ FrontendError::Parse(_)) => {
            let d = e.to_diagnostic();
            assert_eq!(d.code, "FE003", "{e}");
            assert!(d.message.contains("nesting too deep"), "{e}");
            assert!(e.to_string().contains("FE003 nesting too deep"), "{e}");
            let FrontendError::Parse(p) = e else {
                unreachable!()
            };
            assert_eq!(p.kind, earth_frontend::ParseErrorKind::TooDeep);
            p.pos
        }
        Err(other) => panic!("expected FE003, got {other}"),
        Ok(_) => panic!("expected FE003, got a program"),
    }
}

/// 200,000 parentheses: recursion through `expr`.
#[test]
fn deep_parentheses_are_fe003() {
    let n = 200_000;
    let src = format!(
        "int main() {{ return {}1{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    );
    let pos = too_deep(&src);
    // Reported where the budget ran out, not at the end of the input.
    assert_eq!(pos.line, 1);
    assert!(
        (20..20 + 2 * earth_frontend::MAX_NESTING).contains(&pos.col),
        "{pos}"
    );
}

/// 200,000 nested `if`s: recursion through `stmt`.
#[test]
fn deep_statement_nesting_is_fe003() {
    let src = format!("int main() {{ {} return 1; }}", "if (1) ".repeat(200_000));
    let pos = too_deep(&src);
    assert_eq!(pos.line, 1);
    assert!(pos.col < 8 * (earth_frontend::MAX_NESTING + 4), "{pos}");
}

/// A 200,000-term sum: the parser loops, but the tree it would build is
/// 200,000 deep on its left spine, and the lowering recurses over it.
#[test]
fn long_operator_chains_are_fe003() {
    let src = format!("int main() {{ return 1{}; }}", "+1".repeat(200_000));
    let pos = too_deep(&src);
    assert_eq!(pos.line, 1);
    assert!(pos.col < 2 * (earth_frontend::MAX_NESTING + 16), "{pos}");
}

/// Nesting up to the limit is a program like any other: it goes through
/// the recursive lowering and the validator on a test thread's stack.
#[test]
fn nesting_within_the_limit_compiles() {
    let n = earth_frontend::MAX_NESTING as usize - 8;
    let parens = format!(
        "int main() {{ return {}1{}; }}",
        "(".repeat(n),
        ")".repeat(n)
    );
    compile(&parens).expect("parentheses within the limit");
    let sum = format!("int main() {{ return 1{}; }}", "+1".repeat(n));
    compile(&sum).expect("a sum within the limit");
    let ifs = format!(
        "int main() {{ {} return 1; return 0; }}",
        "if (1) ".repeat(n)
    );
    compile(&ifs).expect("ifs within the limit");
}
