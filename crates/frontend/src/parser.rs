//! Recursive-descent parser for the EARTH-C subset.

use crate::ast::*;
use crate::token::{lex, LexError, Pos, Tok, Token};
use std::fmt;

/// What a [`ParseError`] reports, each with its diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// `FE001`: a lexical or syntactic error.
    Syntax,
    /// `FE003`: statements or expressions nested deeper than
    /// [`MAX_NESTING`].
    TooDeep,
}

impl ParseErrorKind {
    /// The diagnostic code of this kind of error.
    pub fn code(self) -> &'static str {
        match self {
            ParseErrorKind::Syntax => "FE001",
            ParseErrorKind::TooDeep => "FE003",
        }
    }
}

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Where the error occurred.
    pub pos: Pos,
    /// Description of the problem.
    pub message: String,
    /// Which diagnostic this is.
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: ", self.pos)?;
        if self.kind == ParseErrorKind::TooDeep {
            write!(f, "{} ", self.kind.code())?;
        }
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            pos: e.pos,
            message: e.message,
            kind: ParseErrorKind::Syntax,
        }
    }
}

/// The deepest an AST may nest: statements inside statements, operands
/// inside expressions, and the left-leaning spine of an operator chain
/// (`1 + 1 + 1 + ...`) all count. The parser, the lowering, the analyses,
/// the validator and the printer walk their trees recursively, and IR
/// nesting is AST nesting plus a constant, so this one bound keeps every
/// one of those walks inside its stack whatever the source text.
pub const MAX_NESTING: u32 = 128;

/// Parses a full translation unit.
///
/// # Errors
///
/// Returns the first lexical or syntactic error, or a
/// [`TooDeep`](ParseErrorKind::TooDeep) error for a program nested beyond
/// [`MAX_NESTING`].
pub fn parse_unit(src: &str) -> Result<Unit, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        i: 0,
        depth: 0,
    };
    p.unit()
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    i: usize,
    /// How many [`nest`](Parser::nest) scopes enclose the current token:
    /// an upper bound on the AST depth of the node being parsed.
    depth: u32,
}

/// An expression with the height of its tree (a leaf has height 1).
type Tall = (Expr, u32);

impl<'a> Parser<'a> {
    fn peek(&self) -> Tok<'a> {
        self.tokens[self.i].tok
    }

    fn peek2(&self) -> Tok<'a> {
        self.tokens[(self.i + 1).min(self.tokens.len() - 1)].tok
    }

    fn pos(&self) -> Pos {
        self.tokens[self.i].pos
    }

    fn bump(&mut self) -> Tok<'a> {
        let t = self.tokens[self.i].tok;
        if self.i + 1 < self.tokens.len() {
            self.i += 1;
        }
        t
    }

    fn eat(&mut self, t: Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            pos: self.pos(),
            message,
            kind: ParseErrorKind::Syntax,
        }
    }

    fn too_deep(&self) -> ParseError {
        ParseError {
            pos: self.pos(),
            message: format!("nesting too deep (more than {MAX_NESTING} levels)"),
            kind: ParseErrorKind::TooDeep,
        }
    }

    /// Runs `f` one nesting level further in.
    fn nest<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Checks that a subtree of height `height`, hanging from the current
    /// nesting level, stays within [`MAX_NESTING`]. This is what bounds
    /// operator chains, which grow a tree without any recursion here.
    fn check_height(&self, height: u32) -> Result<u32, ParseError> {
        if self.depth + height > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(height)
    }

    /// The one place a name moves from the source text into the AST.
    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s.to_string())
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    // ---- top level ----------------------------------------------------

    fn unit(&mut self) -> Result<Unit, ParseError> {
        let mut items = Vec::new();
        while self.peek() != Tok::Eof {
            if self.peek() == Tok::KwStruct && matches!(self.peek2(), Tok::Ident(_)) {
                // Could be a struct definition or a function returning a
                // struct pointer; look ahead for `{` after the name.
                let save = self.i;
                self.bump(); // struct
                let _name = self.ident()?;
                let is_def = self.peek() == Tok::LBrace;
                self.i = save;
                if is_def {
                    items.push(Item::Struct(self.struct_decl()?));
                    continue;
                }
            }
            items.push(Item::Func(self.func_decl()?));
        }
        Ok(Unit { items })
    }

    fn struct_decl(&mut self) -> Result<StructDecl, ParseError> {
        let pos = self.pos();
        self.expect(Tok::KwStruct)?;
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != Tok::RBrace {
            let ty = self.type_expr()?;
            let fname = self.ident()?;
            self.expect(Tok::Semi)?;
            fields.push((ty, fname));
        }
        self.expect(Tok::RBrace)?;
        self.expect(Tok::Semi)?;
        Ok(StructDecl { name, fields, pos })
    }

    /// Parses a type: `int`, `double`, `void`, `Name`, `Name*`,
    /// `struct Name`, `struct Name*`.
    fn type_expr(&mut self) -> Result<TypeExpr, ParseError> {
        let base = match self.peek() {
            Tok::KwInt => {
                self.bump();
                TypeExpr::Int
            }
            Tok::KwDouble => {
                self.bump();
                TypeExpr::Double
            }
            Tok::KwVoid => {
                self.bump();
                TypeExpr::Void
            }
            Tok::KwStruct => {
                self.bump();
                let n = self.ident()?;
                TypeExpr::Struct(n)
            }
            Tok::Ident(n) => {
                self.bump();
                TypeExpr::Struct(n.to_string())
            }
            other => return Err(self.err(format!("expected a type, found {other}"))),
        };
        if self.eat(Tok::Star) {
            match base {
                TypeExpr::Struct(n) => Ok(TypeExpr::Ptr(n)),
                _ => Err(self.err("only struct types may be pointed to".into())),
            }
        } else {
            Ok(base)
        }
    }

    fn func_decl(&mut self) -> Result<FuncDecl, ParseError> {
        let pos = self.pos();
        let ret = self.type_expr()?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Tok::RParen {
            loop {
                params.push(self.param()?);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;
        let body = self.stmt_list(Tok::RBrace)?;
        self.expect(Tok::RBrace)?;
        Ok(FuncDecl {
            ret,
            name,
            params,
            body,
            pos,
        })
    }

    /// Parses a parameter: `[qualifiers] type [local] [*] name`, accepting
    /// the paper's `node local *p` ordering as well as `local node *p`.
    fn param(&mut self) -> Result<Param, ParseError> {
        let pos = self.pos();
        let mut quals = Quals::default();
        while self.peek() == Tok::KwLocal || self.peek() == Tok::KwShared {
            match self.bump() {
                Tok::KwLocal => quals.local = true,
                Tok::KwShared => quals.shared = true,
                _ => unreachable!(),
            }
        }
        // Base type name (possibly followed by `local` then `*`).
        let base = match self.peek() {
            Tok::KwInt => {
                self.bump();
                TypeExpr::Int
            }
            Tok::KwDouble => {
                self.bump();
                TypeExpr::Double
            }
            Tok::KwStruct => {
                self.bump();
                let n = self.ident()?;
                TypeExpr::Struct(n)
            }
            Tok::Ident(n) => {
                self.bump();
                TypeExpr::Struct(n.to_string())
            }
            other => return Err(self.err(format!("expected parameter type, found {other}"))),
        };
        if self.eat(Tok::KwLocal) {
            quals.local = true;
        }
        let ty = if self.eat(Tok::Star) {
            match base {
                TypeExpr::Struct(n) => TypeExpr::Ptr(n),
                _ => return Err(self.err("only struct types may be pointed to".into())),
            }
        } else {
            base
        };
        let name = self.ident()?;
        Ok(Param {
            ty,
            quals,
            name,
            pos,
        })
    }

    // ---- statements ---------------------------------------------------

    fn stmt_list(&mut self, terminator: Tok) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        while self.peek() != terminator && self.peek() != Tok::Eof {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.eat(Tok::LBrace) {
            let ss = self.stmt_list(Tok::RBrace)?;
            self.expect(Tok::RBrace)?;
            Ok(ss)
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    /// Whether the upcoming tokens start a declaration.
    fn at_decl(&self) -> bool {
        match self.peek() {
            Tok::KwInt | Tok::KwDouble | Tok::KwShared | Tok::KwLocal | Tok::KwStruct => true,
            Tok::Ident(_) => {
                // `Name *x`, `Name x`, or `Name local *x` — an identifier
                // followed by `*`, another identifier, or `local` starts a
                // declaration; `Name =`, `Name ->` etc. do not.
                matches!(self.peek2(), Tok::Star | Tok::Ident(_) | Tok::KwLocal)
            }
            _ => false,
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nest(Self::stmt_unnested)
    }

    fn stmt_unnested(&mut self) -> Result<Stmt, ParseError> {
        // One small function per statement form: this one is on the stack
        // once per nesting level, so it keeps no form's locals itself.
        match self.peek() {
            Tok::LBrace => {
                self.bump();
                let ss = self.stmt_list(Tok::RBrace)?;
                self.expect(Tok::RBrace)?;
                Ok(Stmt::Block(ss))
            }
            Tok::ParOpen => {
                let pos = self.pos();
                self.bump();
                let ss = self.stmt_list(Tok::ParClose)?;
                self.expect(Tok::ParClose)?;
                Ok(Stmt::ParSeq(ss, pos))
            }
            Tok::KwIf => self.if_stmt(),
            Tok::KwWhile => self.while_stmt(),
            Tok::KwDo => self.do_stmt(),
            Tok::KwFor => self.for_stmt(),
            Tok::KwForall => self.forall_stmt(),
            Tok::KwSwitch => self.switch_stmt(),
            Tok::KwReturn => self.return_stmt(),
            _ if self.at_decl() => self.decl_stmt(),
            _ => {
                let s = self.simple_stmt_no_semi()?;
                self.expect(Tok::Semi)?;
                Ok(s)
            }
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        self.bump();
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        let then_s = self.block_or_single()?;
        let else_s = if self.eat(Tok::KwElse) {
            self.block_or_single()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_s,
            else_s,
            pos,
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        self.bump();
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        let body = self.block_or_single()?;
        Ok(Stmt::While { cond, body, pos })
    }

    fn do_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        self.bump();
        let body = self.block_or_single()?;
        self.expect(Tok::KwWhile)?;
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        self.expect(Tok::Semi)?;
        Ok(Stmt::DoWhile { body, cond, pos })
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        self.bump();
        self.expect(Tok::LParen)?;
        let init = if self.peek() == Tok::Semi {
            None
        } else {
            Some(Box::new(self.simple_stmt_no_semi()?))
        };
        self.expect(Tok::Semi)?;
        let cond = if self.peek() == Tok::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(Tok::Semi)?;
        let step = if self.peek() == Tok::RParen {
            None
        } else {
            Some(Box::new(self.simple_stmt_no_semi()?))
        };
        self.expect(Tok::RParen)?;
        let body = self.block_or_single()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
            pos,
        })
    }

    fn forall_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        self.bump();
        self.expect(Tok::LParen)?;
        let init = Box::new(self.simple_stmt_no_semi()?);
        self.expect(Tok::Semi)?;
        let cond = self.expr()?;
        self.expect(Tok::Semi)?;
        let step = Box::new(self.simple_stmt_no_semi()?);
        self.expect(Tok::RParen)?;
        let body = self.block_or_single()?;
        Ok(Stmt::Forall {
            init,
            cond,
            step,
            body,
            pos,
        })
    }

    fn switch_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        self.bump();
        self.expect(Tok::LParen)?;
        let scrut = self.expr()?;
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;
        let mut cases = Vec::new();
        let mut default = Vec::new();
        while self.peek() != Tok::RBrace {
            if self.eat(Tok::KwCase) {
                let v = match self.bump() {
                    Tok::Int(v) => v,
                    Tok::Minus => match self.bump() {
                        Tok::Int(v) => -v,
                        other => {
                            return Err(self.err(format!("expected case value, found {other}")))
                        }
                    },
                    other => return Err(self.err(format!("expected case value, found {other}"))),
                };
                self.expect(Tok::Colon)?;
                let mut body = Vec::new();
                while !matches!(
                    self.peek(),
                    Tok::KwCase | Tok::KwDefault | Tok::RBrace | Tok::KwBreak
                ) {
                    body.push(self.stmt()?);
                }
                if self.eat(Tok::KwBreak) {
                    self.expect(Tok::Semi)?;
                }
                cases.push((v, body));
            } else if self.eat(Tok::KwDefault) {
                self.expect(Tok::Colon)?;
                while !matches!(
                    self.peek(),
                    Tok::KwCase | Tok::KwDefault | Tok::RBrace | Tok::KwBreak
                ) {
                    default.push(self.stmt()?);
                }
                if self.eat(Tok::KwBreak) {
                    self.expect(Tok::Semi)?;
                }
            } else {
                return Err(self.err(format!(
                    "expected `case`, `default` or `}}`, found {}",
                    self.peek()
                )));
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(Stmt::Switch {
            scrut,
            cases,
            default,
            pos,
        })
    }

    fn return_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        self.bump();
        let e = if self.peek() == Tok::Semi {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(Tok::Semi)?;
        Ok(Stmt::Return(e, pos))
    }

    fn decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        let mut quals = Quals::default();
        loop {
            if self.eat(Tok::KwShared) {
                quals.shared = true;
            } else if self.eat(Tok::KwLocal) {
                quals.local = true;
            } else {
                break;
            }
        }
        let base = self.type_expr()?;
        // Accept `Point local *p` ordering too.
        let ty = if self.eat(Tok::KwLocal) {
            quals.local = true;
            if self.eat(Tok::Star) {
                match base {
                    TypeExpr::Struct(n) => TypeExpr::Ptr(n),
                    _ => return Err(self.err("only struct types may be pointed to".into())),
                }
            } else {
                base
            }
        } else {
            base
        };
        let name = self.ident()?;
        let init = if self.eat(Tok::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(Tok::Semi)?;
        Ok(Stmt::Decl {
            ty,
            quals,
            name,
            init,
            pos,
        })
    }

    /// An assignment or call without the trailing semicolon (for use in
    /// `for`/`forall` headers and ordinary statements).
    fn simple_stmt_no_semi(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        // Lookahead: IDENT ( ... is a call; otherwise an lvalue assignment.
        if matches!(self.peek(), Tok::Ident(_)) && self.peek2() == Tok::LParen {
            let e = self.expr()?;
            // Could still be `f(x) == y`-style inside an expression
            // statement; we only allow pure call statements here.
            if let Expr::Call { .. } = e {
                return Ok(Stmt::ExprStmt(e));
            }
            return Err(self.err("expected a statement".into()));
        }
        let lv = self.lvalue()?;
        self.expect(Tok::Assign)?;
        let rhs = self.expr()?;
        Ok(Stmt::Assign { lv, rhs, pos })
    }

    fn lvalue(&mut self) -> Result<LValue, ParseError> {
        let pos = self.pos();
        // `(*p).f` form.
        if self.peek() == Tok::LParen && self.peek2() == Tok::Star {
            self.bump(); // (
            self.bump(); // *
            let base = self.ident()?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::Dot)?;
            let path = self.field_path()?;
            return Ok(LValue::FieldPath {
                base,
                arrow: true,
                path,
                pos,
            });
        }
        let base = self.ident()?;
        match self.peek() {
            Tok::Arrow | Tok::Dot => {
                let arrow = self.bump() == Tok::Arrow;
                Ok(LValue::FieldPath {
                    base,
                    arrow,
                    path: self.field_path()?,
                    pos,
                })
            }
            _ => Ok(LValue::Var(base, pos)),
        }
    }

    // ---- expressions --------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.binary_expr(0)?.0)
    }

    /// The binary operator `t` spells, with its precedence: `||` binds
    /// loosest, then `&&`, comparisons, additive and multiplicative
    /// operators. All are left-associative.
    fn binary_op(t: Tok<'_>) -> Option<(AstBinOp, u8)> {
        Some(match t {
            Tok::OrOr => (AstBinOp::Or, 0),
            Tok::AndAnd => (AstBinOp::And, 1),
            Tok::EqEq => (AstBinOp::Eq, 2),
            Tok::NotEq => (AstBinOp::Ne, 2),
            Tok::Lt => (AstBinOp::Lt, 2),
            Tok::Le => (AstBinOp::Le, 2),
            Tok::Gt => (AstBinOp::Gt, 2),
            Tok::Ge => (AstBinOp::Ge, 2),
            Tok::Plus => (AstBinOp::Add, 3),
            Tok::Minus => (AstBinOp::Sub, 3),
            Tok::Star => (AstBinOp::Mul, 4),
            Tok::Slash => (AstBinOp::Div, 4),
            Tok::Percent => (AstBinOp::Rem, 4),
            _ => return None,
        })
    }

    /// An expression of operators binding at least as tightly as
    /// `min_prec` (precedence climbing). A right operand recurses only as
    /// deep as there are precedence levels; a chain of one level's
    /// operators grows the tree leftwards in the loop, without recursing,
    /// so the loop checks the height itself.
    fn binary_expr(&mut self, min_prec: u8) -> Result<Tall, ParseError> {
        let (mut lhs, mut height) = self.unary_expr()?;
        while let Some((op, prec)) = Self::binary_op(self.peek()) {
            if prec < min_prec {
                break;
            }
            let pos = self.pos();
            self.bump();
            let (rhs, rhs_height) = self.binary_expr(prec + 1)?;
            height = self.check_height(1 + height.max(rhs_height))?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        Ok((lhs, height))
    }

    fn unary_expr(&mut self) -> Result<Tall, ParseError> {
        let pos = self.pos();
        let op = match self.peek() {
            Tok::Minus => AstUnOp::Neg,
            Tok::Not => AstUnOp::Not,
            Tok::Amp => {
                self.bump();
                let name = self.ident()?;
                return Ok((Expr::AddrOf(name, pos), 1));
            }
            _ => return self.postfix_expr(),
        };
        self.bump();
        let (arg, height) = self.nest(Self::unary_expr)?;
        let arg = Box::new(arg);
        Ok((Expr::Unary { op, arg, pos }, height + 1))
    }

    fn postfix_expr(&mut self) -> Result<Tall, ParseError> {
        let pos = self.pos();
        let leaf = match self.peek() {
            Tok::Int(v) => {
                self.bump();
                Expr::Int(v, pos)
            }
            Tok::Double(v) => {
                self.bump();
                Expr::Double(v, pos)
            }
            Tok::KwNull => {
                self.bump();
                Expr::Null(pos)
            }
            Tok::KwSizeof => {
                self.bump();
                self.expect(Tok::LParen)?;
                // Accept `sizeof(Name)` and `sizeof(struct Name)`.
                self.eat(Tok::KwStruct);
                let n = self.ident()?;
                self.expect(Tok::RParen)?;
                Expr::Sizeof(n, pos)
            }
            Tok::LParen => {
                // `(*p).f` or parenthesized expression.
                if self.peek2() == Tok::Star {
                    let save = self.i;
                    self.bump(); // (
                    self.bump(); // *
                    if let Tok::Ident(base) = self.peek() {
                        self.bump();
                        if self.eat(Tok::RParen) && self.eat(Tok::Dot) {
                            let e = Expr::FieldPath {
                                base: base.to_string(),
                                arrow: true,
                                path: self.field_path()?,
                                pos,
                            };
                            return Ok((e, 1));
                        }
                    }
                    self.i = save;
                }
                self.bump();
                let inner = self.nest(|p| p.binary_expr(0))?;
                self.expect(Tok::RParen)?;
                return Ok(inner);
            }
            Tok::Ident(name) => {
                self.bump();
                let name = name.to_string();
                match self.peek() {
                    Tok::LParen => return self.call(name, pos),
                    Tok::Arrow | Tok::Dot => {
                        let arrow = self.bump() == Tok::Arrow;
                        Expr::FieldPath {
                            base: name,
                            arrow,
                            path: self.field_path()?,
                            pos,
                        }
                    }
                    _ => Expr::Var(name, pos),
                }
            }
            other => return Err(self.err(format!("expected an expression, found {other}"))),
        };
        Ok((leaf, 1))
    }

    /// `a.b.c` after the `->` or `.` that introduces it.
    fn field_path(&mut self) -> Result<Vec<String>, ParseError> {
        let mut path = vec![self.ident()?];
        while self.eat(Tok::Dot) {
            path.push(self.ident()?);
        }
        Ok(path)
    }

    /// The rest of a call whose callee `name` has been consumed: the
    /// argument list and an optional `@` placement.
    fn call(&mut self, name: String, pos: Pos) -> Result<Tall, ParseError> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        let mut height = 0;
        if self.peek() != Tok::RParen {
            loop {
                let (arg, h) = self.nest(|p| p.binary_expr(0))?;
                args.push(arg);
                height = height.max(h);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let at = if self.eat(Tok::At) {
            if self.eat(Tok::KwOwnerOf) {
                self.expect(Tok::LParen)?;
                let p = self.ident()?;
                self.expect(Tok::RParen)?;
                Some(AtClause::OwnerOf(p))
            } else {
                let (e, h) = self.nest(Self::postfix_expr)?;
                height = height.max(h);
                Some(AtClause::Node(Box::new(e)))
            }
        } else {
            None
        };
        let e = Expr::Call {
            name,
            args,
            at,
            pos,
        };
        Ok((e, height + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_struct_and_function() {
        let src = r#"
            struct Point { double x; double y; };
            double distance(Point *p) {
                double d;
                d = sqrt(p->x * p->x + p->y * p->y);
                return d;
            }
        "#;
        let unit = parse_unit(src).unwrap();
        assert_eq!(unit.items.len(), 2);
        match &unit.items[0] {
            Item::Struct(s) => {
                assert_eq!(s.name, "Point");
                assert_eq!(s.fields.len(), 2);
            }
            _ => panic!("expected struct"),
        }
        match &unit.items[1] {
            Item::Func(f) => {
                assert_eq!(f.name, "distance");
                assert_eq!(f.params.len(), 1);
                assert_eq!(f.params[0].ty, TypeExpr::Ptr("Point".into()));
            }
            _ => panic!("expected function"),
        }
    }

    #[test]
    fn parses_forall_and_shared() {
        let src = r#"
            struct node { node* next; int value; };
            int count(node *head, node *x) {
                shared int count;
                node *p;
                writeto(&count, 0);
                forall (p = head; p != NULL; p = p->next) {
                    if (equal_node(p, x) @ OWNER_OF(p)) {
                        addto(&count, 1);
                    }
                }
                return valueof(&count);
            }
            int equal_node(node local *p, node *q) {
                return p->value == q->value;
            }
        "#;
        let unit = parse_unit(src).unwrap();
        assert_eq!(unit.items.len(), 3);
        if let Item::Func(f) = &unit.items[2] {
            assert!(f.params[0].quals.local);
            assert!(!f.params[1].quals.local);
        } else {
            panic!();
        }
    }

    #[test]
    fn parses_parallel_sequence() {
        let src = r#"
            struct node { node* next; int v; };
            int count_rec(node *head, node *x) {
                int c1;
                int c2;
                {^
                    c1 = equal_node(head, x) @ OWNER_OF(x);
                    c2 = count_rec(head->next, x);
                ^}
                return c1 + c2;
            }
            int equal_node(node *p, node local *q) { return 1; }
        "#;
        let unit = parse_unit(src).unwrap();
        if let Item::Func(f) = &unit.items[1] {
            let has_par = f
                .body
                .iter()
                .any(|s| matches!(s, Stmt::ParSeq(arms, _) if arms.len() == 2));
            assert!(has_par, "expected a two-arm parallel sequence");
        } else {
            panic!();
        }
    }

    #[test]
    fn parses_nested_field_paths() {
        let src = r#"
            struct H { int a; };
            void f(H *village) {
                int t;
                t = (*village).hosp.free_personnel;
                village->hosp.free_personnel = t;
            }
        "#;
        let unit = parse_unit(src).unwrap();
        if let Item::Func(f) = &unit.items[1] {
            match &f.body[1] {
                Stmt::Assign { rhs, .. } => match rhs {
                    Expr::FieldPath {
                        base, arrow, path, ..
                    } => {
                        assert_eq!(base, "village");
                        assert!(arrow);
                        assert_eq!(
                            path,
                            &vec!["hosp".to_string(), "free_personnel".to_string()]
                        );
                    }
                    _ => panic!("expected field path"),
                },
                _ => panic!("expected assignment"),
            }
        }
    }

    #[test]
    fn parses_switch() {
        let src = r#"
            struct Q { int c; };
            int f(int q1) {
                int p1;
                switch (q1) {
                    case 0: p1 = 1; break;
                    case 1: p1 = 2; break;
                    default: p1 = 3;
                }
                return p1;
            }
        "#;
        let unit = parse_unit(src).unwrap();
        if let Item::Func(f) = &unit.items[1] {
            match &f.body[1] {
                Stmt::Switch { cases, default, .. } => {
                    assert_eq!(cases.len(), 2);
                    assert_eq!(default.len(), 1);
                }
                _ => panic!("expected switch"),
            }
        }
    }

    #[test]
    fn parses_for_and_do_while() {
        let src = r#"
            struct S { int x; };
            void f() {
                int i;
                for (i = 0; i < 10; i = i + 1) { i = i; }
                do { i = i - 1; } while (i > 0);
            }
        "#;
        let unit = parse_unit(src).unwrap();
        if let Item::Func(f) = &unit.items[1] {
            assert!(matches!(f.body[1], Stmt::For { .. }));
            assert!(matches!(f.body[2], Stmt::DoWhile { .. }));
        }
    }

    #[test]
    fn error_has_position() {
        let e = parse_unit("struct P { int x; }").unwrap_err();
        assert!(e.pos.line >= 1);
    }

    #[test]
    fn malloc_with_sizeof() {
        let src = r#"
            struct N { N* next; };
            void f() {
                N *p;
                p = malloc(sizeof(N));
                p = malloc_on(3, sizeof(N));
            }
        "#;
        parse_unit(src).unwrap();
    }

    #[test]
    fn precedence() {
        let src = r#"
            struct S { int x; };
            void f() {
                int a;
                a = 1 + 2 * 3 < 4 && 5 == 6 || 0 != 1;
            }
        "#;
        let unit = parse_unit(src).unwrap();
        if let Item::Func(f) = &unit.items[1] {
            if let Stmt::Assign { rhs, .. } = &f.body[1] {
                // Top-level must be `||`.
                assert!(
                    matches!(
                        rhs,
                        Expr::Binary {
                            op: AstBinOp::Or,
                            ..
                        }
                    ),
                    "got {rhs:?}"
                );
            }
        }
    }
}
