//! Recursive-descent parser from SMT-LIB text to [`Script`]s and [`Term`]s.
//!
//! The parser accepts both SMT-LIB 2.6 operator spellings and the legacy Z3
//! spellings the paper's figures use (`str.in.re`, `str.to.int`,
//! `int.to.str`, ...). Attribute annotations `(! t :attr v)` are parsed and
//! stripped.

use crate::lexer::{tokenize, LexError, Token, TokenKind};
use crate::script::{Command, Script};
use crate::sort::Sort;
use crate::symbol::Symbol;
use crate::term::{Op, Quantifier, Term};
use std::fmt;
use yinyang_arith::{BigInt, BigRational};

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the source (best effort).
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { message: e.message, offset: e.offset }
    }
}

/// Maps an operator symbol (canonical or legacy spelling) to its [`Op`].
pub fn op_for_symbol(s: &str) -> Option<Op> {
    Some(match s {
        "not" => Op::Not,
        "=>" => Op::Implies,
        "and" => Op::And,
        "or" => Op::Or,
        "xor" => Op::Xor,
        "=" => Op::Eq,
        "distinct" => Op::Distinct,
        "ite" => Op::Ite,
        "+" => Op::Add,
        "*" => Op::Mul,
        "/" => Op::RealDiv,
        "div" => Op::IntDiv,
        "mod" => Op::Mod,
        "abs" => Op::Abs,
        "<=" => Op::Le,
        "<" => Op::Lt,
        ">=" => Op::Ge,
        ">" => Op::Gt,
        "to_real" | "to-real" => Op::ToReal,
        "to_int" | "to-int" => Op::ToInt,
        "is_int" | "is-int" => Op::IsInt,
        "str.++" => Op::StrConcat,
        "str.len" => Op::StrLen,
        "str.at" => Op::StrAt,
        "str.substr" => Op::StrSubstr,
        "str.prefixof" => Op::StrPrefixOf,
        "str.suffixof" => Op::StrSuffixOf,
        "str.contains" => Op::StrContains,
        "str.indexof" => Op::StrIndexOf,
        "str.replace" => Op::StrReplace,
        "str.replace_all" | "str.replaceall" => Op::StrReplaceAll,
        "str.in_re" | "str.in.re" => Op::StrInRe,
        "str.to_re" | "str.to.re" => Op::StrToRe,
        "str.to_int" | "str.to.int" => Op::StrToInt,
        "str.from_int" | "int.to.str" | "int.to_str" => Op::StrFromInt,
        "re.none" | "re.nostr" => Op::ReNone,
        "re.all" => Op::ReAll,
        "re.allchar" => Op::ReAllChar,
        "re.++" => Op::ReConcat,
        "re.union" => Op::ReUnion,
        "re.inter" => Op::ReInter,
        "re.*" => Op::ReStar,
        "re.+" => Op::RePlus,
        "re.opt" => Op::ReOpt,
        "re.range" => Op::ReRange,
        _ => return None,
    })
}

/// The deepest parenthesized nesting the parser accepts inside a term or
/// an attribute value (sorts are atoms in this grammar, so they can't
/// nest). Deeper input is a [`ParseError`], never a stack overflow: a
/// script nested exactly this deep parses, type-checks, prints and solves
/// on a thread spawned with the default stack, unoptimized builds
/// included.
pub const MAX_NESTING: usize = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Open parentheses of the term or s-expression being parsed.
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0, depth: 0 }
    }

    /// Enters one level of nesting, refusing to go past [`MAX_NESTING`].
    /// Callers leave with `self.depth -= 1` on success only: any error
    /// abandons the whole parse.
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        let offset = self.tokens.get(self.pos).map_or(usize::MAX, |t| t.offset);
        Err(ParseError { message: message.into(), offset })
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn next(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_lparen(&mut self) -> Result<(), ParseError> {
        match self.next() {
            Some(TokenKind::LParen) => Ok(()),
            other => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected '(', found {other:?}"))
            }
        }
    }

    fn expect_rparen(&mut self) -> Result<(), ParseError> {
        match self.next() {
            Some(TokenKind::RParen) => Ok(()),
            other => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected ')', found {other:?}"))
            }
        }
    }

    fn expect_symbol(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(TokenKind::Symbol(s)) => Ok(s),
            other => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected symbol, found {other:?}"))
            }
        }
    }

    fn parse_sort(&mut self) -> Result<Sort, ParseError> {
        let name = self.expect_symbol()?;
        name.parse::<Sort>().or_else(|e| self.err(e.to_string()))
    }

    /// Skips one balanced s-expression, returning its verbatim rendering.
    fn skip_sexpr(&mut self) -> Result<String, ParseError> {
        match self.next() {
            None => self.err("unexpected end of input in s-expression"),
            Some(TokenKind::LParen) => {
                self.enter()?;
                let mut parts = Vec::new();
                while !matches!(self.peek(), Some(TokenKind::RParen)) {
                    if self.peek().is_none() {
                        return self.err("unterminated s-expression");
                    }
                    parts.push(self.skip_sexpr()?);
                }
                self.expect_rparen()?;
                self.depth -= 1;
                Ok(format!("({})", parts.join(" ")))
            }
            Some(TokenKind::RParen) => {
                self.pos -= 1;
                self.err("unexpected ')'")
            }
            Some(tok) => Ok(tok.to_string()),
        }
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.next() {
            None => self.err("unexpected end of input in term"),
            Some(TokenKind::Numeral(n)) => {
                let v: BigInt =
                    n.parse().map_err(|e| ParseError { message: format!("{e}"), offset: 0 })?;
                Ok(Term::int_big(v))
            }
            Some(TokenKind::Decimal(d)) => {
                let v = BigRational::from_decimal_str(&d)
                    .map_err(|e| ParseError { message: format!("{e}"), offset: 0 })?;
                Ok(Term::real(v))
            }
            Some(TokenKind::StringLit(s)) => Ok(Term::str_lit(s)),
            Some(TokenKind::Symbol(s)) => match s.as_str() {
                "true" => Ok(Term::tru()),
                "false" => Ok(Term::fals()),
                _ => match op_for_symbol(&s) {
                    // Nullary regex constants appear bare.
                    Some(op) if matches!(op.arity(), crate::term::Arity::Exact(0)) => {
                        Ok(Term::app(op, vec![]))
                    }
                    _ => Ok(Term::var(s)),
                },
            },
            Some(TokenKind::Keyword(k)) => self.err(format!("keyword :{k} is not a term")),
            Some(TokenKind::RParen) => {
                self.pos -= 1;
                self.err("unexpected ')' in term")
            }
            Some(TokenKind::LParen) => {
                self.enter()?;
                let head = match self.peek() {
                    Some(TokenKind::Symbol(s)) => s.clone(),
                    other => return self.err(format!("expected operator, found {other:?}")),
                };
                self.pos += 1;
                let term = match head.as_str() {
                    "let" => {
                        self.expect_lparen()?;
                        let mut bindings = Vec::new();
                        while !matches!(self.peek(), Some(TokenKind::RParen)) {
                            self.expect_lparen()?;
                            let name = self.expect_symbol()?;
                            let value = self.parse_term()?;
                            self.expect_rparen()?;
                            bindings.push((Symbol::new(name), value));
                        }
                        self.expect_rparen()?;
                        let body = self.parse_term()?;
                        Term::let_in(bindings, body)
                    }
                    "forall" | "exists" => {
                        let q =
                            if head == "forall" { Quantifier::Forall } else { Quantifier::Exists };
                        self.expect_lparen()?;
                        let mut bindings = Vec::new();
                        while !matches!(self.peek(), Some(TokenKind::RParen)) {
                            self.expect_lparen()?;
                            let name = self.expect_symbol()?;
                            let sort = self.parse_sort()?;
                            self.expect_rparen()?;
                            bindings.push((Symbol::new(name), sort));
                        }
                        self.expect_rparen()?;
                        if bindings.is_empty() {
                            return self.err("quantifier with no bindings");
                        }
                        let body = self.parse_term()?;
                        Term::quant(q, bindings, body)
                    }
                    "!" => {
                        // Annotated term: parse the term, skip attributes.
                        let inner = self.parse_term()?;
                        while matches!(self.peek(), Some(TokenKind::Keyword(_))) {
                            self.pos += 1;
                            // Attribute value is optional; skip if present.
                            if !matches!(
                                self.peek(),
                                Some(TokenKind::Keyword(_)) | Some(TokenKind::RParen) | None
                            ) {
                                self.skip_sexpr()?;
                            }
                        }
                        inner
                    }
                    "-" => {
                        let mut args = Vec::new();
                        while !matches!(self.peek(), Some(TokenKind::RParen)) {
                            args.push(self.parse_term()?);
                        }
                        match args.len() {
                            0 => return self.err("'-' needs at least one argument"),
                            1 => {
                                let arg = args.pop().expect("len checked");
                                // Fold (- 1) into a negative literal for
                                // cleaner downstream pattern matching.
                                match arg.kind() {
                                    crate::term::TermKind::IntConst(v) => Term::int_big(-v.clone()),
                                    crate::term::TermKind::RealConst(v) => Term::real(-v.clone()),
                                    _ => Term::neg(arg),
                                }
                            }
                            _ => Term::app(Op::Sub, args),
                        }
                    }
                    _ => match op_for_symbol(&head) {
                        Some(op) => {
                            let mut args = Vec::new();
                            while !matches!(self.peek(), Some(TokenKind::RParen)) {
                                if self.peek().is_none() {
                                    return self.err("unterminated application");
                                }
                                args.push(self.parse_term()?);
                            }
                            if !op.arity().admits(args.len()) {
                                return self.err(format!(
                                    "operator {op} applied to {} arguments",
                                    args.len()
                                ));
                            }
                            // Fold constant real division so the printer's
                            // `(/ p.0 q.0)` rendering of non-decimal
                            // rationals round-trips to the same constant.
                            fold_const_real_div(op, args)
                        }
                        None => {
                            return self
                                .err(format!("unknown operator or uninterpreted function: {head}"))
                        }
                    },
                };
                self.expect_rparen()?;
                self.depth -= 1;
                Ok(term)
            }
        }
    }

    fn parse_command(&mut self) -> Result<Command, ParseError> {
        self.expect_lparen()?;
        let head = self.expect_symbol()?;
        let cmd = match head.as_str() {
            "set-logic" => Command::SetLogic(self.expect_symbol()?),
            "set-option" => {
                let key = match self.next() {
                    Some(TokenKind::Keyword(k)) => k,
                    other => return self.err(format!("expected keyword, found {other:?}")),
                };
                let value = if matches!(self.peek(), Some(TokenKind::RParen)) {
                    String::new()
                } else {
                    self.skip_sexpr()?
                };
                Command::SetOption(key, value)
            }
            "set-info" => {
                let key = match self.next() {
                    Some(TokenKind::Keyword(k)) => k,
                    other => return self.err(format!("expected keyword, found {other:?}")),
                };
                let value = if matches!(self.peek(), Some(TokenKind::RParen)) {
                    String::new()
                } else {
                    self.skip_sexpr()?
                };
                Command::SetInfo(key, value)
            }
            "declare-fun" => {
                let name = self.expect_symbol()?;
                self.expect_lparen()?;
                let mut args = Vec::new();
                while !matches!(self.peek(), Some(TokenKind::RParen)) {
                    args.push(self.parse_sort()?);
                }
                self.expect_rparen()?;
                let ret = self.parse_sort()?;
                Command::DeclareFun(Symbol::new(name), args, ret)
            }
            "declare-const" => {
                let name = self.expect_symbol()?;
                let sort = self.parse_sort()?;
                Command::DeclareConst(Symbol::new(name), sort)
            }
            "define-fun" => {
                let name = self.expect_symbol()?;
                self.expect_lparen()?;
                let mut params = Vec::new();
                while !matches!(self.peek(), Some(TokenKind::RParen)) {
                    self.expect_lparen()?;
                    let p = self.expect_symbol()?;
                    let s = self.parse_sort()?;
                    self.expect_rparen()?;
                    params.push((Symbol::new(p), s));
                }
                self.expect_rparen()?;
                let ret = self.parse_sort()?;
                let body = self.parse_term()?;
                Command::DefineFun(Symbol::new(name), params, ret, body)
            }
            "assert" => Command::Assert(self.parse_term()?),
            "check-sat" => Command::CheckSat,
            "get-model" => Command::GetModel,
            "exit" => Command::Exit,
            other => return self.err(format!("unsupported command: {other}")),
        };
        self.expect_rparen()?;
        Ok(cmd)
    }
}

/// Folds `(/ c1 c2 ...)` over constant operands with non-zero divisors into
/// a single real constant; returns the plain application otherwise.
fn fold_const_real_div(op: Op, args: Vec<Term>) -> Term {
    use crate::term::TermKind;
    if op != Op::RealDiv {
        return Term::app(op, args);
    }
    let rat_of = |t: &Term| -> Option<BigRational> {
        match t.kind() {
            TermKind::RealConst(v) => Some(v.clone()),
            TermKind::IntConst(v) => Some(BigRational::from_int(v.clone())),
            _ => None,
        }
    };
    let Some(first) = args.first().and_then(|a| rat_of(a)) else {
        return Term::app(op, args);
    };
    let mut acc = first;
    for a in &args[1..] {
        match rat_of(a) {
            Some(v) if !v.is_zero() => acc = &acc / &v,
            _ => return Term::app(op, args),
        }
    }
    Term::real(acc)
}

/// Parses a complete SMT-LIB script.
///
/// # Errors
///
/// Returns a [`ParseError`] on lexical errors, malformed syntax, unknown
/// operators/sorts, arity violations, or unsupported commands.
///
/// # Examples
///
/// ```
/// let script = yinyang_smtlib::parse_script(
///     "(declare-fun x () Int) (assert (> x 0)) (check-sat)",
/// )?;
/// assert_eq!(script.asserts().len(), 1);
/// # Ok::<(), yinyang_smtlib::ParseError>(())
/// ```
pub fn parse_script(input: &str) -> Result<Script, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser::new(tokens);
    let mut script = Script::new();
    while p.peek().is_some() {
        script.push(p.parse_command()?);
    }
    Ok(script)
}

/// Parses a single term.
///
/// # Errors
///
/// Returns a [`ParseError`] if the input is not exactly one well-formed term.
pub fn parse_term(input: &str) -> Result<Term, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser::new(tokens);
    let t = p.parse_term()?;
    if p.peek().is_some() {
        return p.err("trailing input after term");
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::TermKind;

    #[test]
    fn parses_paper_figure_2() {
        let src = r#"
            ; phi1
            (declare-fun x () Int)
            (declare-fun w () Bool)
            (assert (= x (- 1)))
            (assert (= w (= x (- 1))))
            (assert w)
        "#;
        let s = parse_script(src).unwrap();
        assert_eq!(s.asserts().len(), 3);
        assert_eq!(s.declarations().len(), 2);
        assert_eq!(s.asserts()[0].to_string(), "(= x (- 1))");
    }

    #[test]
    fn parses_legacy_string_ops() {
        let t = parse_term(r#"(str.in.re c (re.* (str.to.re "aa")))"#).unwrap();
        assert_eq!(t.to_string(), "(str.in_re c (re.* (str.to_re \"aa\")))");
    }

    #[test]
    fn unary_minus_folds_literals() {
        assert!(
            matches!(parse_term("(- 1)").unwrap().kind(), TermKind::IntConst(v) if v.is_negative())
        );
        assert_eq!(parse_term("(- x)").unwrap().to_string(), "(- x)");
        assert_eq!(parse_term("(- x y)").unwrap().to_string(), "(- x y)");
    }

    #[test]
    fn parses_quantifiers() {
        let t = parse_term("(exists ((h Real)) (=> (<= 0.0 (/ a h)) (= 0 (/ c e))))").unwrap();
        assert!(t.has_quantifier());
    }

    #[test]
    fn parses_annotations() {
        let t = parse_term("(! (> x 0) :named a1)").unwrap();
        assert_eq!(t.to_string(), "(> x 0)");
    }

    #[test]
    fn parses_let() {
        let t = parse_term("(let ((a (+ x 1))) (> a 0))").unwrap();
        assert_eq!(t.to_string(), "(let ((a (+ x 1))) (> a 0))");
    }

    #[test]
    fn rejects_arity_violations() {
        assert!(parse_term("(ite true 1)").is_err());
        assert!(parse_term("(not a b)").is_err());
        assert!(parse_term("(str.len)").is_err());
    }

    #[test]
    fn rejects_unknown_symbols_in_head_position() {
        assert!(parse_term("(frobnicate x)").is_err());
    }

    #[test]
    fn rejects_unsupported_commands() {
        assert!(parse_script("(push 1)").is_err());
    }

    #[test]
    fn set_option_roundtrip() {
        let s = parse_script("(set-option :smt.string_solver z3str3)").unwrap();
        assert_eq!(s.commands[0], Command::SetOption("smt.string_solver".into(), "z3str3".into()));
    }

    #[test]
    fn roundtrip_print_parse() {
        let srcs = [
            "(assert (= (div z y) (- 1)))",
            "(assert (ite v false (= (div z x) (- 1))))",
            r#"(assert (= 0 (str.to_int (str.replace a b (str.at a (str.len a))))))"#,
            "(assert (or (not (= (+ (+ 1.0 (/ z y)) 6.0) (+ 7.0 x))) (and (< (/ z x) v) (>= w v))))",
        ];
        for src in srcs {
            let s1 = parse_script(src).unwrap();
            let s2 = parse_script(&s1.to_string()).unwrap();
            assert_eq!(s1, s2, "roundtrip failed for {src}");
        }
    }

    #[test]
    fn nullary_regex_constants() {
        let t = parse_term("(str.in_re x re.allchar)").unwrap();
        assert_eq!(t.to_string(), "(str.in_re x re.allchar)");
    }
}
