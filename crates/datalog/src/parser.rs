//! Hand-written recursive-descent parser for conventional Datalog syntax.
//!
//! ```text
//! program  := clause*
//! clause   := atom ( ":-" literal ("," literal)* )? "."
//! literal  := "!"? atom
//! atom     := ident "(" term ("," term)* ")"
//! term     := VARIABLE | INTEGER | ident | "quoted string"
//! ```
//!
//! Identifiers starting with an uppercase letter or `_` are variables;
//! `%` starts a line comment. Errors carry line/column positions.

use crate::ast::{Atom, Literal, Program, Rule, Term};

/// Parse error with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub col: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Var(String),
    Int(i64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Bang,
    Turnstile,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = *self.src.get(self.pos)?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    /// Next token, or `None` at end of input.
    fn next_tok(&mut self) -> Result<Option<(Tok, usize, usize)>, ParseError> {
        self.skip_trivia();
        let (line, col) = (self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let tok = match c {
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b'.' => {
                self.bump();
                Tok::Dot
            }
            b'!' => {
                self.bump();
                Tok::Bang
            }
            b':' => {
                self.bump();
                if self.peek() == Some(b'-') {
                    self.bump();
                    Tok::Turnstile
                } else {
                    return Err(self.err("expected '-' after ':'"));
                }
            }
            b'"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(b'"') => break,
                        Some(b'\n') | None => return Err(self.err("unterminated string")),
                        Some(c) => s.push(c as char),
                    }
                }
                Tok::Str(s)
            }
            b'-' | b'0'..=b'9' => {
                let mut s = String::new();
                if c == b'-' {
                    s.push('-');
                    self.bump();
                }
                while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
                    self.bump();
                    s.push(d as char);
                }
                if s == "-" || s.is_empty() {
                    return Err(self.err("expected digits"));
                }
                Tok::Int(s.parse().map_err(|e| self.err(format!("bad integer: {e}")))?)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut s = String::new();
                while let Some(d) = self.peek().filter(|d| d.is_ascii_alphanumeric() || *d == b'_') {
                    self.bump();
                    s.push(d as char);
                }
                if s == "not" {
                    Tok::Bang
                } else if c.is_ascii_uppercase() || c == b'_' {
                    Tok::Var(s)
                } else {
                    Tok::Ident(s)
                }
            }
            other => return Err(self.err(format!("unexpected character {:?}", other as char))),
        };
        Ok(Some((tok, line, col)))
    }
}

struct Parser {
    toks: Vec<(Tok, usize, usize)>,
    pos: usize,
}

impl Parser {
    fn here(&self) -> (usize, usize) {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|&(_, l, c)| (l, c))
            .unwrap_or((1, 1))
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.here();
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _, _)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: Tok, what: &str) -> Result<(), ParseError> {
        match self.bump() {
            Some(t) if t == want => Ok(()),
            Some(t) => Err(self.err(format!("expected {what}, found {t:?}"))),
            None => Err(self.err(format!("expected {what}, found end of input"))),
        }
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let pred = match self.bump() {
            Some(Tok::Ident(s)) => s,
            other => return Err(self.err(format!("expected predicate name, found {other:?}"))),
        };
        self.expect(Tok::LParen, "'('")?;
        let mut terms = Vec::new();
        loop {
            let t = match self.bump() {
                Some(Tok::Var(v)) => Term::Var(v),
                Some(Tok::Int(i)) => Term::Int(i),
                Some(Tok::Ident(s)) => {
                    // `count(X)` / `sum(X)` / `min(X)` / `max(X)` in term
                    // position is an aggregate call.
                    if self.peek() == Some(&Tok::LParen) {
                        let Some(op) = crate::ast::AggOp::from_name(&s) else {
                            return Err(
                                self.err(format!("unknown aggregate or nested term {s:?}"))
                            );
                        };
                        self.bump(); // '('
                        let var = match self.bump() {
                            Some(Tok::Var(v)) => v,
                            other => {
                                return Err(self.err(format!(
                                    "aggregate {} takes a variable, found {other:?}",
                                    op.name()
                                )))
                            }
                        };
                        self.expect(Tok::RParen, "')' after aggregate variable")?;
                        Term::Agg(op, var)
                    } else {
                        Term::Sym(s)
                    }
                }
                Some(Tok::Str(s)) => Term::Sym(s),
                other => return Err(self.err(format!("expected term, found {other:?}"))),
            };
            terms.push(t);
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                other => return Err(self.err(format!("expected ',' or ')', found {other:?}"))),
            }
        }
        Ok(Atom { pred, terms })
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        let negated = if self.peek() == Some(&Tok::Bang) {
            self.bump();
            true
        } else {
            false
        };
        Ok(Literal {
            atom: self.atom()?,
            negated,
        })
    }

    fn clause(&mut self) -> Result<Rule, ParseError> {
        let head = self.atom()?;
        let mut body = Vec::new();
        match self.bump() {
            Some(Tok::Dot) => {}
            Some(Tok::Turnstile) => loop {
                body.push(self.literal()?);
                match self.bump() {
                    Some(Tok::Comma) => continue,
                    Some(Tok::Dot) => break,
                    other => {
                        return Err(self.err(format!("expected ',' or '.', found {other:?}")))
                    }
                }
            },
            other => return Err(self.err(format!("expected ':-' or '.', found {other:?}"))),
        }
        Ok(Rule { head, body })
    }
}

/// Parse a whole program; checks rule safety and arity consistency.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let mut lx = Lexer::new(src);
    let mut toks = Vec::new();
    while let Some(t) = lx.next_tok()? {
        toks.push(t);
    }
    let mut p = Parser { toks, pos: 0 };
    let mut rules = Vec::new();
    while p.peek().is_some() {
        rules.push(p.clause()?);
    }
    let prog = Program { rules };
    prog.check_safety().map_err(|m| ParseError {
        line: 0,
        col: 0,
        message: m,
    })?;
    prog.predicate_arities().map_err(|m| ParseError {
        line: 0,
        col: 0,
        message: m,
    })?;
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_transitive_closure() {
        let p = parse_program(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), edge(Y, Z).\n\
             edge(a, b). edge(b, c).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 4);
        assert_eq!(p.rules[1].body.len(), 2);
        assert!(p.rules[2].is_fact());
    }

    #[test]
    fn parses_negation_both_spellings() {
        let p = parse_program(
            "alive(X) :- node(X), !dead(X).\n\
             ok(X) :- node(X), not dead(X).",
        )
        .unwrap();
        assert!(p.rules[0].body[1].negated);
        assert!(p.rules[1].body[1].negated);
    }

    #[test]
    fn comments_and_strings() {
        let p = parse_program(
            "% a comment\n\
             // another\n\
             likes(\"Ada Lovelace\", math).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 1);
        assert_eq!(
            p.rules[0].head.terms[0],
            crate::ast::Term::Sym("Ada Lovelace".into())
        );
    }

    #[test]
    fn negative_integers() {
        let p = parse_program("temp(x, -40).").unwrap();
        assert_eq!(p.rules[0].head.terms[1], crate::ast::Term::Int(-40));
    }

    #[test]
    fn error_positions_reported() {
        let e = parse_program("p(X) :- q(X)\nr(a).").unwrap_err();
        assert_eq!(e.line, 2, "missing dot detected at next clause: {e}");
    }

    #[test]
    fn unsafe_rule_rejected_at_parse() {
        assert!(parse_program("p(X) :- q(Y).").is_err());
    }

    #[test]
    fn arity_conflict_rejected_at_parse() {
        assert!(parse_program("p(a). p(a, b).").is_err());
    }

    #[test]
    fn underscore_vars() {
        let p = parse_program("p(X) :- q(X, _Y).").unwrap();
        assert_eq!(p.rules[0].body[0].atom.terms.len(), 2);
        assert!(p.rules[0].body[0].atom.terms[1].is_var());
    }

    #[test]
    fn empty_program_ok() {
        assert_eq!(parse_program("  % nothing\n").unwrap().rules.len(), 0);
    }
}
