//! The reader: tokens → s-expression [`Value`]s.

use crate::error::{SchemeError, SourcePos};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::value::Value;
use std::cell::RefCell;
use std::rc::Rc;

/// Reads every datum in `src`.
///
/// # Errors
///
/// [`SchemeError::Lex`] or [`SchemeError::Parse`] on malformed input.
///
/// # Examples
///
/// ```
/// use segstack_scheme::read_all;
/// let data = read_all("(a b) 42")?;
/// assert_eq!(data.len(), 2);
/// assert_eq!(data[1].to_string(), "42");
/// assert_eq!(data[0].to_string(), "(a b)");
/// # Ok::<(), segstack_scheme::SchemeError>(())
/// ```
pub fn read_all(src: &str) -> Result<Vec<Value>, SchemeError> {
    let tokens = tokenize(src)?;
    let mut r = Reader { tokens, i: 0 };
    let mut out = Vec::new();
    while !r.at_end() {
        out.push(r.datum()?);
    }
    Ok(out)
}

/// Reads exactly one datum from `src`.
///
/// # Errors
///
/// As [`read_all`], plus a parse error when `src` holds zero or more than
/// one datum.
pub fn read_one(src: &str) -> Result<Value, SchemeError> {
    let all = read_all(src)?;
    match <[Value; 1]>::try_from(all) {
        Ok([v]) => Ok(v),
        Err(v) => Err(SchemeError::Parse {
            pos: None,
            message: format!("expected exactly one datum, found {}", v.len()),
        }),
    }
}

struct Reader {
    tokens: Vec<Token>,
    i: usize,
}

impl Reader {
    fn at_end(&self) -> bool {
        self.i >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.i)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.i).cloned();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn err(&self, pos: Option<SourcePos>, message: impl Into<String>) -> SchemeError {
        SchemeError::Parse { pos, message: message.into() }
    }

    fn datum(&mut self) -> Result<Value, SchemeError> {
        let Some(tok) = self.bump() else {
            return Err(self.err(None, "unexpected end of input"));
        };
        let pos = Some(tok.pos);
        match tok.kind {
            TokenKind::Fixnum(n) => Ok(Value::Fixnum(n)),
            TokenKind::Flonum(x) => Ok(Value::Flonum(x)),
            TokenKind::Bool(b) => Ok(Value::Bool(b)),
            TokenKind::Char(c) => Ok(Value::Char(c)),
            TokenKind::Str(s) => Ok(Value::Str(Rc::new(RefCell::new(s)))),
            TokenKind::Ident(name) => Ok(Value::sym(&name)),
            TokenKind::Quote => self.abbrev("quote"),
            TokenKind::Quasiquote => self.abbrev("quasiquote"),
            TokenKind::Unquote => self.abbrev("unquote"),
            TokenKind::UnquoteSplicing => self.abbrev("unquote-splicing"),
            TokenKind::LParen => self.list_tail(pos),
            TokenKind::VecOpen => {
                let mut items = Vec::new();
                loop {
                    match self.peek() {
                        None => return Err(self.err(pos, "unterminated vector literal")),
                        Some(t) if t.kind == TokenKind::RParen => {
                            self.bump();
                            return Ok(Value::vector(items));
                        }
                        Some(t) if t.kind == TokenKind::Dot => {
                            return Err(self.err(Some(t.pos), "dot not allowed in vector"))
                        }
                        Some(_) => items.push(self.datum()?),
                    }
                }
            }
            TokenKind::RParen => Err(self.err(pos, "unexpected )")),
            TokenKind::Dot => Err(self.err(pos, "unexpected .")),
        }
    }

    fn abbrev(&mut self, head: &str) -> Result<Value, SchemeError> {
        let inner = self.datum()?;
        Ok(Value::list([Value::sym(head), inner]))
    }

    /// Parses the remainder of a list after the opening paren.
    fn list_tail(&mut self, open_pos: Option<SourcePos>) -> Result<Value, SchemeError> {
        let mut items = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.err(open_pos, "unterminated list")),
                Some(t) if t.kind == TokenKind::RParen => {
                    self.bump();
                    return Ok(Value::list(items));
                }
                Some(t) if t.kind == TokenKind::Dot => {
                    let dot_pos = Some(t.pos);
                    self.bump();
                    if items.is_empty() {
                        return Err(self.err(dot_pos, "dot with no preceding datum"));
                    }
                    let tail = self.datum()?;
                    match self.bump() {
                        Some(t) if t.kind == TokenKind::RParen => {
                            let mut out = tail;
                            for v in items.into_iter().rev() {
                                out = Value::cons(v, out);
                            }
                            return Ok(out);
                        }
                        _ => return Err(self.err(dot_pos, "expected ) after dotted tail")),
                    }
                }
                Some(_) => items.push(self.datum()?),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(src: &str) -> String {
        read_one(src).unwrap().to_string()
    }

    #[test]
    fn atoms() {
        assert_eq!(rt("42"), "42");
        assert_eq!(rt("-2.5"), "-2.5");
        assert_eq!(rt("#t"), "#t");
        assert_eq!(rt("#\\a"), "#\\a");
        assert_eq!(rt("\"s\""), "\"s\"");
        assert_eq!(rt("foo"), "foo");
    }

    #[test]
    fn lists_and_nesting() {
        assert_eq!(rt("()"), "()");
        assert_eq!(rt("(1 2 3)"), "(1 2 3)");
        assert_eq!(rt("(a (b c) d)"), "(a (b c) d)");
        assert_eq!(rt("[a [b]]"), "(a (b))");
    }

    #[test]
    fn dotted_pairs() {
        assert_eq!(rt("(1 . 2)"), "(1 . 2)");
        assert_eq!(rt("(1 2 . 3)"), "(1 2 . 3)");
        assert_eq!(rt("(1 . (2 . ()))"), "(1 2)");
    }

    #[test]
    fn quote_abbreviations() {
        assert_eq!(rt("'a"), "(quote a)");
        assert_eq!(rt("`a"), "(quasiquote a)");
        assert_eq!(rt(",a"), "(unquote a)");
        assert_eq!(rt(",@a"), "(unquote-splicing a)");
        assert_eq!(rt("''a"), "(quote (quote a))");
    }

    #[test]
    fn vectors() {
        assert_eq!(rt("#(1 2 3)"), "#(1 2 3)");
        assert_eq!(rt("#()"), "#()");
        assert_eq!(rt("#(a #(b))"), "#(a #(b))");
    }

    #[test]
    fn read_all_multiple() {
        let data = read_all("1 (2) three").unwrap();
        assert_eq!(data.len(), 3);
    }

    #[test]
    fn read_one_arity() {
        assert!(read_one("").is_err());
        assert!(read_one("1 2").is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(read_all("(").is_err());
        assert!(read_all(")").is_err());
        assert!(read_all("(1 . )").is_err());
        assert!(read_all("(. 2)").is_err());
        assert!(read_all("(1 . 2 3)").is_err());
        assert!(read_all("#(1 . 2)").is_err());
        assert!(read_all("'").is_err());
    }

    #[test]
    fn print_read_round_trip() {
        for src in ["(a (b . c) #(1 \"x\") 2.5 #\\z)", "(quote (1 2))", "(((())))"] {
            let v = read_one(src).unwrap();
            let printed = v.to_string();
            let v2 = read_one(&printed).unwrap();
            assert_eq!(v, v2, "round-trip of {src}");
        }
    }
}
