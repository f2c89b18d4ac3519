//! Wire format for terms.
//!
//! SOFT's two phases are deliberately decoupled (§2.4, §3.1): each vendor
//! runs symbolic execution locally and only ships *intermediate results* —
//! path conditions and output traces — to the crosschecking party. That
//! requires a self-describing serialization of terms. This module defines a
//! fully annotated s-expression wire format (every leaf carries its width)
//! with a printer and parser that round-trip exactly.

use crate::term::{Op, Term};
use std::fmt::Write as _;

/// Serialize a term to the wire format.
pub fn to_wire(t: &Term) -> String {
    let mut s = String::new();
    write_wire(t, &mut s);
    s
}

/// Append a term's wire form to `out` (what [`to_wire`] returns), so a
/// caller serializing many terms can reuse one buffer.
pub fn write_wire(t: &Term, out: &mut String) {
    match t.op() {
        Op::BvConst { width, value } => {
            let _ = write!(out, "(c {width} {value})");
        }
        Op::BvVar { name, width } => {
            let _ = write!(out, "(v \"{}\" {width})", escape(name));
        }
        Op::BoolConst(b) => out.push_str(if *b { "true" } else { "false" }),
        Op::BvUnary(op, a) => {
            let _ = write!(out, "({op} ");
            write_wire(a, out);
            out.push(')');
        }
        Op::BvBin(op, a, b) => {
            let _ = write!(out, "({op} ");
            write_wire(a, out);
            out.push(' ');
            write_wire(b, out);
            out.push(')');
        }
        Op::BvConcat(a, b) => {
            out.push_str("(concat ");
            write_wire(a, out);
            out.push(' ');
            write_wire(b, out);
            out.push(')');
        }
        Op::BvExtract { hi, lo, arg } => {
            let _ = write!(out, "(extract {hi} {lo} ");
            write_wire(arg, out);
            out.push(')');
        }
        Op::BvIte(c, a, b) => {
            out.push_str("(ite ");
            write_wire(c, out);
            out.push(' ');
            write_wire(a, out);
            out.push(' ');
            write_wire(b, out);
            out.push(')');
        }
        Op::Not(a) => {
            out.push_str("(not ");
            write_wire(a, out);
            out.push(')');
        }
        Op::And(a, b) | Op::Or(a, b) | Op::Implies(a, b) | Op::Iff(a, b) => {
            let name = match t.op() {
                Op::And(..) => "and",
                Op::Or(..) => "or",
                Op::Implies(..) => "=>",
                _ => "iff",
            };
            let _ = write!(out, "({name} ");
            write_wire(a, out);
            out.push(' ');
            write_wire(b, out);
            out.push(')');
        }
        Op::Cmp(op, a, b) => {
            let _ = write!(out, "({op} ");
            write_wire(a, out);
            out.push(' ');
            write_wire(b, out);
            out.push(')');
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Wire parsing error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset in the input where the problem was detected.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            offset: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn token(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len() {
            let b = self.input[self.pos];
            if b.is_ascii_whitespace() || b == b'(' || b == b')' || b == b'"' {
                break;
            }
            self.pos += 1;
        }
        if start == self.pos {
            return self.err("expected token");
        }
        std::str::from_utf8(&self.input[start..self.pos]).map_err(|_| ParseError {
            message: "invalid utf8".into(),
            offset: start,
        })
    }

    fn quoted_string(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(c @ (b'\\' | b'"')) => {
                            out.push(c as char);
                            self.pos += 1;
                        }
                        _ => return self.err("bad escape"),
                    }
                }
                Some(c) => {
                    out.push(c as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn number<T: std::str::FromStr>(&mut self) -> Result<T, ParseError> {
        let t = self.token()?;
        t.parse().map_err(|_| ParseError {
            message: format!("bad number '{t}'"),
            offset: self.pos,
        })
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let head = self.token()?;
                let t = self.head_term(head)?;
                self.skip_ws();
                self.expect(b')')?;
                Ok(t)
            }
            _ => {
                let tok = self.token()?;
                match tok {
                    "true" => Ok(Term::bool_true()),
                    "false" => Ok(Term::bool_false()),
                    _ => self.err(format!("unexpected token '{tok}'")),
                }
            }
        }
    }

    fn head_term(&mut self, head: &str) -> Result<Term, ParseError> {
        macro_rules! bin {
            // bv x bv -> bv/bool: operands must be same-width bitvectors
            ($m:ident) => {{
                let a = self.term()?;
                let b = self.term()?;
                if !a.sort().is_bv() || a.sort() != b.sort() {
                    return self.err(concat!("ill-sorted operands for ", stringify!($m)));
                }
                Ok(a.$m(b))
            }};
        }
        macro_rules! bool_bin {
            ($m:ident) => {{
                let a = self.term()?;
                let b = self.term()?;
                if a.sort() != crate::term::Sort::Bool || b.sort() != crate::term::Sort::Bool {
                    return self.err(concat!("ill-sorted operands for ", stringify!($m)));
                }
                Ok(a.$m(b))
            }};
        }
        match head {
            "c" => {
                let width: u32 = self.number()?;
                let value: u64 = self.number()?;
                if !(1..=64).contains(&width) {
                    return self.err("const width out of range");
                }
                Ok(Term::bv_const(width, value))
            }
            "v" => {
                let name = self.quoted_string()?;
                let width: u32 = self.number()?;
                if !(1..=64).contains(&width) {
                    return self.err("var width out of range");
                }
                Ok(Term::var(name, width))
            }
            "bvnot" | "bvneg" => {
                let a = self.term()?;
                if !a.sort().is_bv() {
                    return self.err("ill-sorted operand for bv unary op");
                }
                Ok(if head == "bvnot" {
                    a.bvnot()
                } else {
                    a.bvneg()
                })
            }
            "bvand" => bin!(bvand),
            "bvor" => bin!(bvor),
            "bvxor" => bin!(bvxor),
            "bvadd" => bin!(bvadd),
            "bvsub" => bin!(bvsub),
            "bvmul" => bin!(bvmul),
            "bvudiv" => bin!(bvudiv),
            "bvurem" => bin!(bvurem),
            "bvshl" => bin!(bvshl),
            "bvlshr" => bin!(bvlshr),
            "bvashr" => bin!(bvashr),
            "concat" => {
                let a = self.term()?;
                let b = self.term()?;
                if !a.sort().is_bv() || !b.sort().is_bv() || a.width() + b.width() > 64 {
                    return self.err("ill-sorted operands for concat");
                }
                Ok(a.concat(b))
            }
            "extract" => {
                let hi: u32 = self.number()?;
                let lo: u32 = self.number()?;
                let a = self.term()?;
                if !a.sort().is_bv() || hi < lo || hi >= a.width() {
                    return self.err("bad extract bounds");
                }
                Ok(a.extract(hi, lo))
            }
            "ite" => {
                let c = self.term()?;
                let a = self.term()?;
                let b = self.term()?;
                if c.sort() != crate::term::Sort::Bool || a.sort() != b.sort() || !a.sort().is_bv()
                {
                    return self.err("ill-sorted ite");
                }
                Ok(Term::ite_bv(c, a, b))
            }
            "not" => {
                let a = self.term()?;
                if a.sort() != crate::term::Sort::Bool {
                    return self.err("ill-sorted operand for not");
                }
                Ok(a.not())
            }
            "and" => bool_bin!(and),
            "or" => bool_bin!(or),
            "=>" => bool_bin!(implies),
            "iff" => bool_bin!(iff),
            "=" => bin!(eq),
            "bvult" => bin!(ult),
            "bvule" => bin!(ule),
            "bvslt" => bin!(slt),
            "bvsle" => bin!(sle),
            other => self.err(format!("unknown operator '{other}'")),
        }
    }
}

/// Parse a term from the wire format.
///
/// The parser rebuilds through the smart constructors, so a parsed term may
/// be a *simplified* version of what was printed; it is always logically
/// equivalent and round-trips to a fixpoint.
pub fn from_wire(s: &str) -> Result<Term, ParseError> {
    let mut p = Parser {
        input: s.as_bytes(),
        pos: 0,
    };
    let t = p.term()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return p.err("trailing input");
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(t: &Term) {
        let w = to_wire(t);
        let back = from_wire(&w).unwrap_or_else(|e| panic!("parse {w}: {e}"));
        assert_eq!(&back, t, "roundtrip failed for {w}");
    }

    #[test]
    fn roundtrip_leaves() {
        roundtrip(&Term::bv_const(8, 42));
        roundtrip(&Term::bv_const(64, u64::MAX));
        roundtrip(&Term::var("m0.b5", 8));
        roundtrip(&Term::bool_true());
        roundtrip(&Term::bool_false());
    }

    #[test]
    fn roundtrip_nested_expression() {
        let x = Term::var("wire.x", 16);
        let y = Term::var("wire.y", 16);
        let t = x
            .clone()
            .bvadd(y.clone())
            .bvmul(Term::bv_const(16, 3))
            .eq(Term::bv_const(16, 99))
            .and(
                x.clone()
                    .extract(7, 0)
                    .concat(y.clone().extract(15, 8))
                    .ult(Term::bv_const(16, 7)),
            )
            .or(Term::ite_bv(
                y.clone().ule(x.clone()),
                x.clone().bvshl(Term::bv_const(16, 2)),
                y.clone().bvnot(),
            )
            .eq(Term::bv_const(16, 0)));
        roundtrip(&t);
    }

    #[test]
    fn roundtrip_names_with_special_chars() {
        roundtrip(&Term::var("weird \"name\" \\ here", 8));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_wire("(bogus 1 2)").is_err());
        assert!(from_wire("(c 8 1) junk").is_err());
        assert!(from_wire("(c 99 1)").is_err());
        assert!(from_wire("(extract 9 0 (v \"x\" 8))").is_err());
        assert!(from_wire("(extract 0 0 true)").is_err());
        assert!(from_wire("(").is_err());
        assert!(from_wire("").is_err());
    }

    #[test]
    fn parse_applies_simplification() {
        // Parsed terms go through smart constructors.
        let t = from_wire("(bvadd (c 8 1) (c 8 2))").unwrap();
        assert_eq!(t.as_bv_const(), Some(3));
    }

    #[test]
    fn sort_errors_rejected() {
        // ite with mismatched branch widths
        assert!(from_wire("(ite true (c 8 1) (c 16 1))").is_err());
    }
}
