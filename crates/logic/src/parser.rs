//! Text syntax for formulas: recursive-descent parser and name-aware
//! renderer.
//!
//! Grammar (quantifiers extend as far right as possible; `&` binds tighter
//! than `|`, which binds tighter than `->`, which binds tighter than
//! `<->`):
//!
//! ```text
//! formula  := iff
//! iff      := impl ( "<->" impl )*
//! impl     := or ( "->" or )*                (right-associative)
//! or       := and ( "|" and )*
//! and      := unary ( "&" unary )*
//! unary    := "!" unary | quantifier | atom | "(" formula ")"
//! quantifier := ("exists" | "forall" | "exists^" digits) var "." formula
//! atom     := "true" | "false"
//!           | var "=" var | var "!=" var
//!           | "E" "(" var "," var ")"
//!           | ident "(" var ")"              (colour atom, by name)
//! var      := "x" digits
//! ```
//!
//! Colour names are resolved against a [`Vocabulary`]; the reserved names
//! `E`, `true`, `false`, `exists`, `forall` cannot be colours.
//!
//! The parser recurses at `(`, `!`, each quantifier and each right-nested
//! `->`; past [`MAX_DEPTH`] such nestings it refuses the input with a
//! located [`ParseError`] instead of growing the stack without bound.

use std::fmt;

use folearn_graph::Vocabulary;

use crate::formula::{Formula, Var};

/// Deepest nesting of `(`, `!`, quantifiers and right-nested `->` the
/// parser accepts.
pub const MAX_DEPTH: usize = 256;

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte position of the error.
    pub at: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a formula, resolving colour names against `vocab`.
///
/// ```
/// use folearn_graph::Vocabulary;
/// use folearn_logic::parse;
///
/// let vocab = Vocabulary::new(["Red"]);
/// let phi = parse("exists x1. E(x0, x1) & Red(x1)", &vocab).unwrap();
/// assert_eq!(phi.quantifier_rank(), 1);
/// assert_eq!(phi.free_vars(), vec![0]);
/// ```
pub fn parse(input: &str, vocab: &Vocabulary) -> Result<Formula, ParseError> {
    let mut p = Parser {
        input,
        pos: 0,
        vocab,
        depth: 0,
    };
    p.skip_ws();
    let phi = p.formula()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing input"));
    }
    Ok(phi)
}

/// Render a formula using the vocabulary's colour names (round-trips
/// through [`parse`]).
pub fn render(phi: &Formula, vocab: &Vocabulary) -> String {
    struct Renderer<'a>(&'a Formula, &'a Vocabulary);
    impl fmt::Display for Renderer<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.fmt_prec(f, 0, &|c, out| {
                write!(out, "{}", self.1.color_name(c))
            })
        }
    }
    Renderer(phi, vocab).to_string()
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    vocab: &'a Vocabulary,
    /// Nestings open at the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: msg.into(),
        }
    }

    /// Run `inner` one nesting deeper, refusing past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("formula nests deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn peek_word(&mut self) -> &'a str {
        self.skip_ws();
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| !c.is_alphanumeric() && *c != '_')
            .map_or(rest.len(), |(i, _)| i);
        &rest[..end]
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.peek_word() == word {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn formula(&mut self) -> Result<Formula, ParseError> {
        self.iff()
    }

    fn iff(&mut self) -> Result<Formula, ParseError> {
        let mut lhs = self.implication()?;
        while self.eat("<->") {
            let rhs = self.implication()?;
            lhs = lhs.iff(rhs);
        }
        Ok(lhs)
    }

    fn implication(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.disjunction()?;
        if self.eat("->") {
            let rhs = self.nested(Self::implication)?; // right-associative
            Ok(lhs.implies(rhs))
        } else {
            Ok(lhs)
        }
    }

    fn disjunction(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.conjunction()?];
        loop {
            self.skip_ws();
            // Don't confuse `|` with nothing else; single char.
            if self.rest().starts_with('|') {
                self.pos += 1;
                parts.push(self.conjunction()?);
            } else {
                break;
            }
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Formula::or(parts)
        })
    }

    fn conjunction(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.unary()?];
        while self.eat("&") {
            parts.push(self.unary()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            Formula::and(parts)
        })
    }

    fn unary(&mut self) -> Result<Formula, ParseError> {
        self.skip_ws();
        if self.eat("!") {
            return Ok(self.nested(Self::unary)?.not());
        }
        if self.eat_word("exists") {
            // Optional counting threshold: `exists^3 x0. φ`.
            let mut threshold: Option<u32> = None;
            if self.eat("^") {
                let digits: String = self
                    .rest()
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect();
                if digits.is_empty() {
                    return Err(self.err("expected digits after 'exists^'"));
                }
                self.pos += digits.len();
                threshold = Some(
                    digits
                        .parse()
                        .map_err(|_| self.err("counting threshold too large"))?,
                );
            }
            let v = self.var()?;
            if !self.eat(".") {
                return Err(self.err("expected '.' after quantified variable"));
            }
            let body = self.nested(Self::formula)?;
            return Ok(match threshold {
                Some(t) => Formula::counting_exists(t, v, body),
                None => Formula::exists(v, body),
            });
        }
        if self.eat_word("forall") {
            let v = self.var()?;
            if !self.eat(".") {
                return Err(self.err("expected '.' after quantified variable"));
            }
            return Ok(Formula::forall(v, self.nested(Self::formula)?));
        }
        if self.eat("(") {
            let inner = self.nested(Self::formula)?;
            if !self.eat(")") {
                return Err(self.err("expected ')'"));
            }
            return Ok(inner);
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Formula, ParseError> {
        self.skip_ws();
        if self.eat_word("true") {
            return Ok(Formula::TRUE);
        }
        if self.eat_word("false") {
            return Ok(Formula::FALSE);
        }
        let word = self.peek_word();
        if word.is_empty() {
            return Err(self.err("expected an atom"));
        }
        // Variable-led atoms: x{i} = x{j} or x{i} != x{j}.
        if word.starts_with('x') && word[1..].chars().all(|c| c.is_ascii_digit()) && word.len() > 1
        {
            let a = self.var()?;
            self.skip_ws();
            if self.eat("!=") {
                let b = self.var()?;
                return Ok(Formula::Eq(a, b).not());
            }
            if self.eat("=") {
                let b = self.var()?;
                return Ok(Formula::Eq(a, b));
            }
            return Err(self.err("expected '=' or '!=' after variable"));
        }
        // Edge atom.
        if word == "E" {
            self.pos += 1;
            if !self.eat("(") {
                return Err(self.err("expected '(' after E"));
            }
            let a = self.var()?;
            if !self.eat(",") {
                return Err(self.err("expected ',' in edge atom"));
            }
            let b = self.var()?;
            if !self.eat(")") {
                return Err(self.err("expected ')' in edge atom"));
            }
            return Ok(Formula::Edge(a, b));
        }
        // Colour atom by name.
        let Some(color) = self.vocab.color_by_name(word) else {
            return Err(self.err(format!("unknown colour {word:?}")));
        };
        self.pos += word.len();
        if !self.eat("(") {
            return Err(self.err("expected '(' after colour name"));
        }
        let v = self.var()?;
        if !self.eat(")") {
            return Err(self.err("expected ')' in colour atom"));
        }
        Ok(Formula::Color(color, v))
    }

    fn var(&mut self) -> Result<Var, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        if !rest.starts_with('x') {
            return Err(self.err("expected a variable 'x<digits>'"));
        }
        let digits: String = rest[1..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if digits.is_empty() {
            return Err(self.err("expected digits after 'x'"));
        }
        let n: u32 = digits
            .parse()
            .map_err(|_| self.err("variable index too large"))?;
        if n > u32::from(Var::MAX) {
            return Err(self.err("variable index too large"));
        }
        self.pos += 1 + digits.len();
        Ok(n as Var)
    }
}

#[cfg(test)]
mod tests {
    use folearn_graph::ColorId;

    use super::*;

    fn vocab() -> Vocabulary {
        Vocabulary::new(["Red", "Blue"])
    }

    #[test]
    fn parses_atoms() {
        let v = vocab();
        assert_eq!(parse("x0 = x1", &v).unwrap(), Formula::Eq(0, 1));
        assert_eq!(
            parse("x0 != x1", &v).unwrap(),
            Formula::Eq(0, 1).not()
        );
        assert_eq!(parse("E(x0, x1)", &v).unwrap(), Formula::Edge(0, 1));
        assert_eq!(
            parse("Red(x2)", &v).unwrap(),
            Formula::Color(ColorId(0), 2)
        );
        assert_eq!(parse("true", &v).unwrap(), Formula::TRUE);
    }

    #[test]
    fn precedence() {
        let v = vocab();
        // & over |
        let phi = parse("Red(x0) | Blue(x0) & Red(x1)", &v).unwrap();
        assert_eq!(
            phi,
            Formula::or([
                Formula::Color(ColorId(0), 0),
                Formula::and([
                    Formula::Color(ColorId(1), 0),
                    Formula::Color(ColorId(0), 1)
                ]),
            ])
        );
    }

    #[test]
    fn quantifier_extends_right() {
        let v = vocab();
        let phi = parse("exists x1. E(x0, x1) & Red(x1)", &v).unwrap();
        assert_eq!(
            phi,
            Formula::exists(
                1,
                Formula::and([Formula::Edge(0, 1), Formula::Color(ColorId(0), 1)])
            )
        );
    }

    #[test]
    fn implication_and_iff() {
        let v = vocab();
        let phi = parse("Red(x0) -> Blue(x0)", &v).unwrap();
        assert_eq!(
            phi,
            Formula::Color(ColorId(0), 0).implies(Formula::Color(ColorId(1), 0))
        );
        let psi = parse("Red(x0) <-> Blue(x0)", &v).unwrap();
        assert_eq!(psi.quantifier_rank(), 0);
    }

    #[test]
    fn round_trip_render_parse() {
        let v = vocab();
        let samples = [
            "exists x0. forall x1. E(x0, x1) | x0 = x1",
            "!(Red(x0) & Blue(x1))",
            "forall x0. exists x1. E(x0, x1) & !x1 = x0 & Red(x1)",
            "true",
            "x3 = x3",
        ];
        for s in samples {
            let phi = parse(s, &v).unwrap();
            let printed = render(&phi, &v);
            let reparsed = parse(&printed, &v).unwrap();
            assert_eq!(phi, reparsed, "round-trip failed for {s}: {printed}");
        }
    }

    #[test]
    fn errors_are_located() {
        let v = vocab();
        let e = parse("Red(x0) & Green(x1)", &v).unwrap_err();
        assert!(e.message.contains("unknown colour"));
        assert_eq!(e.at, 10);
        assert!(parse("exists x0 E(x0, x0)", &v).is_err()); // missing '.'
        assert!(parse("x0 =", &v).is_err());
        assert!(parse("E(x0 x1)", &v).is_err());
        assert!(parse("Red(x0) extra", &v).is_err());
    }

    #[test]
    fn counting_quantifier_syntax() {
        let v = vocab();
        let phi = parse("exists^3 x1. E(x0, x1) & Red(x1)", &v).unwrap();
        assert_eq!(
            phi,
            Formula::counting_exists(
                3,
                1,
                Formula::and([Formula::Edge(0, 1), Formula::Color(ColorId(0), 1)])
            )
        );
        assert_eq!(phi.quantifier_rank(), 1);
        // Round-trip.
        let printed = render(&phi, &v);
        assert_eq!(parse(&printed, &v).unwrap(), phi);
        // t = 1 collapses to plain exists.
        assert_eq!(
            parse("exists^1 x0. Red(x0)", &v).unwrap(),
            parse("exists x0. Red(x0)", &v).unwrap()
        );
        // Errors.
        assert!(parse("exists^ x0. Red(x0)", &v).is_err());
    }

    #[test]
    fn nested_parens() {
        let v = vocab();
        let phi = parse("((Red(x0)))", &v).unwrap();
        assert_eq!(phi, Formula::Color(ColorId(0), 0));
    }

    #[test]
    fn nesting_past_the_cap_is_a_located_error_at_every_site() {
        let v = vocab();
        let bombs = [
            ("(", ")"),
            ("!", ""),
            ("exists x0. ", ""),
            ("forall x1. ", ""),
            ("Red(x0) -> ", ""),
        ];
        for (open, close) in bombs {
            let at_cap = format!("{}Red(x0){}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            assert!(parse(&at_cap, &v).is_ok(), "{open:?} x {MAX_DEPTH} parses");
            let over = format!("{}Red(x0){}", open.repeat(5000), close.repeat(5000));
            let e = parse(&over, &v).unwrap_err();
            assert!(e.message.contains("nests deeper than 256"), "{e}");
            // Located at the first nesting past the cap.
            let cap = open.len() * MAX_DEPTH;
            assert!(cap < e.at && e.at <= cap + open.len(), "{open:?}: {e}");
        }
    }
}
