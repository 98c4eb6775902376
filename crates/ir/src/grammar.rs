//! The code generator's input language (Fig. 2 of the paper).
//!
//! ```text
//! program     -> definitions expression
//! definitions -> definition+
//! definition  -> "Matrix" ident "<" structure "," property ">" ";"
//! structure   -> "General" | "Symmetric" | "LowerTri" | "UpperTri"
//! property    -> "Singular" | "NonSingular" | "SPD" | "Orthogonal"
//! expression  -> ident ":=" operand ("*" operand)+ ";"
//! operand     -> ident | ident "^T" | ident "^-1" | ident "^-T"
//! ident       -> [A-Za-z][A-Za-z0-9_]*
//! ```
//!
//! # Example
//!
//! ```
//! use gmc_ir::grammar::parse_program;
//! let program = parse_program("
//!     Matrix G1 <General, Singular>;
//!     Matrix L  <LowerTri, NonSingular>;
//!     Matrix G2 <General, Singular>;
//!     X := G1 * L^-1 * G2^T;
//! ")?;
//! assert_eq!(program.lhs(), "X");
//! assert_eq!(program.shape().len(), 3);
//! # Ok::<(), gmc_ir::grammar::ParseError>(())
//! ```

use crate::features::{Features, Property, Structure};
use crate::operand::Operand;
use crate::rewrite::{simplify, Rewrite};
use crate::shape::{Shape, ShapeError};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A parsed (and simplified) GMC program.
#[derive(Debug, Clone)]
pub struct Program {
    lhs: String,
    names: Vec<String>,
    shape: Shape,
    rewrites: Vec<Rewrite>,
}

impl Program {
    /// Name of the assigned result.
    #[must_use]
    pub fn lhs(&self) -> &str {
        &self.lhs
    }

    /// Names of the chain operands after simplification, in order.
    #[must_use]
    pub fn operand_names(&self) -> &[String] {
        &self.names
    }

    /// The chain's shape after simplification rewrites.
    #[must_use]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The simplification rewrites that were applied while parsing.
    #[must_use]
    pub fn rewrites(&self) -> &[Rewrite] {
        &self.rewrites
    }
}

/// Errors reported by [`parse_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Unexpected character at byte offset.
    UnexpectedChar(char, usize),
    /// Unexpected token: `(found, expected)`.
    UnexpectedToken(String, String),
    /// Premature end of input; payload describes what was expected.
    UnexpectedEnd(String),
    /// An operand references an undefined matrix name.
    UndefinedMatrix(String),
    /// The same matrix name was defined twice.
    DuplicateDefinition(String),
    /// An unknown structure keyword.
    UnknownStructure(String),
    /// An unknown property keyword.
    UnknownProperty(String),
    /// The chain was invalid as a shape (e.g. inverting a singular matrix).
    Shape(ShapeError),
    /// Every operand simplified away (a chain of identity matrices).
    EmptyAfterSimplification,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedChar(c, pos) => {
                write!(f, "unexpected character {c:?} at byte {pos}")
            }
            ParseError::UnexpectedToken(found, expected) => {
                write!(f, "expected {expected}, found {found}")
            }
            ParseError::UnexpectedEnd(expected) => {
                write!(f, "unexpected end of input, expected {expected}")
            }
            ParseError::UndefinedMatrix(name) => write!(f, "undefined matrix `{name}`"),
            ParseError::DuplicateDefinition(name) => {
                write!(f, "matrix `{name}` defined more than once")
            }
            ParseError::UnknownStructure(s) => write!(f, "unknown structure `{s}`"),
            ParseError::UnknownProperty(s) => write!(f, "unknown property `{s}`"),
            ParseError::Shape(e) => write!(f, "invalid chain: {e}"),
            ParseError::EmptyAfterSimplification => {
                write!(f, "chain simplified to the identity (no operands left)")
            }
        }
    }
}

impl Error for ParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseError::Shape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShapeError> for ParseError {
    fn from(e: ShapeError) -> Self {
        ParseError::Shape(e)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Less,
    Greater,
    Comma,
    Semi,
    Star,
    Assign,  // :=
    SupT,    // ^T
    SupInv,  // ^-1
    SupInvT, // ^-T
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "identifier `{s}`"),
            Token::Less => write!(f, "`<`"),
            Token::Greater => write!(f, "`>`"),
            Token::Comma => write!(f, "`,`"),
            Token::Semi => write!(f, "`;`"),
            Token::Star => write!(f, "`*`"),
            Token::Assign => write!(f, "`:=`"),
            Token::SupT => write!(f, "`^T`"),
            Token::SupInv => write!(f, "`^-1`"),
            Token::SupInvT => write!(f, "`^-T`"),
        }
    }
}

fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '#' => {
                // Comment until end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '<' => {
                tokens.push(Token::Less);
                i += 1;
            }
            '>' => {
                tokens.push(Token::Greater);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semi);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            ':' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Assign);
                    i += 2;
                } else {
                    return Err(ParseError::UnexpectedChar(':', i));
                }
            }
            '^' => {
                let rest = &src[i + 1..];
                if rest.starts_with("-T") {
                    tokens.push(Token::SupInvT);
                    i += 3;
                } else if rest.starts_with("-1") {
                    tokens.push(Token::SupInv);
                    i += 3;
                } else if rest.starts_with('T') {
                    tokens.push(Token::SupT);
                    i += 2;
                } else {
                    return Err(ParseError::UnexpectedChar('^', i));
                }
            }
            c if c.is_ascii_alphabetic() => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(src[start..i].to_string()));
            }
            other => return Err(ParseError::UnexpectedChar(other, i)),
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self, expected: &str) -> Result<Token, ParseError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| ParseError::UnexpectedEnd(expected.to_string()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: &Token, expected: &str) -> Result<(), ParseError> {
        let t = self.next(expected)?;
        if &t == want {
            Ok(())
        } else {
            Err(ParseError::UnexpectedToken(
                t.to_string(),
                expected.to_string(),
            ))
        }
    }

    fn ident(&mut self, expected: &str) -> Result<String, ParseError> {
        match self.next(expected)? {
            Token::Ident(s) => Ok(s),
            t => Err(ParseError::UnexpectedToken(
                t.to_string(),
                expected.to_string(),
            )),
        }
    }
}

fn parse_structure(s: &str) -> Result<Structure, ParseError> {
    match s {
        "General" => Ok(Structure::General),
        "Symmetric" => Ok(Structure::Symmetric),
        "LowerTri" => Ok(Structure::LowerTri),
        "UpperTri" => Ok(Structure::UpperTri),
        other => Err(ParseError::UnknownStructure(other.to_string())),
    }
}

fn parse_property(s: &str) -> Result<Property, ParseError> {
    match s {
        "Singular" => Ok(Property::Singular),
        "NonSingular" => Ok(Property::NonSingular),
        "SPD" => Ok(Property::Spd),
        "Orthogonal" => Ok(Property::Orthogonal),
        other => Err(ParseError::UnknownProperty(other.to_string())),
    }
}

/// Parse a GMC program written in the grammar of Fig. 2, applying the
/// simplification rewrites of Sec. III-A.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first lexical, syntactic, or
/// semantic (undefined name, invalid features) problem encountered.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };

    // definitions
    let mut defs: HashMap<String, Features> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    loop {
        match p.peek() {
            Some(Token::Ident(kw)) if kw == "Matrix" => {
                p.pos += 1;
                let name = p.ident("matrix name")?;
                p.expect(&Token::Less, "`<`")?;
                let st = parse_structure(&p.ident("structure")?)?;
                p.expect(&Token::Comma, "`,`")?;
                let pr = parse_property(&p.ident("property")?)?;
                p.expect(&Token::Greater, "`>`")?;
                p.expect(&Token::Semi, "`;`")?;
                if defs.insert(name.clone(), Features::new(st, pr)).is_some() {
                    return Err(ParseError::DuplicateDefinition(name));
                }
                order.push(name);
            }
            _ => break,
        }
    }

    // expression: lhs := operand (* operand)+ ;
    let lhs = p.ident("left-hand side identifier")?;
    p.expect(&Token::Assign, "`:=`")?;
    let mut names: Vec<String> = Vec::new();
    let mut operands: Vec<Operand> = Vec::new();
    loop {
        let name = p.ident("operand identifier")?;
        let features = *defs
            .get(&name)
            .ok_or_else(|| ParseError::UndefinedMatrix(name.clone()))?;
        let mut op = Operand::plain(features);
        match p.peek() {
            Some(Token::SupT) => {
                op.transposed = true;
                p.pos += 1;
            }
            Some(Token::SupInv) => {
                op.inverted = true;
                p.pos += 1;
            }
            Some(Token::SupInvT) => {
                op.transposed = true;
                op.inverted = true;
                p.pos += 1;
            }
            _ => {}
        }
        names.push(name);
        operands.push(op);
        match p.next("`*` or `;`")? {
            Token::Star => continue,
            Token::Semi => break,
            t => {
                return Err(ParseError::UnexpectedToken(
                    t.to_string(),
                    "`*` or `;`".into(),
                ))
            }
        }
    }

    // Validate raw operands (e.g. inversion of a singular matrix) before
    // simplification, so user errors are reported on the input as written.
    for (index, &operand) in operands.iter().enumerate() {
        let valid_pre = operand.features.is_valid()
            && (!operand.inverted || operand.features.property.is_invertible());
        if !valid_pre {
            // Triangular-orthogonal (identity) operands are legal input; they
            // simplify away below. Everything else is an error.
            let is_identity = operand.features.property == Property::Orthogonal
                && operand.features.structure.is_triangular();
            if !is_identity {
                return Err(ParseError::Shape(ShapeError::InvalidOperand {
                    index,
                    operand,
                }));
            }
        }
    }

    let (simplified, rewrites) = simplify(&operands);
    // Track which names survive.
    let removed: Vec<usize> = rewrites
        .iter()
        .filter_map(|r| match r {
            Rewrite::RemoveIdentity(i) => Some(*i),
            _ => None,
        })
        .collect();
    let surviving_names: Vec<String> = names
        .iter()
        .enumerate()
        .filter(|(i, _)| !removed.contains(i))
        .map(|(_, n)| n.clone())
        .collect();

    if simplified.is_empty() {
        return Err(ParseError::EmptyAfterSimplification);
    }
    let shape = Shape::new(simplified)?;
    Ok(Program {
        lhs,
        names: surviving_names,
        shape,
        rewrites,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const KALMAN: &str = "
        # the ensemble Kalman filter chain G1 G2 G3^T M^-1
        Matrix G1 <General, Singular>;
        Matrix G2 <General, Singular>;
        Matrix G3 <General, Singular>;
        Matrix M  <Symmetric, SPD>;
        R := G1 * G2 * G3^T * M^-1;
    ";

    #[test]
    fn parses_kalman_chain() {
        let program = parse_program(KALMAN).unwrap();
        assert_eq!(program.lhs(), "R");
        assert_eq!(program.shape().len(), 4);
        assert!(program.shape().operand(2).transposed);
        assert!(program.shape().operand(3).inverted);
        assert_eq!(program.operand_names(), &["G1", "G2", "G3", "M"]);
    }

    #[test]
    fn undefined_matrix_is_error() {
        let err = parse_program("Matrix A <General, Singular>; X := A * B;").unwrap_err();
        assert_eq!(err, ParseError::UndefinedMatrix("B".into()));
    }

    #[test]
    fn duplicate_definition_is_error() {
        let err = parse_program(
            "Matrix A <General, Singular>; Matrix A <General, Singular>; X := A * A;",
        )
        .unwrap_err();
        assert_eq!(err, ParseError::DuplicateDefinition("A".into()));
    }

    /// A source naming `n` distinct general matrices multiplied in order.
    fn general_chain(n: usize) -> String {
        let defs: String = (0..n)
            .map(|i| format!("Matrix M{i} <General, Singular>;"))
            .collect();
        let product: Vec<String> = (0..n).map(|i| format!("M{i}")).collect();
        format!("{defs} X := {};", product.join(" * "))
    }

    #[test]
    fn chains_past_the_operand_limit_are_parse_errors() {
        use crate::shape::MAX_OPERANDS;
        let program = parse_program(&general_chain(MAX_OPERANDS)).unwrap();
        assert_eq!(program.shape().len(), MAX_OPERANDS);
        let err = parse_program(&general_chain(MAX_OPERANDS + 1)).unwrap_err();
        assert_eq!(
            err,
            ParseError::Shape(ShapeError::TooManyOperands { len: 129 })
        );
    }

    #[test]
    fn inverse_of_singular_is_error() {
        let err = parse_program(
            "Matrix A <General, Singular>; Matrix B <General, Singular>; X := A^-1 * B;",
        )
        .unwrap_err();
        assert!(matches!(err, ParseError::Shape(_)));
    }

    #[test]
    fn orthogonal_inverse_rewritten() {
        let program = parse_program(
            "Matrix Q <General, Orthogonal>; Matrix G <General, Singular>; X := Q^-1 * G;",
        )
        .unwrap();
        let q = program.shape().operand(0);
        assert!(!q.inverted);
        assert!(q.transposed);
        assert_eq!(program.rewrites().len(), 1);
    }

    #[test]
    fn identity_operand_removed() {
        let program = parse_program(
            "Matrix I <LowerTri, Orthogonal>; Matrix G <General, Singular>; \
             Matrix H <General, Singular>; X := G * I * H;",
        )
        .unwrap();
        assert_eq!(program.shape().len(), 2);
        assert_eq!(program.operand_names(), &["G", "H"]);
    }

    #[test]
    fn all_identity_chain_is_error() {
        let err = parse_program("Matrix I <UpperTri, Orthogonal>; X := I * I;").unwrap_err();
        assert_eq!(err, ParseError::EmptyAfterSimplification);
    }

    #[test]
    fn unknown_structure_and_property() {
        assert!(matches!(
            parse_program("Matrix A <Diagonal, Singular>; X := A;"),
            Err(ParseError::UnknownStructure(_))
        ));
        assert!(matches!(
            parse_program("Matrix A <General, Hermitian>; X := A;"),
            Err(ParseError::UnknownProperty(_))
        ));
    }

    #[test]
    fn lex_errors_are_reported() {
        assert!(matches!(
            parse_program("Matrix A <General, Singular>; X := A $ A;"),
            Err(ParseError::UnexpectedChar('$', _))
        ));
        assert!(matches!(
            parse_program("Matrix A <General, Singular>; X : A;"),
            Err(ParseError::UnexpectedChar(':', _))
        ));
    }

    #[test]
    fn truncated_input() {
        assert!(matches!(
            parse_program("Matrix A <General, Singular>; X := A"),
            Err(ParseError::UnexpectedEnd(_))
        ));
    }

    #[test]
    fn inv_transpose_operator() {
        let program = parse_program(
            "Matrix L <LowerTri, NonSingular>; Matrix G <General, Singular>; X := L^-T * G;",
        )
        .unwrap();
        let l = program.shape().operand(0);
        assert!(l.inverted && l.transposed);
    }

    #[test]
    fn transpose_of_symmetric_simplified() {
        let program = parse_program(
            "Matrix S <Symmetric, Singular>; Matrix G <General, Singular>; X := S^T * G;",
        )
        .unwrap();
        assert!(!program.shape().operand(0).transposed);
    }
}
