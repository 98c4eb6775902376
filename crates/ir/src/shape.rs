//! The *shape* of a generalized matrix chain: its sequence of operands with
//! features and unary operators, everything except the concrete sizes.

use crate::classes::EquivClasses;
use crate::features::{Property, Structure};
use crate::operand::Operand;
use std::error::Error;
use std::fmt;

/// The most matrices one chain may hold. Enumeration memory grows about
/// eightfold per doubling of the chain length (a 128-operand chain peaks
/// near 150 MiB, a 512-operand one exhausts a 4 GiB address space), so
/// longer chains are refused before any work is done on them.
pub const MAX_OPERANDS: usize = 128;

/// Errors detected when validating a shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// A chain needs at least one matrix.
    Empty,
    /// Operand `index` combines features/operators illegally (e.g. inverting
    /// a singular matrix, or a general SPD matrix).
    InvalidOperand {
        /// Zero-based operand index.
        index: usize,
        /// The offending operand.
        operand: Operand,
    },
    /// The chain holds more than [`MAX_OPERANDS`] matrices.
    TooManyOperands {
        /// How many matrices the chain holds.
        len: usize,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::Empty => write!(f, "a chain must contain at least one matrix"),
            ShapeError::InvalidOperand { index, operand } => {
                write!(
                    f,
                    "operand {index} has invalid features/operators: {operand}"
                )
            }
            ShapeError::TooManyOperands { len } => write!(
                f,
                "a chain may hold at most {MAX_OPERANDS} matrices, this one has {len}"
            ),
        }
    }
}

impl Error for ShapeError {}

/// The shape of a GMC with `n` matrices.
///
/// Matrix `i` (zero-based) has symbolic size `q_i × q_{i+1}`; a shape with
/// `n` operands involves `n + 1` size symbols `q_0, ..., q_n`.
///
/// # Example
///
/// ```
/// use gmc_ir::{Features, Operand, Property, Shape, Structure};
/// // G1 * L^{-1} * G2, the triangular-inversion building block from the paper.
/// let g = Operand::plain(Features::general());
/// let l = Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular)).inverted();
/// let shape = Shape::new(vec![g, l, g])?;
/// assert_eq!(shape.len(), 3);
/// assert_eq!(shape.num_sizes(), 4);
/// # Ok::<(), gmc_ir::ShapeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    operands: Vec<Operand>,
}

impl Shape {
    /// Create and validate a shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Empty`] for an empty chain,
    /// [`ShapeError::TooManyOperands`] for one longer than
    /// [`MAX_OPERANDS`], and [`ShapeError::InvalidOperand`] if any
    /// operand is invalid.
    pub fn new(operands: Vec<Operand>) -> Result<Self, ShapeError> {
        if operands.is_empty() {
            return Err(ShapeError::Empty);
        }
        if operands.len() > MAX_OPERANDS {
            return Err(ShapeError::TooManyOperands {
                len: operands.len(),
            });
        }
        for (index, &operand) in operands.iter().enumerate() {
            if !operand.is_valid() {
                return Err(ShapeError::InvalidOperand { index, operand });
            }
        }
        Ok(Shape { operands })
    }

    /// Number of matrices `n` in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.operands.len()
    }

    /// `true` if the chain has no matrices (never true for constructed shapes).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.operands.is_empty()
    }

    /// Number of size symbols, `n + 1`.
    #[must_use]
    pub fn num_sizes(&self) -> usize {
        self.operands.len() + 1
    }

    /// The operand at position `i` (zero-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn operand(&self, i: usize) -> Operand {
        self.operands[i]
    }

    /// All operands in order.
    #[must_use]
    pub fn operands(&self) -> &[Operand] {
        &self.operands
    }

    /// Size-symbol equivalence classes: `q_i ~ q_{i+1}` whenever matrix `i`
    /// is necessarily square (Sec. V of the paper).
    #[must_use]
    pub fn size_classes(&self) -> EquivClasses {
        let mut classes = EquivClasses::new(self.num_sizes());
        for (i, op) in self.operands.iter().enumerate() {
            if op.forces_square() {
                classes.union(i, i + 1);
            }
        }
        classes
    }

    /// `true` if at least one matrix may be rectangular.
    #[must_use]
    pub fn has_rectangular(&self) -> bool {
        self.operands.iter().any(|o| !o.forces_square())
    }

    /// Number of square matrices in the chain (used in the paper's
    /// `n_c = n - n_sq + 1` count of equivalence classes).
    #[must_use]
    pub fn num_square(&self) -> usize {
        self.operands.iter().filter(|o| o.forces_square()).count()
    }

    /// Compact, parseable single-line code for persistence:
    /// space-joined [`Operand::compact`] codes, e.g. `Gs Lni Gst`.
    /// Round-trips through [`Shape::from_compact`].
    #[must_use]
    pub fn compact(&self) -> String {
        self.operands
            .iter()
            .map(Operand::compact)
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Parse a shape code produced by [`Shape::compact`], re-validating
    /// the operand combination exactly as [`Shape::new`] does.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed or invalid code.
    pub fn from_compact(code: &str) -> Result<Shape, String> {
        let operands: Vec<Operand> = code
            .split_whitespace()
            .map(Operand::from_compact)
            .collect::<Result<_, _>>()?;
        Shape::new(operands).map_err(|e| e.to_string())
    }

    /// A compact single-line description, e.g. `G * L^-1 * G^T`.
    #[must_use]
    pub fn brief(&self) -> String {
        self.operands
            .iter()
            .map(|o| {
                let base = match (o.effective_structure(), o.property()) {
                    (Structure::General, Property::Orthogonal) => "Q",
                    (Structure::General, _) => "G",
                    (Structure::Symmetric, Property::Spd) => "P",
                    (Structure::Symmetric, _) => "S",
                    (Structure::LowerTri, _) => "L",
                    (Structure::UpperTri, _) => "U",
                };
                let sup = match (o.transposed, o.inverted) {
                    (false, false) => "",
                    (true, false) => "^T",
                    (false, true) => "^-1",
                    (true, true) => "^-T",
                };
                format!("{base}{sup}")
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.brief())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Features;

    fn g() -> Operand {
        Operand::plain(Features::general())
    }

    fn l_inv() -> Operand {
        Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular)).inverted()
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Shape::new(vec![]), Err(ShapeError::Empty));
    }

    #[test]
    fn chains_longer_than_the_operand_limit_are_rejected() {
        assert!(Shape::new(vec![g(); MAX_OPERANDS]).is_ok());
        let err = Shape::new(vec![g(); MAX_OPERANDS + 1]).unwrap_err();
        assert_eq!(err, ShapeError::TooManyOperands { len: 129 });
        // Snapshot `shape` lines go through the same check.
        let code = Shape::new(vec![g(); MAX_OPERANDS]).unwrap().compact();
        assert!(Shape::from_compact(&code).is_ok());
        let long = format!("{code} {}", code.split_whitespace().next().unwrap());
        let err = Shape::from_compact(&long).unwrap_err();
        assert!(err.contains("at most 128 matrices"), "{err}");
    }

    #[test]
    fn invalid_operand_reported_with_index() {
        let bad = Operand::plain(Features::general()).inverted();
        let err = Shape::new(vec![g(), bad]).unwrap_err();
        assert!(matches!(err, ShapeError::InvalidOperand { index: 1, .. }));
    }

    #[test]
    fn size_classes_merge_around_square_matrices() {
        // G L^{-1} G: L is square so q1 ~ q2.
        let shape = Shape::new(vec![g(), l_inv(), g()]).unwrap();
        let classes = shape.size_classes();
        assert_eq!(classes.num_classes(), 3);
        assert_eq!(classes.find(1), classes.find(2));
        assert_ne!(classes.find(0), classes.find(1));
    }

    #[test]
    fn num_square_counts() {
        let shape = Shape::new(vec![g(), l_inv(), g()]).unwrap();
        assert_eq!(shape.num_square(), 1);
        assert!(shape.has_rectangular());
        // n_c = n - n_sq + 1 = 3 - 1 + 1 = 3.
        assert_eq!(
            shape.size_classes().num_classes(),
            shape.len() - shape.num_square() + 1
        );
    }

    #[test]
    fn paper_example_s1_g2_s3_l4_g5() {
        // S1 G2 S3 L4 G5 has classes {q0,q1}, {q2,q3,q4}, {q5}.
        let s = Operand::plain(Features::new(Structure::Symmetric, Property::Singular));
        let l = Operand::plain(Features::new(Structure::LowerTri, Property::Singular));
        let shape = Shape::new(vec![s, g(), s, l, g()]).unwrap();
        let classes = shape.size_classes();
        assert_eq!(classes.num_classes(), 3);
        assert_eq!(classes.find(0), classes.find(1));
        assert_eq!(classes.find(2), classes.find(3));
        assert_eq!(classes.find(3), classes.find(4));
        assert_ne!(classes.find(1), classes.find(2));
        assert_ne!(classes.find(4), classes.find(5));
    }

    #[test]
    fn compact_round_trips() {
        let shape = Shape::new(vec![g(), l_inv(), g().transposed()]).unwrap();
        let code = shape.compact();
        assert_eq!(code, "Gs Lni Gst");
        assert_eq!(Shape::from_compact(&code), Ok(shape));
        // Invalid operand combinations are rejected on parse, like `new`.
        assert!(Shape::from_compact("Gsi").is_err(), "inverted singular");
        assert!(Shape::from_compact("").is_err(), "empty chain");
    }

    #[test]
    fn brief_notation() {
        let shape = Shape::new(vec![g(), l_inv(), g()]).unwrap();
        assert_eq!(shape.brief(), "G L^-1 G");
    }
}
