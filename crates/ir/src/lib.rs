//! Intermediate representation for Generalized Matrix Chains (GMCs).
//!
//! A GMC is a product `op(M_1) op(M_2) ... op(M_n)` where each matrix
//! carries *features* — a [`Structure`] (general, symmetric, triangular) and
//! a [`Property`] (singular, non-singular, SPD, orthogonal) — and each
//! `op` optionally transposes and/or inverts its operand. The *shape* of a
//! chain ([`Shape`]) is the sequence of feature/operator pairs; the matrix
//! sizes stay symbolic (`q_0, ..., q_n`) until run time, when an
//! [`Instance`] assigns concrete values.
//!
//! This crate provides:
//!
//! * the feature system and validity/simplification rewrites of Sec. III-A
//!   of the paper ([`features`], [`rewrite`]);
//! * the input grammar of Fig. 2 with a lexer and recursive-descent parser
//!   ([`grammar`]);
//! * symbolic size machinery: size-symbol equivalence classes
//!   ([`classes::EquivClasses`]) and exact multivariate cost polynomials
//!   over the size symbols ([`poly::Poly`], [`ratio::Ratio`]);
//! * instance generation for training/validation sets ([`instance`]).
//!
//! # Example
//!
//! ```
//! use gmc_ir::grammar::parse_program;
//!
//! let src = "
//!     Matrix A <General, Singular>;
//!     Matrix L <LowerTri, NonSingular>;
//!     Matrix B <General, Singular>;
//!     X := A * L^-1 * B;
//! ";
//! let program = parse_program(src)?;
//! let shape = program.shape();
//! assert_eq!(shape.len(), 3);
//! assert!(shape.operand(1).inverted);
//! # Ok::<(), gmc_ir::grammar::ParseError>(())
//! ```

#![warn(missing_docs)]
pub mod classes;
pub mod emit;
pub mod features;
pub mod grammar;
pub mod instance;
pub mod intern;
pub mod operand;
pub mod poly;
pub mod ratio;
pub mod rewrite;
pub mod shape;

pub use classes::EquivClasses;
pub use features::{Features, Property, Structure};
pub use instance::{Instance, InstanceSampler};
pub use intern::{ShapeId, ShapeInterner};
pub use operand::Operand;
pub use poly::Poly;
pub use ratio::Ratio;
pub use shape::{Shape, ShapeError, MAX_OPERANDS};
