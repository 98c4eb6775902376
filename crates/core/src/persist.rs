//! Warm-restart persistence for [`CompileSession`](crate::CompileSession):
//! a compact text snapshot of the compiled-chain cache.
//!
//! A snapshot stores **decisions, not code**: for every cached chain it
//! records the shape descriptor (via [`Shape::compact`]) once, keyed by
//! the session's dense [`gmc_ir::ShapeInterner`] id, plus the selected
//! variants as parenthesization trees. Loading re-lowers each tree with
//! the deterministic variant builder, so a restored session produces
//! **bit-identical** compiled chains — same variants, cost polynomials,
//! and emitted C++/Rust — without re-running enumeration, DP, or the
//! Algorithm-1 expansion. That turns a service restart from a cold
//! recompile of every hot shape into a file read.
//!
//! # Format (`gmc-session-snapshot v1`)
//!
//! ```text
//! gmc-session-snapshot v1
//! options train=1000 lo=2 hi=1000 expand=0 obj=avg seed=6176455
//! shape 0 Gs Lni Gs
//! chain 0 ((0,1),2) (0,(1,2))
//! shape 1 ...
//! chain 1 ...
//! frags v1 2
//! frag 11 c Gn..:0:1:l0,Gn..:1:2:l1 l0~l1~GEMM~L~..~nn~.~0~1~2 Gs..:0:2:t0 2/1:0^1.1^1.2^1
//! frag ...
//! ```
//!
//! Shapes are numbered densely in snapshot order; `chain k` lists the
//! selected parenthesizations of `shape k` (leaves are operand indices,
//! nodes `(left,right)`). The `options` line fingerprints every
//! [`CompileOptions`] field that influences selection — snapshots only
//! restore into sessions with matching options, because the recorded
//! decisions would otherwise silently misrepresent what the session
//! would have selected. Thread counts are deliberately excluded: they
//! never change selection.
//!
//! The optional trailing **fragment section** (since PR 7) persists the
//! hot entries of the session's cross-shape fragment store
//! ([`crate::fragcache`]): `frags v1 <count>` followed by exactly
//! `<count>` `frag` lines, each one store entry in the canonical
//! span-local frame — build options, the span tree's preorder bit code
//! (hex), the localized leaf-descriptor run, the association step, the
//! result descriptor, and the exact rational cost polynomial. The
//! declared count makes torn writes detectable: a truncated section
//! fails decoding (and the serving layer quarantines the file) instead
//! of silently warm-starting from half a store. Snapshots without the
//! section — every pre-PR-7 snapshot — still decode; snapshots with an
//! empty store encode without it, byte-identical to the old format.

use crate::builder::{BuildOptions, Fragment, NodeDesc};
use crate::expand::Objective;
use crate::fragcache::FragKey;
use crate::paren::ParenTree;
use crate::program::CompileOptions;
use crate::variant::{Step, ValRef};
use gmc_ir::poly::Monomial;
use gmc_ir::{Poly, Property, Ratio, Shape, Structure};
use gmc_kernels::Kernel;
use gmc_linalg::{Side, Triangle};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// First line of every snapshot file.
pub const SNAPSHOT_HEADER: &str = "gmc-session-snapshot v1";

/// Errors from encoding, decoding, or restoring a snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The snapshot text is malformed (payload: 1-based line and cause).
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// The snapshot was taken under different compile options.
    OptionsMismatch {
        /// The restoring session's options fingerprint.
        expected: String,
        /// The snapshot's options fingerprint.
        found: String,
    },
    /// Re-lowering a recorded parenthesization failed.
    Rebuild(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot io error: {e}"),
            PersistError::Parse { line, msg } => {
                write!(f, "snapshot parse error on line {line}: {msg}")
            }
            PersistError::OptionsMismatch { expected, found } => write!(
                f,
                "snapshot was taken under different compile options \
                 (session: {expected}; snapshot: {found})"
            ),
            PersistError::Rebuild(msg) => write!(f, "snapshot variant rebuild failed: {msg}"),
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Fingerprint of everything that influences variant selection: the
/// [`CompileOptions`] fields plus the session's variant cap (the cap
/// decides the enumerate-vs-DP compile path, which changes the
/// candidate pool and therefore the recorded decisions).
pub(crate) fn options_key(o: &CompileOptions, variant_cap: u64) -> String {
    let obj = match o.objective {
        Objective::AvgPenalty => "avg",
        Objective::MaxPenalty => "max",
    };
    format!(
        "train={} lo={} hi={} expand={} obj={obj} seed={} vcap={variant_cap}",
        o.training_instances, o.size_lo, o.size_hi, o.expand_by, o.seed
    )
}

/// A decoded (or to-be-encoded) session snapshot: the selection decisions
/// of a set of compiled chains, one entry per distinct shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    options_key: String,
    entries: Vec<(Shape, Vec<ParenTree>)>,
    /// Hot cross-shape fragments in the canonical span-local frame (see
    /// [`crate::fragcache`]), oldest first. Empty for pre-PR-7 snapshots.
    frags: Vec<(FragKey, Fragment)>,
}

impl SessionSnapshot {
    pub(crate) fn from_parts(
        options_key: String,
        entries: Vec<(Shape, Vec<ParenTree>)>,
        frags: Vec<(FragKey, Fragment)>,
    ) -> Self {
        SessionSnapshot {
            options_key,
            entries,
            frags,
        }
    }

    /// Number of chains recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no chains are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The snapshot's options fingerprint line (without the `options `
    /// prefix).
    #[must_use]
    pub fn options_fingerprint(&self) -> &str {
        &self.options_key
    }

    /// `true` if this snapshot may be restored into a session running
    /// with `options` and the default variant cap (selection-relevant
    /// fields match). A session with a custom
    /// [`crate::CompileSession::set_variant_cap`] is checked precisely
    /// by [`crate::CompileSession::restore`] instead.
    #[must_use]
    pub fn compatible_with(&self, options: &CompileOptions) -> bool {
        self.options_key == options_key(options, crate::enumerate::DEFAULT_VARIANT_CAP)
    }

    /// The recorded shapes, in snapshot order.
    pub fn shapes(&self) -> impl Iterator<Item = &Shape> {
        self.entries.iter().map(|(s, _)| s)
    }

    pub(crate) fn entries(&self) -> &[(Shape, Vec<ParenTree>)] {
        &self.entries
    }

    pub(crate) fn frag_entries(&self) -> &[(FragKey, Fragment)] {
        &self.frags
    }

    /// Number of cross-shape fragments recorded.
    #[must_use]
    pub fn num_fragments(&self) -> usize {
        self.frags.len()
    }

    /// Fold `other`'s entries into this snapshot, skipping shapes already
    /// present. Returns the number of chains added.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::OptionsMismatch`] if the two snapshots
    /// were taken under different options.
    pub fn merge(&mut self, other: SessionSnapshot) -> Result<usize, PersistError> {
        if self.options_key != other.options_key {
            return Err(PersistError::OptionsMismatch {
                expected: self.options_key.clone(),
                found: other.options_key,
            });
        }
        let mut added = 0;
        for (shape, parens) in other.entries {
            if !self.entries.iter().any(|(s, _)| *s == shape) {
                self.entries.push((shape, parens));
                added += 1;
            }
        }
        // Fragments merge too (deduped by key) so per-shard snapshots
        // pool their stores into one service-wide warming set.
        for (key, frag) in other.frags {
            if !self.frags.iter().any(|(k, _)| *k == key) {
                self.frags.push((key, frag));
            }
        }
        Ok(added)
    }

    /// Serialize to the `gmc-session-snapshot v1` text format.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{SNAPSHOT_HEADER}");
        let _ = writeln!(out, "options {}", self.options_key);
        for (id, (shape, parens)) in self.entries.iter().enumerate() {
            let _ = writeln!(out, "shape {id} {}", shape.compact());
            let _ = write!(out, "chain {id}");
            for p in parens {
                out.push(' ');
                encode_paren(p, &mut out);
            }
            out.push('\n');
        }
        if !self.frags.is_empty() {
            let _ = writeln!(out, "frags v1 {}", self.frags.len());
            for (key, frag) in &self.frags {
                encode_frag(key, frag, &mut out);
                out.push('\n');
            }
        }
        out
    }

    /// Parse the `gmc-session-snapshot v1` text format.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Parse`] with the offending line on any
    /// malformed input, including parenthesizations that do not cover
    /// their shape's operands exactly.
    pub fn decode(text: &str) -> Result<Self, PersistError> {
        let err = |line: usize, msg: String| PersistError::Parse { line, msg };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| err(1, "empty snapshot".into()))?;
        if header.trim() != SNAPSHOT_HEADER {
            return Err(err(1, format!("bad header `{header}`")));
        }
        let (_, options_line) = lines
            .next()
            .ok_or_else(|| err(2, "missing options line".into()))?;
        let options_key = options_line
            .strip_prefix("options ")
            .ok_or_else(|| err(2, format!("expected `options ...`, got `{options_line}`")))?
            .to_string();

        let mut entries: Vec<(Shape, Vec<ParenTree>)> = Vec::new();
        let mut frags: Vec<(FragKey, Fragment)> = Vec::new();
        while let Some((i, line)) = lines.next() {
            let lineno = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("frags ") {
                // Versioned trailing fragment section: `frags v1 <count>`
                // then exactly <count> `frag` lines and nothing else. The
                // declared count is what makes torn writes detectable.
                let count = rest
                    .strip_prefix("v1 ")
                    .and_then(|c| c.parse::<usize>().ok())
                    .ok_or_else(|| err(lineno, format!("bad fragment section header `{line}`")))?;
                let mut last = lineno;
                for _ in 0..count {
                    let (j, frag_line) = lines.next().ok_or_else(|| {
                        err(
                            last,
                            format!("fragment section truncated: expected {count} entries"),
                        )
                    })?;
                    last = j + 1;
                    let body = frag_line.strip_prefix("frag ").ok_or_else(|| {
                        err(last, format!("expected `frag ...`, got `{frag_line}`"))
                    })?;
                    frags.push(decode_frag(body).map_err(|e| err(last, e))?);
                }
                if let Some((j, extra)) = lines.find(|(_, l)| !l.trim().is_empty()) {
                    return Err(err(
                        j + 1,
                        format!("fragment section must end the snapshot, got `{extra}`"),
                    ));
                }
                break;
            }
            let rest = line
                .strip_prefix("shape ")
                .ok_or_else(|| err(lineno, format!("expected `shape ...`, got `{line}`")))?;
            let (id_str, code) = rest
                .split_once(' ')
                .ok_or_else(|| err(lineno, "shape line needs an id and a code".into()))?;
            let id: usize = id_str
                .parse()
                .map_err(|_| err(lineno, format!("bad shape id `{id_str}`")))?;
            if id != entries.len() {
                return Err(err(
                    lineno,
                    format!(
                        "shape ids must be dense: expected {}, got {id}",
                        entries.len()
                    ),
                ));
            }
            let shape = Shape::from_compact(code).map_err(|e| err(lineno, e))?;

            let (j, chain_line) = lines
                .next()
                .ok_or_else(|| err(lineno, format!("shape {id} has no chain line")))?;
            let chainno = j + 1;
            let rest = chain_line
                .strip_prefix("chain ")
                .ok_or_else(|| err(chainno, format!("expected `chain ...`, got `{chain_line}`")))?;
            let mut tokens = rest.split_whitespace();
            let cid = tokens.next().unwrap_or("");
            if cid != id_str {
                return Err(err(
                    chainno,
                    format!("chain id `{cid}` != shape id `{id_str}`"),
                ));
            }
            let mut parens = Vec::new();
            for tok in tokens {
                let tree = decode_paren(tok).map_err(|e| err(chainno, e))?;
                if !covers_chain(&tree, shape.len()) {
                    return Err(err(
                        chainno,
                        format!(
                            "parenthesization `{tok}` does not cover operands 0..{}",
                            shape.len()
                        ),
                    ));
                }
                parens.push(tree);
            }
            if parens.is_empty() {
                return Err(err(chainno, format!("chain {id} has no variants")));
            }
            entries.push((shape, parens));
        }
        Ok(SessionSnapshot {
            options_key,
            entries,
            frags,
        })
    }

    /// Write the encoded snapshot to `path` **atomically**: the bytes go
    /// to a `<path>.tmp` sibling in the same directory first and are
    /// renamed into place, so a crash mid-write can never leave a
    /// truncated snapshot at `path` — readers see either the old file or
    /// the new one, whole.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (the temp file is cleaned up on a failed
    /// rename).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let path = path.as_ref();
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp_name);
        std::fs::write(&tmp, self.encode())?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        Ok(())
    }

    /// Read and decode a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures and [`PersistError::Parse`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        SessionSnapshot::decode(&std::fs::read_to_string(path)?)
    }

    /// Path of rotation `generation` of `path`: generation 0 is `path`
    /// itself (the newest), older generations are `<path>.1`,
    /// `<path>.2`, ... as produced by [`SessionSnapshot::save_rotated`].
    #[must_use]
    pub fn rotation_path(path: impl AsRef<Path>, generation: usize) -> std::path::PathBuf {
        let path = path.as_ref();
        if generation == 0 {
            return path.to_path_buf();
        }
        let mut name = path.as_os_str().to_owned();
        name.push(format!(".{generation}"));
        std::path::PathBuf::from(name)
    }

    /// [`SessionSnapshot::save`] with rotation for long-lived daemons:
    /// keep the last `keep` snapshot generations on disk. Existing
    /// generations are shifted by an atomic rename chain oldest-first
    /// (`<path>.{K-2}` → `<path>.{K-1}`, ..., `<path>` → `<path>.1` —
    /// each rename either lands whole or leaves the old file) before the
    /// new snapshot is written atomically to `path`. `keep <= 1`
    /// degrades to a plain [`SessionSnapshot::save`].
    ///
    /// A crash between the shift and the final write leaves `path`
    /// missing but `<path>.1` intact — readers that scan generations
    /// newest-first (the serving layer's startup) still warm from the
    /// previous state.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the renames or the final save.
    pub fn save_rotated(&self, path: impl AsRef<Path>, keep: usize) -> Result<(), PersistError> {
        let path = path.as_ref();
        SessionSnapshot::rotate_generations(path, keep)?;
        self.save(path)
    }

    /// The rename-chain half of [`SessionSnapshot::save_rotated`]: shift
    /// the existing generations of `path` one slot older, leaving `path`
    /// itself free for a new write. Exposed so crash-simulation paths
    /// (the serving layer's torn-write faults) can rotate exactly like a
    /// real save before dying mid-write.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the renames.
    pub fn rotate_generations(path: impl AsRef<Path>, keep: usize) -> Result<(), PersistError> {
        let path = path.as_ref();
        let keep = keep.max(1);
        for generation in (0..keep - 1).rev() {
            let from = SessionSnapshot::rotation_path(path, generation);
            if from.exists() {
                std::fs::rename(&from, SessionSnapshot::rotation_path(path, generation + 1))?;
            }
        }
        Ok(())
    }
}

/// Serialize a parenthesization: leaves are operand indices, nodes
/// `(left,right)` — e.g. `((0,1),2)`.
fn encode_paren(tree: &ParenTree, out: &mut String) {
    match tree {
        ParenTree::Leaf(i) => {
            let _ = write!(out, "{i}");
        }
        ParenTree::Node(l, r) => {
            out.push('(');
            encode_paren(l, out);
            out.push(',');
            encode_paren(r, out);
            out.push(')');
        }
    }
}

/// Parse the [`encode_paren`] format.
fn decode_paren(s: &str) -> Result<ParenTree, String> {
    fn node(b: &[u8], i: &mut usize) -> Result<ParenTree, String> {
        match b.get(*i) {
            Some(b'(') => {
                *i += 1;
                let left = node(b, i)?;
                if b.get(*i) != Some(&b',') {
                    return Err("expected `,` in parenthesization".into());
                }
                *i += 1;
                let right = node(b, i)?;
                if b.get(*i) != Some(&b')') {
                    return Err("expected `)` in parenthesization".into());
                }
                *i += 1;
                Ok(ParenTree::node(left, right))
            }
            Some(c) if c.is_ascii_digit() => {
                let start = *i;
                while b.get(*i).is_some_and(u8::is_ascii_digit) {
                    *i += 1;
                }
                let text = std::str::from_utf8(&b[start..*i]).expect("digits are utf8");
                text.parse()
                    .map(ParenTree::Leaf)
                    .map_err(|_| format!("bad leaf index `{text}`"))
            }
            other => Err(format!("unexpected byte {other:?} in parenthesization")),
        }
    }
    let b = s.as_bytes();
    let mut i = 0;
    let tree = node(b, &mut i)?;
    if i != b.len() {
        return Err(format!("trailing garbage in parenthesization `{s}`"));
    }
    Ok(tree)
}

// --- fragment section codecs -------------------------------------------
//
// One store entry per `frag` line, six space-separated fields:
//
//   frag <opts> <tree> <run> <step> <result> <cost>
//
// * opts   — `propagate_single_inversion` and `infer_structures` as
//            `1`/`0` chars;
// * tree   — the span tree's preorder bit code, lowercase hex;
// * run    — comma-joined localized leaf descriptors;
// * desc   — `<structure><property><T|.><I|.>:<rows>:<cols>:<source>`
//            with structure in `GYLU`, property in `snpo`, and sources
//            `l<i>` (leaf) / `t<i>` (temp);
// * step   — ten `~`-joined fields: operands, kernel name, side,
//            transposition flags, stored triangles (`l`/`u`/`n`), the
//            cheap-cost flag, and the size-symbol triplet;
// * cost   — `;`-joined exact-rational terms `num/den[:v^e.v^e...]`,
//            or `_` for the zero polynomial.

fn structure_char(s: Structure) -> char {
    match s {
        Structure::General => 'G',
        Structure::Symmetric => 'Y',
        Structure::LowerTri => 'L',
        Structure::UpperTri => 'U',
    }
}

fn structure_from(c: char) -> Result<Structure, String> {
    match c {
        'G' => Ok(Structure::General),
        'Y' => Ok(Structure::Symmetric),
        'L' => Ok(Structure::LowerTri),
        'U' => Ok(Structure::UpperTri),
        other => Err(format!("bad structure `{other}`")),
    }
}

fn property_char(p: Property) -> char {
    match p {
        Property::Singular => 's',
        Property::NonSingular => 'n',
        Property::Spd => 'p',
        Property::Orthogonal => 'o',
    }
}

fn property_from(c: char) -> Result<Property, String> {
    match c {
        's' => Ok(Property::Singular),
        'n' => Ok(Property::NonSingular),
        'p' => Ok(Property::Spd),
        'o' => Ok(Property::Orthogonal),
        other => Err(format!("bad property `{other}`")),
    }
}

fn flag_char(on: bool, c: char) -> char {
    if on {
        c
    } else {
        '.'
    }
}

fn tri_char(t: Option<Triangle>) -> char {
    match t {
        Some(Triangle::Lower) => 'l',
        Some(Triangle::Upper) => 'u',
        None => 'n',
    }
}

fn tri_from(c: char) -> Result<Option<Triangle>, String> {
    match c {
        'l' => Ok(Some(Triangle::Lower)),
        'u' => Ok(Some(Triangle::Upper)),
        'n' => Ok(None),
        other => Err(format!("bad triangle `{other}`")),
    }
}

fn encode_valref(v: ValRef, out: &mut String) {
    match v {
        ValRef::Leaf(i) => {
            let _ = write!(out, "l{i}");
        }
        ValRef::Temp(t) => {
            let _ = write!(out, "t{t}");
        }
    }
}

fn decode_valref(s: &str) -> Result<ValRef, String> {
    let idx = |t: &str| {
        t.parse::<usize>()
            .map_err(|_| format!("bad value index `{s}`"))
    };
    match s.split_at_checked(1) {
        Some(("l", rest)) => Ok(ValRef::Leaf(idx(rest)?)),
        Some(("t", rest)) => Ok(ValRef::Temp(idx(rest)?)),
        _ => Err(format!("bad value reference `{s}`")),
    }
}

fn encode_desc(d: &NodeDesc, out: &mut String) {
    out.push(structure_char(d.structure));
    out.push(property_char(d.property));
    out.push(flag_char(d.transposed, 'T'));
    out.push(flag_char(d.inverted, 'I'));
    let _ = write!(out, ":{}:{}:", d.rows, d.cols);
    encode_valref(d.source, out);
}

fn decode_desc(s: &str) -> Result<NodeDesc, String> {
    let mut parts = s.split(':');
    let head = parts.next().unwrap_or("");
    let (rows, cols, src) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(r), Some(c), Some(v), None) => (r, c, v),
        _ => return Err(format!("bad descriptor `{s}`")),
    };
    let chars: Vec<char> = head.chars().collect();
    let [st, pr, tr, inv] = chars.as_slice() else {
        return Err(format!("bad descriptor head `{head}`"));
    };
    let sym = |t: &str| {
        t.parse::<usize>()
            .map_err(|_| format!("bad size symbol `{t}`"))
    };
    Ok(NodeDesc {
        structure: structure_from(*st)?,
        property: property_from(*pr)?,
        transposed: match tr {
            'T' => true,
            '.' => false,
            other => return Err(format!("bad transpose flag `{other}`")),
        },
        inverted: match inv {
            'I' => true,
            '.' => false,
            other => return Err(format!("bad inverse flag `{other}`")),
        },
        rows: sym(rows)?,
        cols: sym(cols)?,
        source: decode_valref(src)?,
    })
}

fn encode_step(s: &Step, out: &mut String) {
    encode_valref(s.left, out);
    out.push('~');
    encode_valref(s.right, out);
    let _ = write!(out, "~{}~", s.kernel.name());
    out.push(match s.side {
        Side::Left => 'L',
        Side::Right => 'R',
    });
    out.push('~');
    out.push(flag_char(s.left_trans, 'T'));
    out.push(flag_char(s.right_trans, 'T'));
    out.push('~');
    out.push(tri_char(s.left_tri));
    out.push(tri_char(s.right_tri));
    out.push('~');
    out.push(flag_char(s.cheap, 'c'));
    let _ = write!(out, "~{}~{}~{}", s.triplet.0, s.triplet.1, s.triplet.2);
}

fn decode_step(s: &str) -> Result<Step, String> {
    let parts: Vec<&str> = s.split('~').collect();
    let [left, right, kernel, side, trans, tris, cheap, a, b, c] = parts.as_slice() else {
        return Err(format!("bad step `{s}`"));
    };
    let kernel = *Kernel::ALL
        .iter()
        .find(|k| k.name() == *kernel)
        .ok_or_else(|| format!("unknown kernel `{kernel}`"))?;
    let side = match *side {
        "L" => Side::Left,
        "R" => Side::Right,
        other => return Err(format!("bad side `{other}`")),
    };
    let flags = |t: &str| -> Result<(bool, bool), String> {
        let chars: Vec<char> = t.chars().collect();
        let on = |c: char| c != '.';
        match chars.as_slice() {
            [l, r] => Ok((on(*l), on(*r))),
            _ => Err(format!("bad flag pair `{t}`")),
        }
    };
    let (left_trans, right_trans) = flags(trans)?;
    let tri_chars: Vec<char> = tris.chars().collect();
    let [lt, rt] = tri_chars.as_slice() else {
        return Err(format!("bad triangle pair `{tris}`"));
    };
    let sym = |t: &str| {
        t.parse::<usize>()
            .map_err(|_| format!("bad size symbol `{t}`"))
    };
    Ok(Step {
        left: decode_valref(left)?,
        right: decode_valref(right)?,
        kernel,
        side,
        left_trans,
        right_trans,
        left_tri: tri_from(*lt)?,
        right_tri: tri_from(*rt)?,
        cheap: *cheap == "c",
        triplet: (sym(a)?, sym(b)?, sym(c)?),
    })
}

fn encode_poly(p: &Poly, out: &mut String) {
    if p.num_terms() == 0 {
        out.push('_');
        return;
    }
    for (i, (mono, coeff)) in p.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        let _ = write!(out, "{}/{}", coeff.numer(), coeff.denom());
        for (j, &(var, exp)) in mono.factors().iter().enumerate() {
            out.push(if j == 0 { ':' } else { '.' });
            let _ = write!(out, "{var}^{exp}");
        }
    }
}

fn decode_poly(s: &str) -> Result<Poly, String> {
    let mut p = Poly::zero();
    if s == "_" {
        return Ok(p);
    }
    for term in s.split(';') {
        let (ratio, factors) = match term.split_once(':') {
            Some((r, f)) => (r, Some(f)),
            None => (term, None),
        };
        let (num, den) = ratio
            .split_once('/')
            .ok_or_else(|| format!("bad coefficient `{ratio}`"))?;
        let num: i128 = num.parse().map_err(|_| format!("bad numerator `{num}`"))?;
        let den: i128 = den
            .parse()
            .map_err(|_| format!("bad denominator `{den}`"))?;
        if den <= 0 {
            return Err(format!("non-positive denominator `{den}`"));
        }
        let mut factor_list: Vec<(usize, u32)> = Vec::new();
        if let Some(factors) = factors {
            for f in factors.split('.') {
                let (v, e) = f
                    .split_once('^')
                    .ok_or_else(|| format!("bad factor `{f}`"))?;
                let v: usize = v.parse().map_err(|_| format!("bad variable `{v}`"))?;
                let e: u32 = e.parse().map_err(|_| format!("bad exponent `{e}`"))?;
                factor_list.push((v, e));
            }
        }
        p.add_term(Ratio::new(num, den), Monomial::from_factors(&factor_list));
    }
    Ok(p)
}

fn encode_frag(key: &FragKey, frag: &Fragment, out: &mut String) {
    let _ = write!(
        out,
        "frag {}{} {:x} ",
        u8::from(key.options.propagate_single_inversion),
        u8::from(key.options.infer_structures),
        key.tree
    );
    for (i, d) in key.run.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_desc(d, out);
    }
    out.push(' ');
    let step = frag
        .step
        .as_ref()
        .expect("only association fragments are exported");
    encode_step(step, out);
    out.push(' ');
    encode_desc(&frag.result, out);
    out.push(' ');
    encode_poly(&frag.cost, out);
}

fn decode_frag(body: &str) -> Result<(FragKey, Fragment), String> {
    let parts: Vec<&str> = body.split_whitespace().collect();
    let [opts, tree, run, step, result, cost] = parts.as_slice() else {
        return Err(format!("fragment line needs 6 fields, got {}", parts.len()));
    };
    let opt_chars: Vec<char> = opts.chars().collect();
    let [psi, is] = opt_chars.as_slice() else {
        return Err(format!("bad options `{opts}`"));
    };
    let bit = |c: char| match c {
        '1' => Ok(true),
        '0' => Ok(false),
        other => Err(format!("bad option bit `{other}`")),
    };
    let options = BuildOptions {
        propagate_single_inversion: bit(*psi)?,
        infer_structures: bit(*is)?,
    };
    let tree = u128::from_str_radix(tree, 16).map_err(|_| format!("bad tree code `{tree}`"))?;
    let run: Vec<NodeDesc> = run.split(',').map(decode_desc).collect::<Result<_, _>>()?;
    if run.len() < 2 {
        return Err("fragment runs span at least two leaves".into());
    }
    // A run of w leaves has at most w + 1 local size symbols, numbered in
    // first-occurrence order; restore sizes the entry's frame by the
    // largest one, so an out-of-range symbol must not get that far.
    if let Some(d) = run.iter().find(|d| d.rows.max(d.cols) > run.len()) {
        return Err(format!(
            "size symbol {} out of range for a {}-leaf run",
            d.rows.max(d.cols),
            run.len()
        ));
    }
    let frag = Fragment {
        step: Some(decode_step(step)?),
        cost: decode_poly(cost)?,
        result: decode_desc(result)?,
    };
    Ok((FragKey::new(options, tree, run.into()), frag))
}

/// `true` if the tree's in-order leaves are exactly `0..n` — i.e. it is a
/// valid parenthesization of an `n`-operand chain (not just a tree with a
/// plausible span).
fn covers_chain(tree: &ParenTree, n: usize) -> bool {
    fn walk(t: &ParenTree, next: &mut usize) -> bool {
        match t {
            ParenTree::Leaf(i) => {
                if *i == *next {
                    *next += 1;
                    true
                } else {
                    false
                }
            }
            ParenTree::Node(l, r) => walk(l, next) && walk(r, next),
        }
    }
    let mut next = 0;
    walk(tree, &mut next) && next == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_ir::{Features, Operand, Property, Structure};

    fn g() -> Operand {
        Operand::plain(Features::general())
    }

    fn sample() -> SessionSnapshot {
        let shape3 = Shape::new(vec![g(); 3]).unwrap();
        let l =
            Operand::plain(Features::new(Structure::LowerTri, Property::NonSingular)).inverted();
        let shape2 = Shape::new(vec![g(), l]).unwrap();
        SessionSnapshot::from_parts(
            options_key(&CompileOptions::default(), 1 << 16),
            vec![
                (
                    shape3,
                    vec![
                        ParenTree::left_to_right(0, 2),
                        ParenTree::right_to_left(0, 2),
                    ],
                ),
                (shape2, vec![ParenTree::left_to_right(0, 1)]),
            ],
            vec![],
        )
    }

    /// A snapshot carrying one real fragment-store entry, exported from a
    /// lowered 3-chain.
    fn sample_with_frags() -> SessionSnapshot {
        let shape = Shape::new(vec![g(); 3]).unwrap();
        let mut cache = crate::fragcache::FragmentCache::new(16);
        let mut pool = crate::pool::PoolBuilder::new();
        pool.build_full_cached(None, &shape, 1, Some(&mut cache))
            .unwrap();
        let frags = cache.export();
        assert!(!frags.is_empty(), "3-chain must export fragments");
        let mut snap = sample();
        snap.frags = frags;
        snap
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample();
        let text = snap.encode();
        assert!(text.starts_with(SNAPSHOT_HEADER));
        assert!(text.contains("shape 0 Gs Gs Gs"));
        assert!(text.contains("chain 0 ((0,1),2) (0,(1,2))"));
        assert!(text.contains("shape 1 Gs Lni"));
        let back = SessionSnapshot::decode(&text).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn fragment_section_round_trips_and_is_omitted_when_empty() {
        let empty = sample();
        assert!(
            !empty.encode().contains("frags "),
            "empty stores add no section"
        );

        let snap = sample_with_frags();
        let text = snap.encode();
        assert!(text.contains(&format!("frags v1 {}", snap.num_fragments())));
        let back = SessionSnapshot::decode(&text).unwrap();
        assert_eq!(snap, back, "fragment entries must survive a round trip");
        assert_eq!(text, back.encode(), "re-encoding is byte-identical");
    }

    #[test]
    fn fragment_section_merge_dedups_by_key() {
        let mut a = sample_with_frags();
        let n = a.num_fragments();
        let b = sample_with_frags();
        assert_eq!(a.merge(b).unwrap(), 0);
        assert_eq!(a.num_fragments(), n, "identical fragments add nothing");
    }

    #[test]
    fn torn_or_trailing_fragment_sections_are_rejected() {
        let good = sample_with_frags().encode();
        // Tearing the write anywhere inside the fragment section leaves
        // fewer lines than the declared count — the restart must see a
        // parse error (and quarantine), never a silently smaller store.
        let torn: String = good
            .lines()
            .take(good.lines().count() - 1)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(matches!(
            SessionSnapshot::decode(&torn),
            Err(PersistError::Parse { .. })
        ));

        let trailing = format!("{} \nchain 0 (0,(1,2))", good.trim_end());
        assert!(matches!(
            SessionSnapshot::decode(&trailing),
            Err(PersistError::Parse { .. })
        ));

        let cases: &[&str] = &[
            &format!("{SNAPSHOT_HEADER}\noptions k\nfrags v2 0"),
            &format!("{SNAPSHOT_HEADER}\noptions k\nfrags v1 x"),
            &format!("{SNAPSHOT_HEADER}\noptions k\nfrags v1 1"),
            &format!("{SNAPSHOT_HEADER}\noptions k\nfrags v1 1\nfrag bogus"),
            &format!(
                "{SNAPSHOT_HEADER}\noptions k\nfrags v1 1\nfrag 10 c G..:0:1:l0 x G..:0:2:t0 _"
            ),
        ];
        for text in cases {
            assert!(
                matches!(
                    SessionSnapshot::decode(text),
                    Err(PersistError::Parse { .. })
                ),
                "expected parse error for {text:?}"
            );
        }
    }

    #[test]
    fn out_of_range_run_symbols_are_rejected() {
        // A size symbol past the run's w + 1 local symbols would make
        // restore allocate a frame that large (or overflow computing its
        // size): the snapshot must fail to decode and be quarantined.
        let good = sample_with_frags().encode();
        let lines: Vec<&str> = good.lines().collect();
        let at = lines
            .iter()
            .position(|l| l.starts_with("frag "))
            .expect("sample carries a fragment line");
        let fields: Vec<&str> = lines[at].split(' ').collect();
        let (head, tail) = fields[3].split_once(':').expect("descriptor head");
        let (_, tail) = tail.split_once(':').expect("rows symbol");
        for huge in ["18446744073709551614", "1000000000"] {
            let bad_run = format!("{head}:{huge}:{tail}");
            let mut bad_fields = fields.clone();
            bad_fields[3] = &bad_run;
            let bad_line = bad_fields.join(" ");
            let mut bad = lines.clone();
            bad[at] = &bad_line;
            match SessionSnapshot::decode(&bad.join("\n")) {
                Err(PersistError::Parse { line, msg }) => {
                    assert_eq!(line, at + 1);
                    assert!(msg.contains("out of range"), "{msg}");
                }
                other => panic!("expected a parse error for symbol {huge}, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_snapshots_are_rejected_with_line_numbers() {
        let cases: &[(&str, usize)] = &[
            ("", 1),
            ("not-a-header\noptions x", 1),
            (SNAPSHOT_HEADER, 2),
            (&format!("{SNAPSHOT_HEADER}\noptions k\nchain 0 0"), 3),
            (&format!("{SNAPSHOT_HEADER}\noptions k\nshape 1 Gs"), 3),
            (&format!("{SNAPSHOT_HEADER}\noptions k\nshape 0 Gs Qs"), 3),
            (&format!("{SNAPSHOT_HEADER}\noptions k\nshape 0 Gs Gs"), 3),
            (
                &format!("{SNAPSHOT_HEADER}\noptions k\nshape 0 Gs Gs\nchain 0"),
                4,
            ),
            (
                &format!("{SNAPSHOT_HEADER}\noptions k\nshape 0 Gs Gs\nchain 0 (0,(1,2))"),
                4,
            ),
            (
                &format!("{SNAPSHOT_HEADER}\noptions k\nshape 0 Gs Gs\nchain 0 (0,0)"),
                4,
            ),
            (
                &format!("{SNAPSHOT_HEADER}\noptions k\nshape 0 Gs Gs\nchain 0 (0,1)x"),
                4,
            ),
        ];
        for (text, line) in cases {
            match SessionSnapshot::decode(text) {
                Err(PersistError::Parse { line: got, .. }) => {
                    assert_eq!(got, *line, "wrong line for {text:?}");
                }
                other => panic!("expected parse error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn merge_dedups_and_checks_options() {
        let mut a = sample();
        let b = sample();
        assert_eq!(a.merge(b).unwrap(), 0, "identical snapshots add nothing");
        let extra = SessionSnapshot::from_parts(
            a.options_fingerprint().to_string(),
            vec![(
                Shape::new(vec![g(); 4]).unwrap(),
                vec![ParenTree::left_to_right(0, 3)],
            )],
            vec![],
        );
        assert_eq!(a.merge(extra).unwrap(), 1);
        assert_eq!(a.len(), 3);
        let alien = SessionSnapshot::from_parts("other".into(), vec![], vec![]);
        assert!(matches!(
            a.merge(alien),
            Err(PersistError::OptionsMismatch { .. })
        ));
    }

    #[test]
    fn options_key_tracks_selection_inputs_only() {
        let base = CompileOptions::default();
        let mut seeded = base.clone();
        seeded.seed += 1;
        assert_ne!(options_key(&base, 100), options_key(&seeded, 100));
        let mut obj = base.clone();
        obj.objective = Objective::MaxPenalty;
        assert_ne!(options_key(&base, 100), options_key(&obj, 100));
        assert_ne!(
            options_key(&base, 100),
            options_key(&base, 200),
            "variant cap"
        );
    }
}
