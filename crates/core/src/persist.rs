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
//! ```
//!
//! Shapes are numbered densely in snapshot order; `chain k` lists the
//! selected parenthesizations of `shape k` (leaves are operand indices,
//! nodes `(left,right)`), each tree at most once. The `options` line
//! fingerprints every [`CompileOptions`] field that influences
//! selection — snapshots only restore into sessions with matching
//! options, because the recorded decisions would otherwise silently
//! misrepresent what the session would have selected. The number of
//! shards or batch workers is deliberately excluded: it never changes
//! selection.
//!
//! Nothing else is stored: the session's cross-shape fragment store
//! ([`crate::fragcache`]) refills itself as restore re-lowers the trees.
//! Older files may end in a `frags v1 <count>` section of lowered
//! fragments; [`SessionSnapshot::decode`] reads such a file up to its
//! `frags` line and ignores the rest, so a daemon upgraded in place
//! still warms from its old snapshot.

use crate::expand::Objective;
use crate::paren::ParenTree;
use crate::program::CompileOptions;
use gmc_ir::{Shape, MAX_OPERANDS};
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
    /// Chains [`SessionSnapshot::decode`] skipped as too long.
    skipped: usize,
}

impl SessionSnapshot {
    pub(crate) fn from_parts(options_key: String, entries: Vec<(Shape, Vec<ParenTree>)>) -> Self {
        SessionSnapshot {
            options_key,
            entries,
            skipped: 0,
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

    /// Chains the decoded file recorded but this snapshot left out,
    /// because they hold more than [`MAX_OPERANDS`] matrices (a build
    /// without that limit cached them).
    #[must_use]
    pub fn skipped(&self) -> usize {
        self.skipped
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
        out
    }

    /// Parse the `gmc-session-snapshot v1` text format. A `frags ` line,
    /// which older files may carry, ends the snapshot: it and everything
    /// after it are ignored. A chain of more than [`MAX_OPERANDS`]
    /// matrices is skipped with its chain line and counted
    /// ([`SessionSnapshot::skipped`]), not restored.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Parse`] with the offending line on any
    /// malformed input, including parenthesizations that do not cover
    /// their shape's operands exactly and a chain line that lists one
    /// tree twice (compile never selects a tree twice, so restoring the
    /// repeat would serve a chain compile cannot produce).
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
        let mut skipped = 0;
        while let Some((i, line)) = lines.next() {
            let lineno = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            if line.starts_with("frags ") {
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
            if id != entries.len() + skipped {
                return Err(err(
                    lineno,
                    format!(
                        "shape ids must be dense: expected {}, got {id}",
                        entries.len() + skipped
                    ),
                ));
            }
            let too_long = code.split_whitespace().count() > MAX_OPERANDS;
            let shape = if too_long {
                None
            } else {
                Some(Shape::from_compact(code).map_err(|e| err(lineno, e))?)
            };

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
            let Some(shape) = shape else {
                skipped += 1;
                continue;
            };
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
                if parens.contains(&tree) {
                    return Err(err(
                        chainno,
                        format!("parenthesization `{tok}` is listed twice"),
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
            skipped,
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
        )
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
    fn a_repeated_tree_on_a_chain_line_is_rejected() {
        // Compile never selects one tree twice, so a chain line that
        // repeats one is corrupt: restoring it would serve a chain that
        // no compile produces.
        let text = sample().encode().replace(
            "chain 0 ((0,1),2) (0,(1,2))",
            "chain 0 ((0,1),2) ((0,1),2) (0,(1,2))",
        );
        match SessionSnapshot::decode(&text) {
            Err(PersistError::Parse { line, msg }) => {
                assert_eq!(line, 4);
                assert!(msg.contains("listed twice"), "{msg}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn an_old_fragment_section_ends_the_snapshot() {
        // Whatever follows a `frags` line, malformed or not, is ignored.
        let snap = sample();
        let text = format!("{}frags v1 3\nfrag bogus\nshape 9 Qs\n", snap.encode());
        assert_eq!(SessionSnapshot::decode(&text).unwrap(), snap);
    }

    #[test]
    fn a_chain_past_the_operand_limit_is_skipped_not_fatal() {
        // A file written before the limit, with a 129-matrix chain
        // between the two chains of `sample()`: that one is left out
        // and counted, the rest restore as written.
        let snap = sample();
        let text = snap.encode();
        let long = vec!["Gs"; MAX_OPERANDS + 1].join(" ");
        let tree = ParenTree::left_to_right(0, MAX_OPERANDS);
        let mut paren = String::new();
        encode_paren(&tree, &mut paren);
        let text = text.replace(
            "shape 1 ",
            &format!("shape 1 {long}\nchain 1 {paren}\nshape 2 "),
        );
        let text = text.replace("chain 1 (0,1)", "chain 2 (0,1)");
        let back = SessionSnapshot::decode(&text).unwrap();
        assert_eq!(back.skipped(), 1);
        assert_eq!(back.entries(), snap.entries());
        // A malformed chain line under a skipped shape is still an error.
        let torn = text.replace(&format!("chain 1 {paren}"), "chain 7 (0,1)");
        assert!(SessionSnapshot::decode(&torn).is_err());
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
        );
        assert_eq!(a.merge(extra).unwrap(), 1);
        assert_eq!(a.len(), 3);
        let alien = SessionSnapshot::from_parts("other".into(), vec![]);
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
