//! Data values: atoms and uniquely-indexed null values.
//!
//! Section 3.2 of the paper introduces *null values* `n₁, n₂, …` to
//! represent the existential witness created by a derived insert: inserting
//! `<f₃, a₃, c₃>` where `f₃ = f₁ o f₂` stores `<f₁, a₃, n₁>` and
//! `<f₂, n₁, c₃>` for a fresh, uniquely indexed null `n₁`.
//!
//! Matching rules (quoted from the paper): two facts `<x, y>`, `<u, v>`
//! *match exactly* if `y = u`, and *match ambiguously* if `y ≠ u` and
//! (`y` is a null value or `u` is a null value). `y = u` iff both are
//! non-null and are the same data item, or both are null values with the
//! same index.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::codec::{put_str, put_uint, Reader};
use crate::error::Result;

/// An interned immutable data atom (a non-null object identifier).
///
/// Atoms are cheap to clone (`Arc<str>`), compare by string content, and
/// hash by content so that structurally equal atoms coming from different
/// sources behave identically.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Atom(Arc<str>);

impl Atom {
    /// Creates an atom from any string-like input.
    pub fn new(s: impl AsRef<str>) -> Self {
        Atom(Arc::from(s.as_ref()))
    }

    /// Returns the atom's textual content.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Atom {
    fn from(s: &str) -> Self {
        Atom::new(s)
    }
}

impl From<String> for Atom {
    fn from(s: String) -> Self {
        Atom(Arc::from(s))
    }
}

/// The unique index of a null value (`n₁`, `n₂`, …).
///
/// Two nulls are the *same* value iff their indices are equal; nulls with
/// distinct indices may or may not denote the same underlying object, which
/// is exactly the ambiguity the paper's chain-matching rules capture.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NullId(pub u64);

impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Generator of fresh, uniquely indexed null values.
///
/// Each database owns one generator so null indices never collide within an
/// instance. The generator is deliberately deterministic: the `k`-th null
/// created is always `n_k`, which keeps traces reproducible (and matches the
/// paper's worked example, where the first derived insert creates `n1`).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NullGen {
    next: u64,
}

impl NullGen {
    /// Creates a generator whose first null will be `n1`.
    pub fn new() -> Self {
        NullGen { next: 1 }
    }

    /// Returns a fresh null value, advancing the counter.
    pub fn fresh(&mut self) -> Value {
        let id = NullId(self.next);
        self.next += 1;
        Value::Null(id)
    }

    /// Number of nulls generated so far.
    pub fn generated(&self) -> u64 {
        self.next.saturating_sub(1)
    }

    /// A generator whose next fresh null takes index `watermark` — the
    /// inverse of [`NullGen::watermark`], for restoring a snapshot.
    pub fn from_watermark(watermark: u64) -> Self {
        NullGen { next: watermark }
    }

    /// Internal watermark: the index the next fresh null will take.
    ///
    /// Capture this before a speculative operation and pass it back to
    /// [`NullGen::rewind`] to un-draw the nulls generated since — the
    /// storage-layer undo journal uses this so a rolled-back transaction
    /// leaves the generator byte-identical to its pre-transaction state.
    pub fn watermark(&self) -> u64 {
        self.next
    }

    /// Rewinds the generator to a previously captured [`NullGen::watermark`].
    ///
    /// Only ever rewind to a watermark taken from this generator: the
    /// indices drawn since the watermark must no longer be referenced
    /// anywhere (the undo journal guarantees this by removing the rows
    /// that used them first).
    pub fn rewind(&mut self, watermark: u64) {
        debug_assert!(
            watermark <= self.next,
            "rewind target {watermark} is ahead of the generator ({})",
            self.next
        );
        self.next = watermark;
    }
}

/// A data value: either a concrete [`Atom`] or a [`NullId`]-indexed null.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Value {
    /// A concrete data item.
    Atom(Atom),
    /// A uniquely indexed null value standing for an unknown data item.
    Null(NullId),
}

impl Value {
    /// Convenience constructor for an atom value.
    pub fn atom(s: impl AsRef<str>) -> Self {
        Value::Atom(Atom::new(s))
    }

    /// Returns `true` if this value is a null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Returns the atom content if this value is an atom.
    pub fn as_atom(&self) -> Option<&Atom> {
        match self {
            Value::Atom(a) => Some(a),
            Value::Null(_) => None,
        }
    }

    /// Appends the value's binary snapshot form: a tag byte, then the
    /// atom's length-prefixed text or the null's index.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Atom(a) => {
                out.push(0);
                put_str(out, a.as_str());
            }
            Value::Null(n) => {
                out.push(1);
                put_uint(out, n.0);
            }
        }
    }

    /// Reads a value written by [`Value::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Value> {
        match r.byte()? {
            0 => Ok(Value::atom(r.str()?)),
            1 => Ok(Value::Null(NullId(r.uint()?))),
            _ => Err(r.error("unknown value tag")),
        }
    }

    /// How this value matches another under the paper's §3.2 rules.
    ///
    /// * [`MatchKind::Exact`] — the values are equal (same atom, or nulls
    ///   with the same index);
    /// * [`MatchKind::Ambiguous`] — the values differ but at least one is a
    ///   null, so they *could* denote the same object;
    /// * [`MatchKind::None`] — two distinct atoms; they can never match.
    pub fn matches(&self, other: &Value) -> MatchKind {
        if self == other {
            MatchKind::Exact
        } else if self.is_null() || other.is_null() {
            MatchKind::Ambiguous
        } else {
            MatchKind::None
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Atom(a) => a.fmt(f),
            Value::Null(n) => n.fmt(f),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::atom(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Atom(Atom::from(s))
    }
}

impl From<Atom> for Value {
    fn from(a: Atom) -> Self {
        Value::Atom(a)
    }
}

/// The result of matching two values (or two adjacent facts in a chain).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum MatchKind {
    /// The values are equal.
    Exact,
    /// The values differ but one of them is a null, so equality is possible.
    Ambiguous,
    /// Two distinct atoms; equality is impossible.
    None,
}

impl MatchKind {
    /// Combines the match kinds of successive links of a chain: a chain
    /// matches exactly iff every link does, ambiguously if no link is an
    /// outright mismatch but some link is ambiguous.
    pub fn and(self, other: MatchKind) -> MatchKind {
        use MatchKind::*;
        match (self, other) {
            (None, _) | (_, None) => None,
            (Ambiguous, _) | (_, Ambiguous) => Ambiguous,
            (Exact, Exact) => Exact,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_equality_is_by_content() {
        assert_eq!(Atom::new("math"), Atom::new(String::from("math")));
        assert_ne!(Atom::new("math"), Atom::new("physics"));
    }

    #[test]
    fn null_gen_starts_at_n1_and_is_sequential() {
        let mut g = NullGen::new();
        assert_eq!(g.fresh(), Value::Null(NullId(1)));
        assert_eq!(g.fresh(), Value::Null(NullId(2)));
        assert_eq!(g.generated(), 2);
    }

    #[test]
    fn matching_atoms() {
        let a = Value::atom("x");
        let b = Value::atom("x");
        let c = Value::atom("y");
        assert_eq!(a.matches(&b), MatchKind::Exact);
        assert_eq!(a.matches(&c), MatchKind::None);
    }

    #[test]
    fn matching_nulls_same_index_is_exact() {
        let n1 = Value::Null(NullId(1));
        let n1b = Value::Null(NullId(1));
        assert_eq!(n1.matches(&n1b), MatchKind::Exact);
    }

    #[test]
    fn matching_nulls_distinct_index_is_ambiguous() {
        let n1 = Value::Null(NullId(1));
        let n2 = Value::Null(NullId(2));
        assert_eq!(n1.matches(&n2), MatchKind::Ambiguous);
    }

    #[test]
    fn matching_null_with_atom_is_ambiguous() {
        let n1 = Value::Null(NullId(1));
        let a = Value::atom("x");
        assert_eq!(n1.matches(&a), MatchKind::Ambiguous);
        assert_eq!(a.matches(&n1), MatchKind::Ambiguous);
    }

    #[test]
    fn match_kind_and_combines_like_three_valued_conjunction() {
        use MatchKind::*;
        assert_eq!(Exact.and(Exact), Exact);
        assert_eq!(Exact.and(Ambiguous), Ambiguous);
        assert_eq!(Ambiguous.and(Ambiguous), Ambiguous);
        assert_eq!(None.and(Exact), None);
        assert_eq!(Ambiguous.and(None), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::atom("euclid").to_string(), "euclid");
        assert_eq!(Value::Null(NullId(7)).to_string(), "n7");
    }

    #[test]
    fn binary_round_trip() {
        let values = [
            Value::atom(""),
            Value::atom("[ann; db]"),
            Value::Null(NullId(0)),
            Value::Null(NullId(u64::MAX)),
        ];
        let mut out = Vec::new();
        for v in &values {
            v.encode(&mut out);
        }
        let mut r = Reader::new(&out);
        for v in &values {
            assert_eq!(&Value::decode(&mut r).unwrap(), v);
        }
        r.finish().unwrap();
        assert!(Value::decode(&mut Reader::new(&[2, 0])).is_err());
        assert!(Value::decode(&mut Reader::new(&[0, 5, b'a'])).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let v = Value::Null(NullId(3));
        let s = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&s).unwrap();
        assert_eq!(v, back);
        let v = Value::atom("gauss");
        let s = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&s).unwrap();
        assert_eq!(v, back);
    }
}
