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

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::codec::{put_bytes, put_uint, Reader};
use crate::error::Result;

/// The longest atom, in bytes, held inside its [`Value`].
const INLINE_BYTES: usize = 14;

/// An immutable data atom (a non-null object identifier).
///
/// An atom of up to 14 bytes is held inline: it is cloned by copying, and
/// compared, hashed and printed without a heap dereference or a reference
/// count. A longer one shares its text behind an `Arc<String>`, a thin
/// pointer that keeps a `Value` at 16 bytes but costs two allocations to
/// build and two pointer hops to read. The form depends only on the
/// length, so equal atoms always have the same form. Atoms compare and
/// order by their text, and equal texts hash alike.
#[derive(Clone, PartialEq, Eq)]
pub struct Atom(Repr);

#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline(Inline),
    Shared(Arc<String>),
}

/// The length of an inline atom. The byte values it never takes are where
/// `Repr` and `Value` keep their variant, so that a `Value` is 16 bytes.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum InlineLen {
    L0,
    L1,
    L2,
    L3,
    L4,
    L5,
    L6,
    L7,
    L8,
    L9,
    L10,
    L11,
    L12,
    L13,
    L14,
}

const INLINE_LENS: [InlineLen; INLINE_BYTES + 1] = {
    use InlineLen::*;
    [
        L0, L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11, L12, L13, L14,
    ]
};

/// An inline atom's text is `bytes[..len]` and the bytes after it are
/// zero, so equal texts are equal bytes. `repr(C)` keeps the length byte
/// first, so that the pointer of `Repr::Shared` and the index of
/// `Value::Null` fit in the 8 bytes after it.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(C)]
struct Inline {
    len: InlineLen,
    bytes: [u8; INLINE_BYTES],
}

const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Inline {
    fn text(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize])
            .expect("an inline atom holds the bytes of a whole `str`")
    }

    /// The zero-padded text, then the length, read as one big-endian
    /// number. Keys order as the texts do: a pad byte is never greater
    /// than a text byte, and two texts that pad to the same bytes differ
    /// only in trailing zero bytes, so the shorter is a prefix of the
    /// longer.
    fn key(&self) -> u128 {
        let mut k = [0u8; 16];
        k[..INLINE_BYTES].copy_from_slice(&self.bytes);
        k[15] = self.len as u8;
        u128::from_be_bytes(k)
    }
}

impl Atom {
    /// Creates an atom from any string-like input.
    pub fn new(s: impl AsRef<str>) -> Self {
        let s = s.as_ref();
        Atom::inline(s).unwrap_or_else(|| Atom(Repr::Shared(Arc::new(s.to_owned()))))
    }

    fn inline(s: &str) -> Option<Atom> {
        let len = *INLINE_LENS.get(s.len())?;
        let mut bytes = [0u8; INLINE_BYTES];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Some(Atom(Repr::Inline(Inline { len, bytes })))
    }

    /// Returns the atom's textual content.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline(i) => i.text(),
            Repr::Shared(s) => s,
        }
    }

    /// The text's bytes, without the UTF-8 check `as_str` makes of an
    /// inline atom: what the snapshot and log encoders write.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(i) => &i.bytes[..i.len as usize],
            Repr::Shared(s) => s.as_bytes(),
        }
    }
}

impl Ord for Atom {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Inline(a), Repr::Inline(b)) => a.key().cmp(&b.key()),
            _ => self.as_str().cmp(other.as_str()),
        }
    }
}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An inline atom hashes its key, a shared one its text: an inline atom
/// never equals a shared one, so equal atoms hash alike.
impl Hash for Atom {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.0 {
            Repr::Inline(i) => state.write_u128(i.key()),
            Repr::Shared(s) => s.hash(state),
        }
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Atom {
    fn from(s: &str) -> Self {
        Atom::new(s)
    }
}

impl From<String> for Atom {
    fn from(s: String) -> Self {
        Atom::inline(&s).unwrap_or_else(|| Atom(Repr::Shared(Arc::new(s))))
    }
}

/// The unique index of a null value (`n₁`, `n₂`, …).
///
/// Two nulls are the *same* value iff their indices are equal; nulls with
/// distinct indices may or may not denote the same underlying object, which
/// is exactly the ambiguity the paper's chain-matching rules capture.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
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
#[derive(Clone, Debug, Default)]
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
///
/// 16 bytes: a null's index, or an atom inline or its pointer, after a
/// byte that tells the three apart.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
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

    /// Appends the value's binary snapshot form: a tag byte, then the
    /// atom's length-prefixed text or the null's index.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Atom(a) => {
                out.push(0);
                put_bytes(out, a.as_bytes());
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
    fn an_atom_is_inline_up_to_fourteen_bytes() {
        for (text, inline) in [
            ("", true),
            ("s19999", true),
            ("abcdefghijklmn", true),
            ("abcdefghijklmno", false),
            ("ééééééé", true),
            ("éééééééé", false),
        ] {
            for atom in [Atom::new(text), Atom::from(text.to_owned())] {
                assert_eq!(matches!(atom.0, Repr::Inline(_)), inline, "{text:?}");
                assert_eq!(atom.as_str(), text);
            }
        }
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
            Value::atom("a shared atom of thirty bytes!"),
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
}
