//! Facts: `<f, a, b>` triples representing `f(a) = b` (§3.2).

use std::fmt;

use serde::{Deserialize, Serialize};

use fdb_types::codec::{put_uint, Reader};
use fdb_types::{FunctionId, Result, Value};

/// A fact `f(a) = b`, denoted `<f, a, b>` in the paper.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Fact {
    /// The function the fact belongs to.
    pub function: FunctionId,
    /// Domain value (`a`).
    pub x: Value,
    /// Range value (`b`).
    pub y: Value,
}

impl Fact {
    /// Builds a fact.
    pub fn new(function: FunctionId, x: impl Into<Value>, y: impl Into<Value>) -> Self {
        Fact {
            function,
            x: x.into(),
            y: y.into(),
        }
    }

    /// The `(x, y)` pair of the fact.
    pub fn pair(&self) -> (Value, Value) {
        (self.x.clone(), self.y.clone())
    }

    /// `true` if either side of the fact is a null value.
    pub fn has_null(&self) -> bool {
        self.x.is_null() || self.y.is_null()
    }

    /// Smallest encoded fact: a function id and two empty atoms.
    pub(crate) const MIN_ENCODED: usize = 5;

    /// Appends the fact's binary snapshot form (an NC conjunct).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_uint(out, u64::from(self.function.0));
        self.x.encode(out);
        self.y.encode(out);
    }

    /// Reads a fact written by [`Fact::encode`].
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Fact> {
        let function = u32::try_from(r.uint()?).map_err(|_| r.error("function id out of range"))?;
        Ok(Fact {
            function: FunctionId(function),
            x: Value::decode(r)?,
            y: Value::decode(r)?,
        })
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}, {}>", self.function, self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::NullId;

    #[test]
    fn construction_and_pair() {
        let f = Fact::new(FunctionId(0), "euclid", "math");
        assert_eq!(f.pair(), (Value::atom("euclid"), Value::atom("math")));
        assert!(!f.has_null());
    }

    #[test]
    fn has_null_detects_either_side() {
        let n = Value::Null(NullId(1));
        assert!(Fact::new(FunctionId(0), n.clone(), Value::atom("x")).has_null());
        assert!(Fact::new(FunctionId(0), Value::atom("x"), n).has_null());
    }

    #[test]
    fn display_is_triple_notation() {
        let f = Fact::new(FunctionId(2), "gauss", Value::Null(NullId(1)));
        assert_eq!(f.to_string(), "<F2, gauss, n1>");
    }
}
