//! Three-valued logic (§3.2).
//!
//! "In this logic a fact can be *true*, *false*, or *ambiguous*. Partial
//! information is embodied by facts whose truth value is ambiguous."

use std::fmt;

/// Truth value of a fact under the paper's three-valued logic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Truth {
    /// The fact is known false. Base facts absent from the database are
    /// false; stored facts are never flagged false (they are removed
    /// instead).
    False,
    /// The fact might be true or false — it participates in unresolved
    /// partial information.
    Ambiguous,
    /// The fact is known true.
    True,
}

impl Truth {
    /// Three-valued conjunction (Kleene strong AND): `False` dominates,
    /// then `Ambiguous`, then `True`.
    pub fn and(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (Ambiguous, _) | (_, Ambiguous) => Ambiguous,
            (True, True) => True,
        }
    }

    /// Three-valued disjunction (Kleene strong OR): `True` dominates,
    /// then `Ambiguous`, then `False`. Used to combine the evidence of
    /// several chains/derivations for the same derived fact.
    pub fn or(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (Ambiguous, _) | (_, Ambiguous) => Ambiguous,
            (False, False) => False,
        }
    }

    /// The paper's single-letter flag notation (`T`/`A`); false facts are
    /// not stored, but `F` is rendered for completeness.
    pub fn flag(self) -> char {
        match self {
            Truth::True => 'T',
            Truth::Ambiguous => 'A',
            Truth::False => 'F',
        }
    }
}

impl fmt::Display for Truth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.flag())
    }
}

#[cfg(test)]
mod tests {
    use super::Truth::*;
    use super::*;

    const ALL: [Truth; 3] = [False, Ambiguous, True];

    #[test]
    fn conjunction_truth_table() {
        assert_eq!(True.and(True), True);
        assert_eq!(True.and(Ambiguous), Ambiguous);
        assert_eq!(Ambiguous.and(Ambiguous), Ambiguous);
        assert_eq!(False.and(True), False);
        assert_eq!(False.and(Ambiguous), False);
    }

    #[test]
    fn disjunction_truth_table() {
        assert_eq!(False.or(False), False);
        assert_eq!(False.or(Ambiguous), Ambiguous);
        assert_eq!(Ambiguous.or(Ambiguous), Ambiguous);
        assert_eq!(True.or(False), True);
        assert_eq!(True.or(Ambiguous), True);
    }

    #[test]
    fn and_or_are_commutative_and_associative() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.and(b), b.and(a));
                assert_eq!(a.or(b), b.or(a));
                for c in ALL {
                    assert_eq!(a.and(b).and(c), a.and(b.and(c)));
                    assert_eq!(a.or(b).or(c), a.or(b.or(c)));
                }
            }
        }
    }

    #[test]
    fn ordering_false_lt_ambiguous_lt_true() {
        assert!(False < Ambiguous);
        assert!(Ambiguous < True);
    }

    #[test]
    fn flags() {
        assert_eq!(True.flag(), 'T');
        assert_eq!(Ambiguous.flag(), 'A');
        assert_eq!(False.to_string(), "F");
    }
}
