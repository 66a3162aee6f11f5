//! The type-functionality algebra.
//!
//! §2.1: "The type functionality of a function indicates the nature of the
//! mapping it defines: one-one, one-many, many-one, and many-many." Paths
//! in the function graph compose functionalities; traversing an edge
//! against its declared direction uses the inverse functionality.
//!
//! We model a functionality as the pair of booleans
//! (*functional*: every domain object has at most one range object,
//! *injective*: every range object has at most one domain object):
//!
//! | variant    | functional | injective |
//! |------------|-----------|-----------|
//! | one-one    | yes       | yes       |
//! | one-many   | no        | yes       |
//! | many-one   | yes       | no        |
//! | many-many  | no        | no        |
//!
//! Under this reading `cutoff : marks → letter_grade (many-one)` maps many
//! marks to one letter grade: it is functional but not injective.
//! Composition is the conservative type-level rule: `f o g` is functional
//! iff both are, injective iff both are. Inverse swaps the two booleans.
//! Both operations are closed over the four variants, which is what makes
//! path functionality well-defined.

use std::fmt;
use std::str::FromStr;

use crate::error::FdbError;

/// Type functionality of a function or path (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Functionality {
    /// Bijective mapping: each side determines the other.
    OneOne,
    /// One domain object may map to many range objects; range determines domain.
    OneMany,
    /// Many domain objects map to at most one range object each.
    ManyOne,
    /// Unrestricted binary relation.
    ManyMany,
}

impl Functionality {
    /// All four variants, in declaration order.
    pub const ALL: [Functionality; 4] = [
        Functionality::OneOne,
        Functionality::OneMany,
        Functionality::ManyOne,
        Functionality::ManyMany,
    ];

    /// Builds a functionality from its (functional, injective) components.
    pub fn from_parts(functional: bool, injective: bool) -> Self {
        match (functional, injective) {
            (true, true) => Functionality::OneOne,
            (false, true) => Functionality::OneMany,
            (true, false) => Functionality::ManyOne,
            (false, false) => Functionality::ManyMany,
        }
    }

    /// `true` iff each domain object has at most one range object.
    pub fn is_functional(self) -> bool {
        matches!(self, Functionality::OneOne | Functionality::ManyOne)
    }

    /// `true` iff each range object has at most one domain object.
    pub fn is_injective(self) -> bool {
        matches!(self, Functionality::OneOne | Functionality::OneMany)
    }

    /// Functionality of the inverse mapping (swap the two components).
    pub fn inverse(self) -> Self {
        Functionality::from_parts(self.is_injective(), self.is_functional())
    }

    /// Type-level functionality of the composition `self o other`
    /// (`x : (f o g) = (x : f) : g`, so `self` is applied first).
    pub fn compose(self, other: Self) -> Self {
        Functionality::from_parts(
            self.is_functional() && other.is_functional(),
            self.is_injective() && other.is_injective(),
        )
    }

    /// The paper's notation, e.g. `many - one`.
    pub fn paper_notation(self) -> &'static str {
        match self {
            Functionality::OneOne => "one - one",
            Functionality::OneMany => "one - many",
            Functionality::ManyOne => "many - one",
            Functionality::ManyMany => "many - many",
        }
    }
}

impl fmt::Display for Functionality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Functionality::OneOne => "one-one",
            Functionality::OneMany => "one-many",
            Functionality::ManyOne => "many-one",
            Functionality::ManyMany => "many-many",
        };
        f.write_str(s)
    }
}

impl FromStr for Functionality {
    type Err = FdbError;

    /// Accepts `one-one`, `one - one`, `1:1`, `one_one`, case-insensitively,
    /// and similarly for the other variants.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm: String = s
            .chars()
            .filter(|c| !c.is_whitespace())
            .map(|c| match c {
                '_' | ':' => '-',
                c => c.to_ascii_lowercase(),
            })
            .collect();
        match norm.as_str() {
            "one-one" | "1-1" => Ok(Functionality::OneOne),
            "one-many" | "1-n" | "1-m" => Ok(Functionality::OneMany),
            "many-one" | "n-1" | "m-1" => Ok(Functionality::ManyOne),
            "many-many" | "n-n" | "m-n" | "n-m" | "m-m" => Ok(Functionality::ManyMany),
            _ => Err(FdbError::ParseFunctionality(s.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Functionality::*;
    use super::*;

    #[test]
    fn parts_round_trip() {
        for f in Functionality::ALL {
            assert_eq!(
                Functionality::from_parts(f.is_functional(), f.is_injective()),
                f
            );
        }
    }

    #[test]
    fn inverse_swaps_components() {
        assert_eq!(OneOne.inverse(), OneOne);
        assert_eq!(OneMany.inverse(), ManyOne);
        assert_eq!(ManyOne.inverse(), OneMany);
        assert_eq!(ManyMany.inverse(), ManyMany);
    }

    #[test]
    fn inverse_is_involutive() {
        for f in Functionality::ALL {
            assert_eq!(f.inverse().inverse(), f);
        }
    }

    #[test]
    fn composition_table() {
        // Functional iff both functional; injective iff both injective.
        assert_eq!(OneOne.compose(OneOne), OneOne);
        assert_eq!(ManyOne.compose(ManyOne), ManyOne);
        assert_eq!(ManyOne.compose(OneMany), ManyMany);
        assert_eq!(OneMany.compose(ManyOne), ManyMany);
        assert_eq!(OneOne.compose(ManyOne), ManyOne);
        assert_eq!(OneMany.compose(OneMany), OneMany);
        assert_eq!(ManyMany.compose(OneOne), ManyMany);
    }

    #[test]
    fn composition_is_associative() {
        for a in Functionality::ALL {
            for b in Functionality::ALL {
                for c in Functionality::ALL {
                    assert_eq!(a.compose(b).compose(c), a.compose(b.compose(c)));
                }
            }
        }
    }

    #[test]
    fn one_one_is_composition_identity() {
        for f in Functionality::ALL {
            assert_eq!(OneOne.compose(f), f);
            assert_eq!(f.compose(OneOne), f);
        }
    }

    #[test]
    fn inverse_antidistributes_over_composition() {
        // (f o g)⁻¹ = g⁻¹ o f⁻¹ at the type level. Since our compose is
        // symmetric in its boolean components this is easy, but assert it.
        for f in Functionality::ALL {
            for g in Functionality::ALL {
                assert_eq!(f.compose(g).inverse(), g.inverse().compose(f.inverse()));
            }
        }
    }

    #[test]
    fn parse_accepts_paper_notation() {
        assert_eq!("many - many".parse::<Functionality>().unwrap(), ManyMany);
        assert_eq!("many - one".parse::<Functionality>().unwrap(), ManyOne);
        assert_eq!("ONE_ONE".parse::<Functionality>().unwrap(), OneOne);
        assert_eq!("1:1".parse::<Functionality>().unwrap(), OneOne);
        assert_eq!("n:1".parse::<Functionality>().unwrap(), ManyOne);
        assert!("sideways".parse::<Functionality>().is_err());
    }

    #[test]
    fn display_and_paper_notation() {
        assert_eq!(ManyOne.to_string(), "many-one");
        assert_eq!(ManyOne.paper_notation(), "many - one");
    }
}
