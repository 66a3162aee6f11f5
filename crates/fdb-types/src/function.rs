//! Function definitions.
//!
//! A conceptual schema is a collection of function *definitions*
//! `<function_name, domain_type, range_type>` plus declared type
//! functionality (§2). The actual functions — sets of `<domain_val,
//! range_val>` pairs — live in `fdb-storage`.

use std::fmt;

use crate::functionality::Functionality;
use crate::types::TypeId;

/// Dense identifier of a function within one [`crate::Schema`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FunctionId(pub u32);

impl FunctionId {
    /// Returns the underlying index for dense per-function tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// Definition of one function in the conceptual schema.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FunctionDef {
    /// Identifier within the owning schema.
    pub id: FunctionId,
    /// The function's name, unique within the schema.
    pub name: String,
    /// Domain object type.
    pub domain: TypeId,
    /// Range object type.
    pub range: TypeId,
    /// Declared type functionality of the mapping.
    pub functionality: Functionality,
}

impl FunctionDef {
    /// Returns the (domain, range) pair — the function's *syntax* in the
    /// paper's terminology.
    pub fn syntax(&self) -> (TypeId, TypeId) {
        (self.domain, self.range)
    }

    /// `true` if the function maps a type to itself (a self-loop in the
    /// function graph).
    pub fn is_loop(&self) -> bool {
        self.domain == self.range
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syntax_and_loop() {
        let f = FunctionDef {
            id: FunctionId(0),
            name: "teach".into(),
            domain: TypeId(0),
            range: TypeId(1),
            functionality: Functionality::ManyMany,
        };
        assert_eq!(f.syntax(), (TypeId(0), TypeId(1)));
        assert!(!f.is_loop());

        let g = FunctionDef {
            id: FunctionId(1),
            name: "mentor".into(),
            domain: TypeId(2),
            range: TypeId(2),
            functionality: Functionality::ManyOne,
        };
        assert!(g.is_loop());
    }
}
