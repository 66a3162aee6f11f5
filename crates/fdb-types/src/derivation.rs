//! Derivation expressions.
//!
//! A *derivation* of a derived function `G` is an ordered sequence of base
//! functions combined with the operations identity and inverse:
//! `g = u₁ f_{i₁} o u₂ f_{i₂} o … o u_k f_{i_k}` with
//! `uⱼ ∈ {identity, inverse}` (§2). Composition is
//! `x : (f o g) = (x : f) : g`, i.e. the *first* step is applied first.
//!
//! A derivation is well-formed with respect to a schema when the effective
//! range of each step equals the effective domain of the next, where the
//! effective domain/range of an inverse step are the declared range/domain
//! swapped.

use std::fmt;

use crate::catalog::{self, Refusal};
use crate::error::{FdbError, Result};
use crate::function::FunctionId;
use crate::functionality::Functionality;
use crate::schema::Schema;
use crate::types::TypeId;

/// The per-step operator: use the function as declared, or inverted.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Op {
    /// Use the function as declared.
    Identity,
    /// Use the inverse of the function.
    Inverse,
}

impl Op {
    /// Flips identity ↔ inverse.
    pub fn flip(self) -> Op {
        match self {
            Op::Identity => Op::Inverse,
            Op::Inverse => Op::Identity,
        }
    }
}

/// One step of a derivation: `u F` for `u ∈ {identity, inverse}`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Step {
    /// The operator applied to the function.
    pub op: Op,
    /// The base function used by this step.
    pub function: FunctionId,
}

impl Step {
    /// A step using the function as declared.
    pub fn identity(function: FunctionId) -> Self {
        Step {
            op: Op::Identity,
            function,
        }
    }

    /// A step using the inverse of the function.
    pub fn inverse(function: FunctionId) -> Self {
        Step {
            op: Op::Inverse,
            function,
        }
    }

    /// Effective (domain, range) of the step under a schema.
    pub fn endpoints(&self, schema: &Schema) -> (TypeId, TypeId) {
        let def = schema.function(self.function);
        match self.op {
            Op::Identity => (def.domain, def.range),
            Op::Inverse => (def.range, def.domain),
        }
    }

    /// Effective functionality of the step under a schema.
    pub fn functionality(&self, schema: &Schema) -> Functionality {
        let f = schema.function(self.function).functionality;
        match self.op {
            Op::Identity => f,
            Op::Inverse => f.inverse(),
        }
    }
}

/// A derivation: a non-empty sequence of [`Step`]s composed left to right.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Derivation {
    steps: Vec<Step>,
}

impl Derivation {
    /// Builds a derivation from steps, rejecting the empty sequence.
    pub fn new(steps: Vec<Step>) -> Result<Self> {
        if steps.is_empty() {
            return Err(FdbError::MalformedDerivation(
                "a derivation must have at least one step".into(),
            ));
        }
        Ok(Derivation { steps })
    }

    /// A single-step derivation (e.g. `taught_by = teach⁻¹`).
    pub fn single(step: Step) -> Self {
        Derivation { steps: vec![step] }
    }

    /// The steps, first-applied first.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Derivations are never empty, so this is always `false`; provided to
    /// satisfy the usual container idiom.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Validates chaining against a schema and returns the derivation's
    /// effective (domain, range) — its *syntax* in the paper's terms.
    pub fn endpoints(&self, schema: &Schema) -> Result<(TypeId, TypeId)> {
        catalog::chain(schema, self, 0).map_err(|refusal| match refusal {
            Refusal::BrokenChain {
                step,
                expected,
                found,
                ..
            } => FdbError::MalformedDerivation(format!(
                "step {step} expects domain {} but previous range is {}",
                schema.type_name(expected),
                schema.type_name(found)
            )),
            _ => FdbError::UnknownFunction(self.to_string()),
        })
    }

    /// Composed type functionality of the whole derivation.
    pub fn functionality(&self, schema: &Schema) -> Functionality {
        self.steps
            .iter()
            .map(|s| s.functionality(schema))
            .reduce(Functionality::compose)
            .expect("derivations are non-empty")
    }

    /// The inverse derivation: steps reversed, each op flipped.
    pub fn inverted(&self) -> Derivation {
        Derivation {
            steps: self
                .steps
                .iter()
                .rev()
                .map(|s| Step {
                    op: s.op.flip(),
                    function: s.function,
                })
                .collect(),
        }
    }

    /// `true` if the derivation mentions the given function (in either
    /// orientation).
    pub fn mentions(&self, f: FunctionId) -> bool {
        self.steps.iter().any(|s| s.function == f)
    }

    /// Renders the derivation with function names, e.g.
    /// `class_list^-1 o teach^-1`.
    pub fn render(&self, schema: &Schema) -> String {
        self.steps
            .iter()
            .map(|s| {
                let name = &schema.function(s.function).name;
                match s.op {
                    Op::Identity => name.clone(),
                    Op::Inverse => format!("{name}^-1"),
                }
            })
            .collect::<Vec<_>>()
            .join(" o ")
    }
}

impl fmt::Display for Derivation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .steps
            .iter()
            .map(|s| match s.op {
                Op::Identity => format!("{}", s.function),
                Op::Inverse => format!("{}^-1", s.function),
            })
            .collect();
        f.write_str(&parts.join(" o "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{schema_s1, schema_s2};

    #[test]
    fn empty_derivation_rejected() {
        assert!(matches!(
            Derivation::new(vec![]),
            Err(FdbError::MalformedDerivation(_))
        ));
    }

    #[test]
    fn grade_equals_score_o_cutoff() {
        let s = schema_s1();
        let score = s.resolve("score").unwrap();
        let cutoff = s.resolve("cutoff").unwrap();
        let d = Derivation::new(vec![Step::identity(score), Step::identity(cutoff)]).unwrap();
        let (dom, rng) = d.endpoints(&s).unwrap();
        let grade = s.function_by_name("grade").unwrap();
        assert_eq!((dom, rng), grade.syntax());
        assert_eq!(d.functionality(&s), grade.functionality);
        assert_eq!(d.render(&s), "score o cutoff");
    }

    #[test]
    fn lecturer_of_derivation_uses_inverses() {
        let s = schema_s2();
        let teach = s.resolve("teach").unwrap();
        let class_list = s.resolve("class_list").unwrap();
        // lecturer_of = class_list⁻¹ o teach⁻¹ : student → faculty
        let d = Derivation::new(vec![Step::inverse(class_list), Step::inverse(teach)]).unwrap();
        let (dom, rng) = d.endpoints(&s).unwrap();
        assert_eq!(s.type_name(dom), "student");
        assert_eq!(s.type_name(rng), "faculty");
        assert_eq!(d.render(&s), "class_list^-1 o teach^-1");
    }

    #[test]
    fn broken_chain_is_malformed() {
        let s = schema_s1();
        let teach = s.resolve("teach").unwrap(); // faculty → course
        let cutoff = s.resolve("cutoff").unwrap(); // marks → letter_grade
        let d = Derivation::new(vec![Step::identity(teach), Step::identity(cutoff)]).unwrap();
        assert!(matches!(
            d.endpoints(&s),
            Err(FdbError::MalformedDerivation(_))
        ));
    }

    #[test]
    fn inverted_reverses_and_flips() {
        let s = schema_s2();
        let teach = s.resolve("teach").unwrap();
        let class_list = s.resolve("class_list").unwrap();
        let d = Derivation::new(vec![Step::inverse(class_list), Step::inverse(teach)]).unwrap();
        let inv = d.inverted();
        assert_eq!(
            inv.steps(),
            &[Step::identity(teach), Step::identity(class_list)]
        );
        // Inverting twice is the identity.
        assert_eq!(inv.inverted(), d);
        // Endpoints swap.
        let (d0, r0) = d.endpoints(&s).unwrap();
        let (d1, r1) = inv.endpoints(&s).unwrap();
        assert_eq!((d0, r0), (r1, d1));
    }

    #[test]
    fn functionality_composes_with_inverse() {
        let s = schema_s1();
        let cutoff = s.resolve("cutoff").unwrap(); // many-one
        let d = Derivation::single(Step::inverse(cutoff));
        assert_eq!(d.functionality(&s), Functionality::OneMany);
    }

    #[test]
    fn mentions_checks_either_orientation() {
        let s = schema_s1();
        let score = s.resolve("score").unwrap();
        let cutoff = s.resolve("cutoff").unwrap();
        let teach = s.resolve("teach").unwrap();
        let d = Derivation::new(vec![Step::identity(score), Step::inverse(cutoff)]).unwrap();
        assert!(d.mentions(score));
        assert!(d.mentions(cutoff));
        assert!(!d.mentions(teach));
    }
}
