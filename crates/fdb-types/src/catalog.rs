//! The catalog's rules (§2): when a derivation may be registered or
//! evaluated. The engine, the snapshot reader, WAL replay and the static
//! analyzer all ask them and render a [`Refusal`] in their own terms; the
//! first rule that fails answers, in the order [`check_registration`]
//! lists (DESIGN.md §11).

use std::collections::BTreeMap;

use crate::derivation::{Derivation, Step};
use crate::function::FunctionId;
use crate::functionality::Functionality;
use crate::schema::Schema;
use crate::types::TypeId;

/// The rule a derivation or registration breaks. `derivation` is the
/// position of the offending derivation in the list checked, `step` the
/// position of the offending step in it (0 for the first).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The step list is empty.
    NoSteps,
    /// The step names no declared function.
    UnknownStep {
        /// The offending derivation.
        derivation: usize,
        /// The offending step.
        step: usize,
    },
    /// The step's effective domain is not the previous step's effective
    /// range.
    BrokenChain {
        /// The offending derivation.
        derivation: usize,
        /// The step that does not chain (never 0).
        step: usize,
        /// The step's effective domain.
        expected: TypeId,
        /// The previous step's effective range.
        found: TypeId,
    },
    /// The derivation does not map the derived function's domain to its
    /// range.
    WrongEndpoints {
        /// The offending derivation.
        derivation: usize,
        /// The domain and range the derivation maps.
        found: (TypeId, TypeId),
        /// The derived function's declared domain and range.
        declared: (TypeId, TypeId),
    },
    /// The composed functionality is not the declared one.
    WrongFunctionality {
        /// The offending derivation.
        derivation: usize,
        /// The functionality the steps compose to.
        composed: Functionality,
        /// The derived function's declared functionality.
        declared: Functionality,
    },
    /// The step is the derived function itself.
    SelfMention {
        /// The offending derivation.
        derivation: usize,
        /// The offending step.
        step: usize,
    },
    /// The step is a derived function.
    DerivedStep {
        /// The offending derivation.
        derivation: usize,
        /// The offending step.
        step: usize,
    },
    /// A registered derivation of `user` steps through the function.
    UsedBy {
        /// The function whose derivation uses it.
        user: FunctionId,
    },
    /// The function holds stored facts a derivation would shadow.
    HoldsFacts,
}

impl Schema {
    /// The derivation `steps` names, each step a function name and
    /// whether it is inverted: refused if a name is not declared (the
    /// first such step) or there are no steps.
    pub fn derivation(&self, steps: &[(&str, bool)]) -> Result<Derivation, Refusal> {
        let resolved = steps
            .iter()
            .enumerate()
            .map(|(step, &(name, inverse))| {
                let def = self.function_by_name(name).ok_or(Refusal::UnknownStep {
                    derivation: 0,
                    step,
                })?;
                Ok(if inverse {
                    Step::inverse(def.id)
                } else {
                    Step::identity(def.id)
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Derivation::new(resolved).map_err(|_| Refusal::NoSteps)
    }
}

/// Checks the registration of `derivations` for `f` (a function of
/// `schema`) against the catalog's rules: `derived` is the registry it
/// joins, `holds_data` whether `f` holds stored facts. For each
/// derivation in turn: (1) every step names a declared function; (2)
/// each step's effective domain is the previous step's effective range;
/// (3) it maps `f`'s domain to its range; (4) it composes to `f`'s
/// declared functionality; (5) step by step, no step is `f` or a derived
/// function. Then (6) no other function's derivation steps through `f`,
/// and (7) `f` holds no facts.
pub fn check_registration(
    schema: &Schema,
    derived: &BTreeMap<FunctionId, Vec<Derivation>>,
    f: FunctionId,
    derivations: &[Derivation],
    holds_data: bool,
) -> Result<(), Refusal> {
    let def = schema.function(f);
    for (derivation, d) in derivations.iter().enumerate() {
        let found = chain(schema, d, derivation)?;
        if found != def.syntax() {
            return Err(Refusal::WrongEndpoints {
                derivation,
                found,
                declared: def.syntax(),
            });
        }
        let composed = d.functionality(schema);
        if composed != def.functionality {
            return Err(Refusal::WrongFunctionality {
                derivation,
                composed,
                declared: def.functionality,
            });
        }
        for (step, s) in d.steps().iter().enumerate() {
            if s.function == f {
                return Err(Refusal::SelfMention { derivation, step });
            }
            if derived.contains_key(&s.function) {
                return Err(Refusal::DerivedStep { derivation, step });
            }
        }
    }
    if let Some((&user, _)) = derived
        .iter()
        .find(|(&g, ders)| g != f && ders.iter().any(|d| d.mentions(f)))
    {
        return Err(Refusal::UsedBy { user });
    }
    if holds_data {
        return Err(Refusal::HoldsFacts);
    }
    Ok(())
}

/// Checks an ad-hoc expression against rules 1, 2 and the second half
/// of 5 of [`check_registration`]: its steps are declared, chain, and are
/// base functions of `derived`.
pub fn check_expression(
    schema: &Schema,
    derived: &BTreeMap<FunctionId, Vec<Derivation>>,
    d: &Derivation,
) -> Result<(), Refusal> {
    chain(schema, d, 0)?;
    let step = d
        .steps()
        .iter()
        .position(|s| derived.contains_key(&s.function));
    step.map_or(Ok(()), |step| {
        Err(Refusal::DerivedStep {
            derivation: 0,
            step,
        })
    })
}

/// Rules 1 and 2 for `d`, the `derivation`-th derivation checked: its
/// effective domain and range.
pub(crate) fn chain(
    schema: &Schema,
    d: &Derivation,
    derivation: usize,
) -> Result<(TypeId, TypeId), Refusal> {
    let steps = d.steps();
    if let Some(step) = steps
        .iter()
        .position(|s| s.function.index() >= schema.len())
    {
        return Err(Refusal::UnknownStep { derivation, step });
    }
    let (start, mut found) = steps[0].endpoints(schema);
    for (step, s) in steps.iter().enumerate().skip(1) {
        let (expected, range) = s.endpoints(schema);
        if expected != found {
            return Err(Refusal::BrokenChain {
                derivation,
                step,
                expected,
                found,
            });
        }
        found = range;
    }
    Ok((start, found))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `teach`, `class_list`, `pupil = teach o class_list` and a spare
    /// `lectures`, all many-many.
    fn university() -> (Schema, BTreeMap<FunctionId, Vec<Derivation>>) {
        let schema = Schema::builder()
            .function("teach", "faculty", "course", "many-many")
            .function("class_list", "course", "student", "many-many")
            .function("pupil", "faculty", "student", "many-many")
            .function("lectures", "faculty", "course", "many-many")
            .build()
            .unwrap();
        let pupil = schema.resolve("pupil").unwrap();
        let chain = schema
            .derivation(&[("teach", false), ("class_list", false)])
            .unwrap();
        (schema, BTreeMap::from([(pupil, vec![chain])]))
    }

    fn refusal(steps: &[(&str, bool)], target: &str, holds_data: bool) -> Option<Refusal> {
        let (schema, derived) = university();
        let f = schema.resolve(target).unwrap();
        let d = schema.derivation(steps).ok()?;
        check_registration(&schema, &derived, f, &[d], holds_data).err()
    }

    #[test]
    fn the_builder_refuses_the_first_unknown_name_and_no_steps() {
        let (schema, _) = university();
        assert_eq!(
            schema.derivation(&[("teach", false), ("ghost", false), ("nope", true)]),
            Err(Refusal::UnknownStep {
                derivation: 0,
                step: 1
            })
        );
        assert_eq!(schema.derivation(&[]), Err(Refusal::NoSteps));
        let d = schema.derivation(&[("class_list", true)]).unwrap();
        assert_eq!(d.render(&schema), "class_list^-1");
    }

    #[test]
    fn each_rule_refuses_in_order() {
        let (schema, _) = university();
        let [faculty, course, student] =
            ["faculty", "course", "student"].map(|t| schema.types().lookup(t).unwrap());
        assert_eq!(
            refusal(&[("teach", false), ("teach", false)], "lectures", false),
            Some(Refusal::BrokenChain {
                derivation: 0,
                step: 1,
                expected: faculty,
                found: course
            })
        );
        assert_eq!(
            refusal(&[("teach", false)], "class_list", false),
            Some(Refusal::WrongEndpoints {
                derivation: 0,
                found: (faculty, course),
                declared: (course, student)
            })
        );
        // Chain and endpoints come before the self-mention.
        assert!(matches!(
            refusal(
                &[("teach", false), ("teach", false), ("pupil", false)],
                "pupil",
                false
            ),
            Some(Refusal::BrokenChain { step: 1, .. })
        ));
        assert_eq!(
            refusal(&[("lectures", false)], "lectures", false),
            Some(Refusal::SelfMention {
                derivation: 0,
                step: 0
            })
        );
        assert_eq!(
            refusal(&[("pupil", false), ("class_list", true)], "lectures", false),
            Some(Refusal::DerivedStep {
                derivation: 0,
                step: 0
            })
        );
        let pupil = schema.resolve("pupil").unwrap();
        assert_eq!(
            refusal(&[("lectures", false)], "teach", true),
            Some(Refusal::UsedBy { user: pupil })
        );
        assert_eq!(
            refusal(&[("teach", false)], "lectures", true),
            Some(Refusal::HoldsFacts)
        );
        assert_eq!(refusal(&[("teach", false)], "lectures", false), None);
    }

    #[test]
    fn a_wrong_functionality_names_both() {
        let mut schema = Schema::new();
        let f = schema
            .declare("f", "a", "b", Functionality::OneOne)
            .unwrap();
        schema
            .declare("g", "a", "b", Functionality::ManyOne)
            .unwrap();
        let d = schema.derivation(&[("g", false)]).unwrap();
        assert_eq!(
            check_registration(&schema, &BTreeMap::new(), f, &[d], false),
            Err(Refusal::WrongFunctionality {
                derivation: 0,
                composed: Functionality::ManyOne,
                declared: Functionality::OneOne
            })
        );
    }

    #[test]
    fn ids_outside_the_schema_are_unknown_steps() {
        let (schema, derived) = university();
        let lectures = schema.resolve("lectures").unwrap();
        let teach = schema.resolve("teach").unwrap();
        let ok = Derivation::single(Step::identity(teach));
        let bad =
            Derivation::new(vec![Step::identity(teach), Step::identity(FunctionId(99))]).unwrap();
        assert_eq!(
            check_registration(&schema, &derived, lectures, &[ok, bad.clone()], false),
            Err(Refusal::UnknownStep {
                derivation: 1,
                step: 1
            })
        );
        assert_eq!(
            check_expression(&schema, &derived, &bad),
            Err(Refusal::UnknownStep {
                derivation: 0,
                step: 1
            })
        );
    }

    #[test]
    fn an_expression_chains_through_base_functions() {
        let (schema, derived) = university();
        let expr = |steps: &[(&str, bool)]| {
            check_expression(&schema, &derived, &schema.derivation(steps).unwrap())
        };
        assert_eq!(expr(&[("teach", false), ("class_list", false)]), Ok(()));
        assert!(matches!(
            expr(&[("teach", false), ("teach", false)]),
            Err(Refusal::BrokenChain { step: 1, .. })
        ));
        assert_eq!(
            expr(&[("pupil", false)]),
            Err(Refusal::DerivedStep {
                derivation: 0,
                step: 0
            })
        );
    }
}
