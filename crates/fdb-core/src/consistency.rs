//! Whole-database consistency checking.
//!
//! The motivation of the paper is that redundant specification threatens
//! consistency; this module provides the runtime checks the engine (and
//! the test suite) uses to assert that the bookkeeping invariants hold
//! after every operation.

use fdb_storage::Truth;
use fdb_types::FunctionId;

use crate::database::{admit, Database};

/// One detected violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A registered derived function the catalog's rules would not admit
    /// now (say, its table holds rows: derived facts are never stored,
    /// §3.2), with the refusal `DERIVE` would answer.
    Registration {
        /// The derived function.
        function: FunctionId,
        /// The rendered refusal.
        refusal: String,
    },
    /// The NC ↔ NCL dual structure is out of sync.
    DualityBroken(String),
    /// A stored row is flagged true but participates in an NC.
    TrueFactInNc(FunctionId),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Registration { function, refusal } => {
                write!(f, "registration of {function} refused: {refusal}")
            }
            Violation::DualityBroken(msg) => write!(f, "NC/NCL duality broken: {msg}"),
            Violation::TrueFactInNc(id) => {
                write!(f, "a true fact of {id} participates in an NC")
            }
        }
    }
}

impl Database {
    /// Runs every consistency check, returning all violations found.
    pub fn check_consistency(&self) -> Vec<Violation> {
        let mut out = Vec::new();

        let (schema, registry) = (self.schema(), self.derived_registry());
        for (&f, derivations) in registry {
            if let Err(e) = admit(schema, registry, self.store(), f, derivations) {
                out.push(Violation::Registration {
                    function: f,
                    refusal: e.to_string(),
                });
            }
        }

        if let Some(msg) = self.store().check_duality() {
            out.push(Violation::DualityBroken(msg));
        }

        for f in self.base_functions() {
            let any_true_in_nc = self
                .store()
                .table(f)
                .rows()
                .any(|r| r.truth == Truth::True && !r.ncl.is_empty());
            if any_true_in_nc {
                out.push(Violation::TrueFactInNc(f));
            }
        }

        out
    }

    /// Convenience: `true` when no violation is found.
    pub fn is_consistent(&self) -> bool {
        self.check_consistency().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::{Derivation, Schema, Step, Value};

    fn university() -> Database {
        let schema = Schema::builder()
            .function("teach", "faculty", "course", "many-many")
            .function("class_list", "course", "student", "many-many")
            .function("pupil", "faculty", "student", "many-many")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let (t, c, p) = (
            db.resolve("teach").unwrap(),
            db.resolve("class_list").unwrap(),
            db.resolve("pupil").unwrap(),
        );
        db.register_derived(
            p,
            vec![Derivation::new(vec![Step::identity(t), Step::identity(c)]).unwrap()],
        )
        .unwrap();
        db
    }

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    #[test]
    fn fresh_database_is_consistent() {
        assert!(university().is_consistent());
    }

    #[test]
    fn consistency_holds_through_update_sequence() {
        let mut db = university();
        let (t, c, p) = (
            db.resolve("teach").unwrap(),
            db.resolve("class_list").unwrap(),
            db.resolve("pupil").unwrap(),
        );
        db.insert(t, v("euclid"), v("math")).unwrap();
        db.insert(c, v("math"), v("john")).unwrap();
        assert!(db.is_consistent());
        db.delete(p, &v("euclid"), &v("john")).unwrap();
        assert!(db.is_consistent());
        db.insert(p, v("gauss"), v("bill")).unwrap();
        assert!(db.is_consistent());
        db.delete(t, &v("euclid"), &v("math")).unwrap();
        assert!(db.is_consistent());
    }

    #[test]
    fn violations_render() {
        let viol = Violation::Registration {
            function: fdb_types::FunctionId(3),
            refusal: "malformed derivation: cannot mark pupil derived: its table is non-empty"
                .into(),
        };
        assert_eq!(
            viol.to_string(),
            "registration of F3 refused: malformed derivation: \
             cannot mark pupil derived: its table is non-empty"
        );
    }

    #[test]
    fn a_stored_row_in_a_derived_table_is_a_refused_registration() {
        let mut db = university();
        let p = db.resolve("pupil").unwrap();
        db.store_mut().base_insert(p, v("euclid"), v("john"));
        assert_eq!(
            db.check_consistency(),
            vec![Violation::Registration {
                function: p,
                refusal: "malformed derivation: cannot mark pupil derived: its table is non-empty"
                    .into(),
            }]
        );
    }
}
