//! Instance statistics — the quantities the §5 discussion cares about
//! ("in the presence of excessive ambiguous information it is desirable
//! to quantify the degree of ambiguity").

use fdb_storage::Truth;

use crate::database::Database;

/// A snapshot of an instance's size and ambiguity.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DatabaseStats {
    /// Live stored (base) facts.
    pub base_facts: usize,
    /// Stored facts flagged ambiguous.
    pub ambiguous_facts: usize,
    /// Live negated conjunctions.
    pub ncs: usize,
    /// Null values generated so far.
    pub nulls_generated: u64,
    /// Stored facts with a null on either side (NVC links).
    pub null_facts: usize,
    /// Number of derived functions in the schema.
    pub derived_functions: usize,
    /// Number of base functions in the schema.
    pub base_functions: usize,
}

impl DatabaseStats {
    /// Fraction of stored facts that are ambiguous (0 when empty).
    pub fn ambiguity_ratio(&self) -> f64 {
        if self.base_facts == 0 {
            0.0
        } else {
            self.ambiguous_facts as f64 / self.base_facts as f64
        }
    }
}

impl Database {
    /// Computes the current statistics.
    pub fn stats(&self) -> DatabaseStats {
        let mut base_facts = 0;
        let mut ambiguous_facts = 0;
        let mut null_facts = 0;
        for f in self.base_functions() {
            for row in self.store().table(f).rows() {
                base_facts += 1;
                if row.truth == Truth::Ambiguous {
                    ambiguous_facts += 1;
                }
                if row.x.is_null() || row.y.is_null() {
                    null_facts += 1;
                }
            }
        }
        DatabaseStats {
            base_facts,
            ambiguous_facts,
            ncs: self.store().ncs().len(),
            nulls_generated: self.store().nulls().generated(),
            null_facts,
            derived_functions: self.derived_functions().len(),
            base_functions: self.base_functions().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::{Derivation, Schema, Step, Value};

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    #[test]
    fn stats_track_updates() {
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

        let s0 = db.stats();
        assert_eq!(s0.base_facts, 0);
        assert_eq!(s0.derived_functions, 1);
        assert_eq!(s0.base_functions, 2);
        assert_eq!(s0.ambiguity_ratio(), 0.0);

        db.insert(t, v("euclid"), v("math")).unwrap();
        db.insert(c, v("math"), v("john")).unwrap();
        db.delete(p, &v("euclid"), &v("john")).unwrap();
        let s1 = db.stats();
        assert_eq!(s1.base_facts, 2);
        assert_eq!(s1.ambiguous_facts, 2);
        assert_eq!(s1.ncs, 1);
        assert!((s1.ambiguity_ratio() - 1.0).abs() < f64::EPSILON);

        db.insert(p, v("gauss"), v("bill")).unwrap();
        let s2 = db.stats();
        assert_eq!(s2.nulls_generated, 1);
        assert_eq!(s2.null_facts, 2);
        assert_eq!(s2.base_facts, 4);
    }
}
