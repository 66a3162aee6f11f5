//! Atomic multi-update requests.
//!
//! §3: "For sake of simplicity we consider updates a tuple at a time. A
//! general update request can be viewed as a sequence of such simple
//! updates." This module makes that sequence atomic: either every simple
//! update applies, or the database is left untouched — including the NC /
//! NVC bookkeeping and the null-generator watermark, so a failed batch
//! leaks no partial information.

use fdb_types::Result;

use crate::database::Database;
use crate::update::Update;

impl Database {
    /// Applies a whole update request atomically: on the first error the
    /// database is rolled back to its state before the call and the error
    /// returned. Returns the number of updates applied on success.
    ///
    /// Updates are recorded in the store's undo journal (no copy of the
    /// instance is taken), so the rollback restores the pre-batch state
    /// byte-identically. Inside an open `BEGIN` the batch rolls back only
    /// its own updates, to the journal mark it started at, and leaves the
    /// transaction open.
    pub fn apply_all<I: IntoIterator<Item = Update>>(&mut self, updates: I) -> Result<usize> {
        let outer = !self.txn_active();
        if outer {
            self.txn_begin()?;
        }
        let mark = self.store().undo_mark();
        let mut n = 0;
        for u in updates {
            if let Err(e) = self.apply(u) {
                if outer {
                    self.txn_rollback()?;
                } else {
                    self.store_mut().undo_rollback_to(mark);
                }
                return Err(e);
            }
            n += 1;
        }
        if outer {
            self.txn_commit()?;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_storage::Truth;
    use fdb_types::{Derivation, Schema, Step, Value};

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

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

    #[test]
    fn successful_batch_commits() {
        let mut db = university();
        let t = db.resolve("teach").unwrap();
        let c = db.resolve("class_list").unwrap();
        let n = db
            .apply_all(vec![
                Update::Insert {
                    function: t,
                    x: v("euclid"),
                    y: v("math"),
                },
                Update::Insert {
                    function: c,
                    x: v("math"),
                    y: v("john"),
                },
            ])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.stats().base_facts, 2);
    }

    #[test]
    fn failing_batch_rolls_back_everything() {
        let mut db = university();
        let t = db.resolve("teach").unwrap();
        let p = db.resolve("pupil").unwrap();
        db.insert(t, v("euclid"), v("math")).unwrap();
        let before = db.to_snapshot().unwrap();

        let err = db.apply_all(vec![
            Update::Insert {
                function: t,
                x: v("gauss"),
                y: v("algebra"),
            },
            Update::Insert {
                function: p,
                x: v("gauss"),
                y: v("bill"),
            },
            // Fails: null in a user update.
            Update::Insert {
                function: t,
                x: Value::Null(fdb_types::NullId(9)),
                y: v("x"),
            },
        ]);
        assert!(err.is_err());
        // Everything rolled back, including the NVC facts and the null
        // watermark.
        assert_eq!(db.to_snapshot().unwrap(), before);
        assert_eq!(db.store().nulls().generated(), 0);
        assert_eq!(db.stats().base_facts, 1);
    }

    #[test]
    fn explicit_transaction_commit_and_abort() {
        let mut db = university();
        let t = db.resolve("teach").unwrap();
        db.txn_begin().unwrap();
        db.insert(t, v("a"), v("b")).unwrap();
        assert_eq!(db.stats().base_facts, 1);
        db.txn_rollback().unwrap();
        assert_eq!(db.stats().base_facts, 0);
        db.txn_begin().unwrap();
        db.insert(t, v("a"), v("b")).unwrap();
        db.txn_commit().unwrap();
        assert_eq!(db.stats().base_facts, 1);
    }

    #[test]
    fn failing_batch_inside_begin_undoes_only_itself() {
        let mut db = university();
        let t = db.resolve("teach").unwrap();
        let p = db.resolve("pupil").unwrap();
        db.txn_begin().unwrap();
        db.insert(t, v("euclid"), v("math")).unwrap();
        let before = db.to_snapshot().unwrap();

        let err = db.apply_all(vec![
            Update::Insert {
                function: t,
                x: v("gauss"),
                y: v("algebra"),
            },
            Update::Insert {
                function: p,
                x: v("gauss"),
                y: v("bill"),
            },
            Update::Insert {
                function: t,
                x: Value::Null(fdb_types::NullId(9)),
                y: v("x"),
            },
        ]);
        assert!(err.is_err());
        // The batch's own updates are gone, the transaction's earlier
        // insert stays, and the transaction is still open.
        assert_eq!(db.to_snapshot().unwrap(), before);
        assert!(db.txn_active());
        assert_eq!(db.stats().base_facts, 1);
        // Aborting the transaction undoes the earlier insert too.
        db.txn_rollback().unwrap();
        assert_eq!(db.stats().base_facts, 0);
    }

    #[test]
    fn rollback_restores_partial_information_state() {
        // A batch that deletes a derived fact then fails must restore the
        // pre-batch truth values exactly.
        let mut db = university();
        let (t, c, p) = (
            db.resolve("teach").unwrap(),
            db.resolve("class_list").unwrap(),
            db.resolve("pupil").unwrap(),
        );
        db.insert(t, v("euclid"), v("math")).unwrap();
        db.insert(c, v("math"), v("john")).unwrap();
        let err = db.apply_all(vec![
            Update::Delete {
                function: p,
                x: v("euclid"),
                y: v("john"),
            },
            Update::Insert {
                function: p,
                x: Value::Null(fdb_types::NullId(1)),
                y: v("oops"),
            },
        ]);
        assert!(err.is_err());
        assert_eq!(db.truth(p, &v("euclid"), &v("john")).unwrap(), Truth::True);
        assert_eq!(db.store().ncs().len(), 0);
        assert_eq!(db.stats().ambiguous_facts, 0);
    }
}
