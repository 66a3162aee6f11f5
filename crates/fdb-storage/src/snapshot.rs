//! MVCC snapshots: a clone of the [`Store`](crate::Store) is one.
//!
//! Cloning a store is O(#functions) reference-count bumps: its tables and
//! NC store sit behind `Arc`s. The first write the live store makes to a
//! function after a clone was taken detaches that table's spine and only
//! the pieces the write changes (see [`crate::table`]): the row chunk of
//! an insert, the alive-bitmap block of a delete, the small index deltas
//! — and, one such write in [`crate::table::DELTA_KEYS`], the index bases
//! they fold into. Every other piece and table stays shared with every
//! outstanding clone, and the release of the last pin on a retired one
//! frees just as much.
//!
//! A clone never changes: no locking, no torn read, no coordination with
//! writers. Its [`Store::version`](crate::Store::version) is the store's
//! monotone mutation counter, bumped by every state-changing operation
//! (rollbacks included), so two clones with the same version are
//! byte-identical and result caches may use the version as a complete
//! cache key (see `fdb-exec`'s `ResultCache`). The shared handles in
//! `fdb-core` publish one, inside a `Database`, at each commit boundary.

#[cfg(test)]
mod tests {
    use fdb_types::{FunctionId, Value};

    use crate::fact::Fact;
    use crate::store::Store;
    use crate::table::{Unshared, CHUNK_ROWS};
    use crate::truth::Truth;

    fn f(i: u32) -> FunctionId {
        FunctionId(i)
    }

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    fn encoded(s: &Store) -> Vec<u8> {
        let mut out = Vec::new();
        s.encode(&mut out);
        out
    }

    #[test]
    fn snapshot_is_immune_to_later_writes() {
        let mut s = Store::new(2);
        s.base_insert(f(0), v("euclid"), v("math"));
        let snap = s.clone();
        assert_eq!(snap.version(), s.version());

        s.base_insert(f(0), v("gauss"), v("algebra"));
        s.base_delete(f(0), &v("euclid"), &v("math"));
        s.base_insert(f(1), v("math"), v("john"));

        // The clone still answers from the frozen state…
        assert_eq!(
            snap.base_truth(&Fact::new(f(0), "euclid", "math")),
            Truth::True
        );
        assert_eq!(
            snap.base_truth(&Fact::new(f(0), "gauss", "algebra")),
            Truth::False
        );
        assert_eq!(snap.table(f(1)).len(), 0);
        // …and its version is frozen while the live store moved on.
        assert!(s.version() > snap.version());
    }

    #[test]
    fn publication_is_copy_on_write_per_function() {
        let mut s = Store::new(3);
        for i in 0..3 * CHUNK_ROWS {
            s.base_insert(f(0), v(&format!("a{}", i % 50)), v(&format!("b{i}")));
        }
        s.base_insert(f(1), v("c"), v("d"));
        s.base_insert(f(2), v("e"), v("g"));
        let snap = s.clone();

        // Before any write, every table is physically shared.
        for i in 0..3 {
            assert_eq!(s.unshared_with(&snap, f(i)), Unshared::default());
        }
        // A write to f0 adds one chunk, sets a bit in one bitmap block and
        // detaches the deltas of f0's indexes — not their bases — and
        // nothing of the other tables.
        s.base_insert(f(0), v("a2"), v("fresh"));
        assert_eq!(
            s.unshared_with(&snap, f(0)),
            Unshared {
                chunks: 1,
                alive_blocks: 1,
                index_bases: 0,
                index_deltas: 3,
                null_lists: 0,
            }
        );
        assert_eq!(s.unshared_with(&snap, f(1)), Unshared::default());
        assert_eq!(s.unshared_with(&snap, f(2)), Unshared::default());
    }

    #[test]
    fn equal_stamps_mean_identical_state() {
        let mut s = Store::new(1);
        s.base_insert(f(0), v("a"), v("b"));
        let s1 = s.clone();
        let s2 = s.clone();
        assert_eq!(s1.version(), s2.version());
        assert_eq!(encoded(&s1), encoded(&s2));
        s.base_delete(f(0), &v("a"), &v("b"));
        assert!(s.version() > s1.version());
        assert_ne!(encoded(&s), encoded(&s1));
    }
}
