//! MVCC store snapshots: cheap, immutable, version-stamped views.
//!
//! A [`Snapshot`] freezes the extensional state of a [`Store`] at one
//! mutation-counter instant. Capturing one is O(#functions): every
//! per-function table and the NC store sit behind `Arc`s inside the
//! store, so the "copy" is a round of reference-count bumps. The first
//! write the live store makes to a function *after* a snapshot was taken
//! detaches that function's table spine and, inside it, only the pieces
//! the write changes (`Arc::make_mut`; see [`crate::table`]): the row
//! chunk of an insert, the alive-bitmap block of a delete, and the small
//! delta maps that take index writes while a snapshot shares the index
//! bases. Publication is therefore copy-on-write at chunk granularity: a
//! commit that wrote one row of a 60k-row table copies at most one chunk
//! of [`crate::table::CHUNK_ROWS`] rows, one bitmap block and three
//! deltas of at most [`crate::table::DELTA_KEYS`] keys — plus, one such
//! write in `DELTA_KEYS`, the index bases the deltas fold into — and
//! shares every other piece and every other table with all outstanding
//! snapshots; the release of the last pin on a retired snapshot frees
//! just as much.
//!
//! Readers holding a snapshot see a state that can never change —
//! there is no locking, no torn read, and no coordination with writers.
//! The stamp ([`Snapshot::version`]) is the store's monotone mutation
//! counter at capture time; because the counter is bumped by every
//! state-changing operation (including rollbacks), two snapshots with
//! the same stamp are byte-identical and result caches may treat the
//! stamp as a complete cache key ("support-set logic collapses into
//! snapshot identity" — see `fdb-exec`'s `ResultCache`).
//!
//! Snapshots are views of **committed** state only: the shared handles
//! in `fdb-core` publish a new snapshot at each commit boundary and
//! never while an undo journal (open transaction) is recording.

use std::ops::Deref;

use crate::store::Store;

/// An immutable, version-stamped view of a [`Store`].
///
/// Derefs to [`Store`], so every read-side accessor (`table`, `ncs`,
/// `base_truth`, chain search, …) works on a snapshot unchanged.
#[derive(Clone, Debug)]
pub struct Snapshot {
    store: Store,
    version: u64,
}

impl Snapshot {
    pub(crate) fn new(store: Store) -> Snapshot {
        Snapshot {
            version: store.version(),
            store,
        }
    }

    /// The store's monotone mutation counter at capture time. Equal
    /// stamps imply byte-identical logical state (the counter never
    /// rewinds, even across transaction rollbacks).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The frozen store.
    pub fn store(&self) -> &Store {
        &self.store
    }
}

impl Deref for Snapshot {
    type Target = Store;

    fn deref(&self) -> &Store {
        &self.store
    }
}

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

    #[test]
    fn snapshot_is_immune_to_later_writes() {
        let mut s = Store::new(2);
        s.base_insert(f(0), v("euclid"), v("math"));
        let snap = s.snapshot();
        assert_eq!(snap.version(), s.version());

        s.base_insert(f(0), v("gauss"), v("algebra"));
        s.base_delete(f(0), &v("euclid"), &v("math"));
        s.base_insert(f(1), v("math"), v("john"));

        // The snapshot still answers from the frozen state…
        assert_eq!(
            snap.base_truth(&Fact::new(f(0), "euclid", "math")),
            Truth::True
        );
        assert_eq!(
            snap.base_truth(&Fact::new(f(0), "gauss", "algebra")),
            Truth::False
        );
        assert_eq!(snap.table(f(1)).len(), 0);
        // …and its stamp is frozen while the live store moved on.
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
        let snap = s.snapshot();

        // Before any write, every table is physically shared.
        for i in 0..3 {
            assert_eq!(s.unshared_with(snap.store(), f(i)), Unshared::default());
        }
        // A write to f0 adds one chunk, sets a bit in one bitmap block and
        // detaches the deltas of f0's indexes — not their bases — and
        // nothing of the other tables.
        s.base_insert(f(0), v("a2"), v("fresh"));
        assert_eq!(
            s.unshared_with(snap.store(), f(0)),
            Unshared {
                chunks: 1,
                alive_blocks: 1,
                index_bases: 0,
                index_deltas: 3,
                null_lists: 0,
            }
        );
        assert_eq!(s.unshared_with(snap.store(), f(1)), Unshared::default());
        assert_eq!(s.unshared_with(snap.store(), f(2)), Unshared::default());
    }

    #[test]
    fn equal_stamps_mean_identical_state() {
        let mut s = Store::new(1);
        s.base_insert(f(0), v("a"), v("b"));
        let s1 = s.snapshot();
        let s2 = s.snapshot();
        assert_eq!(s1.version(), s2.version());
        let j1 = serde_json::to_string(s1.store()).unwrap();
        let j2 = serde_json::to_string(s2.store()).unwrap();
        assert_eq!(j1, j2);
    }
}
