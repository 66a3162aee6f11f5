//! Per-function extensional tables of quadruples `<a, b, T/A, NCL>` (§4).
//!
//! Rows keep their insertion order (the paper's worked-example tables are
//! printed in insertion order) and are tombstoned on delete so row indices
//! remain stable within one table. Lookup indexes by domain value, range
//! value, and null-valuedness support the chain traversal of [`crate::chain`].
//!
//! A table is a two-level persistent structure, so that snapshots share
//! it piece by piece (see [`crate::snapshot`]):
//!
//! * the **row log** is a vector of `Arc`'d chunks of [`CHUNK_ROWS`] rows,
//!   held inline — row `i` lives in chunk `i / CHUNK_ROWS`, slot
//!   `i % CHUNK_ROWS` — beside a bitmap of which rows are alive, in
//!   `Arc`'d blocks of [`ALIVE_BLOCK_ROWS`] bits, so that a delete copies
//!   a block of bits rather than a chunk of values;
//! * each **endpoint index** (`(x, y)` → row, `x` → rows, `y` → rows) is a
//!   *base* map and a *delta* map, each behind its own `Arc`. While no
//!   snapshot shares the base, writes go straight to it and the delta
//!   stays empty. While one does, writes go to the delta, which is folded
//!   into the base — copying the base once — when it reaches
//!   [`DELTA_KEYS`] keys. A delete made while the base is shared leaves
//!   its base entry behind; lookups drop it by the row's tombstone.
//!
//! Every mutator detaches (`Arc::make_mut`) only the pieces it changes,
//! and only when it really changes them. The first write after a snapshot
//! therefore copies a chunk, a bitmap block and the deltas — O(
//! [`CHUNK_ROWS`] + [`DELTA_KEYS`]) — plus, one write in [`DELTA_KEYS`],
//! the base; the release of a retired snapshot frees as much. A lookup
//! reads the base, and the delta only when it is not empty.
//!
//! A table is built empty or, by both snapshot readers, from its row log
//! ([`Table::from_rows`]), which builds the indexes; only compaction
//! rebuilds them after that.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use fdb_types::codec::{put_uint, Reader};
use fdb_types::{FdbError, Result, Value};

use crate::nc::NcId;
use crate::truth::Truth;

/// Rows per chunk of the row log.
///
/// Measured on `snapshot_churn` (60k- and 4k-row tables, one write per
/// publication) and `derived_read_mix` (rounds of writes into a fresh
/// copy-on-write clone): a detach copies the table's vector of chunk
/// pointers and one chunk, and 128 keeps their sum near its least.
pub const CHUNK_ROWS: usize = 128;

/// Keys an index delta takes before it is folded into its base.
///
/// Measured on `snapshot_churn` with [`CHUNK_ROWS`]: a write after a
/// publication copies the deltas (growing with this bound) and, once per
/// this many writes, the base (shrinking with it).
pub const DELTA_KEYS: usize = 256;

/// Rows per block of the alive bitmap.
const ALIVE_BLOCK_ROWS: usize = 4096;

/// A stored row (internal representation); whether it is alive is the
/// table's alive bitmap's to say.
#[derive(Clone, Debug)]
struct Row {
    x: Value,
    y: Value,
    truth: Truth, // True or Ambiguous; never False while alive
    ncl: BTreeSet<NcId>,
}

/// A read-only view of one live row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowView<'t> {
    /// Domain value.
    pub x: &'t Value,
    /// Range value.
    pub y: &'t Value,
    /// Truth flag (`T` or `A`).
    pub truth: Truth,
    /// The row's negated-conjunction list.
    pub ncl: &'t BTreeSet<NcId>,
}

/// One chunk of the row log, its rows inline in the `Arc`'s allocation
/// so that reaching a row costs no more pointer hops than a flat vector.
/// Slots past the end of the log are `None`.
#[derive(Clone, Debug)]
struct Chunk([Option<Row>; CHUNK_ROWS]);

/// One block of the alive bitmap: bit `i % 64` of word `i / 64` is row
/// `i`'s, counted from the block's first row.
#[derive(Clone, Debug)]
struct AliveBlock([u64; ALIVE_BLOCK_ROWS / 64]);

/// The extensional table of one base function.
#[derive(Clone, Debug, Default)]
pub struct Table {
    chunks: Vec<Arc<Chunk>>,
    alive: Vec<Arc<AliveBlock>>,
    /// Rows in the log, tombstones included.
    logged: usize,
    index: Layered<(Value, Value), usize>,
    by_x: Layered<Value, Vec<usize>>,
    by_y: Layered<Value, Vec<usize>>,
    /// Distinct keys of `by_x` and `by_y` over base and delta.
    distinct_x: usize,
    distinct_y: usize,
    null_x: Arc<Vec<usize>>,
    null_y: Arc<Vec<usize>>,
    live: usize,
    dead: usize,
}

/// Cheap per-table statistics for the chain planner (`fdb-exec`).
///
/// `rows` is exact; the distinct and null counts are *estimates*: they
/// count index entries, which may include keys whose rows are all
/// tombstoned. Auto-compaction (see [`crate::store`]) bounds the
/// tombstone fraction, and with it the estimation error.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Number of live rows (exact).
    pub rows: usize,
    /// Distinct domain values (index-entry estimate).
    pub distinct_x: usize,
    /// Distinct range values (index-entry estimate).
    pub distinct_y: usize,
    /// Rows with a null domain value (index-entry estimate).
    pub null_x: usize,
    /// Rows with a null range value (index-entry estimate).
    pub null_y: usize,
}

/// The pieces of one table that another does not physically share —
/// what copy-on-write detaches have copied since the two diverged (see
/// [`Table::unshared_with`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Unshared {
    /// Row chunks.
    pub chunks: usize,
    /// Blocks of the alive bitmap.
    pub alive_blocks: usize,
    /// Base maps of the three endpoint indexes.
    pub index_bases: usize,
    /// Delta maps of the three endpoint indexes.
    pub index_deltas: usize,
    /// Null-endpoint lists (at most two).
    pub null_lists: usize,
}

/// [`Arc::make_mut`] that counts `fdb.storage.cow_copies` when the piece
/// is shared and so is cloned; the unshared path counts nothing.
pub(crate) fn detach<T: Clone>(piece: &mut Arc<T>) -> &mut T {
    if shared(piece) {
        fdb_obs::registry().storage_cow_copies.inc();
    }
    Arc::make_mut(piece)
}

/// `true` if another `Arc` points at `piece`. A plain load, no atomic
/// read-modify-write: the store never makes `Weak`s, and holding
/// `&mut` to the one `Arc` means no other thread can clone it meanwhile
/// (a concurrent drop only makes the answer stale towards "shared").
fn shared<T>(piece: &Arc<T>) -> bool {
    Arc::strong_count(piece) > 1
}

/// How a delta entry folds into the base entry under the same key.
trait Fold {
    fn fold(&mut self, later: Self);
}

/// Pair index: the delta's row replaces the base's tombstoned one.
impl Fold for usize {
    fn fold(&mut self, later: usize) {
        *self = later;
    }
}

/// Value index: the delta's rows come after the base's.
impl Fold for Vec<usize> {
    fn fold(&mut self, later: Vec<usize>) {
        self.extend(later);
    }
}

/// One endpoint index: a base map and a delta map (see the module
/// documentation for which takes a write).
#[derive(Clone, Debug)]
struct Layered<K, V> {
    base: Arc<HashMap<K, V>>,
    delta: Arc<HashMap<K, V>>,
}

impl<K, V> Default for Layered<K, V> {
    fn default() -> Self {
        Layered {
            base: Arc::default(),
            delta: Arc::default(),
        }
    }
}

impl<K: Hash + Eq + Clone, V: Fold + Clone> Layered<K, V> {
    /// The map a write goes to, and `true` if it is the delta: the delta
    /// while a snapshot shares the base and the delta has room, else the
    /// base, with the delta folded into it first.
    fn target(&mut self) -> (&mut HashMap<K, V>, bool) {
        if shared(&self.base) && self.delta.len() < DELTA_KEYS {
            if self.delta.is_empty() {
                // Sized for every key it will take before its fold.
                self.delta = Arc::new(HashMap::with_capacity(DELTA_KEYS));
            }
            return (detach(&mut self.delta), true);
        }
        let base = detach(&mut self.base);
        if !self.delta.is_empty() {
            let delta = std::mem::take(&mut self.delta);
            let delta = Arc::try_unwrap(delta).unwrap_or_else(|shared| (*shared).clone());
            for (k, v) in delta {
                match base.entry(k) {
                    Entry::Occupied(mut e) => e.get_mut().fold(v),
                    Entry::Vacant(e) => {
                        e.insert(v);
                    }
                }
            }
        }
        (base, false)
    }

    /// The map holding `key`'s entry with value `i`, detached: the delta
    /// if it is there, else the base (for a rollback, which may find it
    /// in a shared base).
    fn holding(&mut self, key: &K, is: impl Fn(&V) -> bool) -> Option<&mut HashMap<K, V>> {
        if self.delta.get(key).is_some_and(&is) {
            return Some(detach(&mut self.delta));
        }
        if self.base.get(key).is_some_and(is) {
            return Some(detach(&mut self.base));
        }
        None
    }

    /// Empties the index, keeping the maps' allocations where no
    /// snapshot shares them.
    fn clear(&mut self) {
        clear(&mut self.base);
        clear(&mut self.delta);
    }

    fn unshared_with(&self, other: &Layered<K, V>) -> (usize, usize) {
        (
            usize::from(!Arc::ptr_eq(&self.base, &other.base)),
            usize::from(!Arc::ptr_eq(&self.delta, &other.delta)),
        )
    }
}

impl Layered<(Value, Value), usize> {
    /// Candidate rows of `(x, y)`: the base's (possibly tombstoned) and
    /// the delta's.
    fn get(&self, x: &Value, y: &Value) -> [Option<usize>; 2] {
        let key = (x.clone(), y.clone());
        let delta = if self.delta.is_empty() {
            None
        } else {
            self.delta.get(&key).copied()
        };
        [self.base.get(&key).copied(), delta]
    }

    /// Drops the entry of the live row `i` under `key` where a write may:
    /// from the delta, or from the base if no snapshot shares it. A base
    /// entry a snapshot shares stays, tombstoned by the row.
    fn forget(&mut self, x: &Value, y: &Value, i: usize) {
        let key = (x.clone(), y.clone());
        if self.delta.get(&key) == Some(&i) {
            detach(&mut self.delta).remove(&key);
        } else if !shared(&self.base) {
            detach(&mut self.base).remove(&key);
        }
    }

    fn insert(&mut self, x: Value, y: Value, i: usize) {
        self.target().0.insert((x, y), i);
    }
}

impl Layered<Value, Vec<usize>> {
    /// `key`'s rows, ascending: the base's, then the delta's (appended
    /// after every base row).
    fn rows(&self, key: &Value) -> impl Iterator<Item = usize> + '_ {
        fn bucket<'m>(map: &'m HashMap<Value, Vec<usize>>, key: &Value) -> &'m [usize] {
            map.get(key).map_or(&[], Vec::as_slice)
        }
        let delta = if self.delta.is_empty() {
            &[]
        } else {
            bucket(&self.delta, key)
        };
        bucket(&self.base, key).iter().chain(delta).copied()
    }

    fn width(&self, key: &Value) -> usize {
        let delta = if self.delta.is_empty() {
            0
        } else {
            self.delta.get(key).map_or(0, Vec::len)
        };
        self.base.get(key).map_or(0, Vec::len) + delta
    }

    /// Appends row `i` to `key`'s bucket; `true` if `key` is new.
    fn push(&mut self, key: &Value, i: usize) -> bool {
        let (map, into_delta) = self.target();
        let before = map.len();
        map.entry(key.clone()).or_default().push(i);
        let added = map.len() > before;
        added && !(into_delta && self.base.contains_key(key))
    }

    /// Undoes [`Layered::push`] of the table's last row `i`: bucket
    /// vectors hold ascending row indices, so its entry — if present — is
    /// the last one of `key`'s bucket. Returns `true` if `key` is gone.
    fn pop_last(&mut self, key: &Value, i: usize) -> bool {
        let Some(map) = self.holding(key, |b| b.last() == Some(&i)) else {
            return false;
        };
        let Entry::Occupied(mut bucket) = map.entry(key.clone()) else {
            return false;
        };
        bucket.get_mut().pop();
        if !bucket.get().is_empty() {
            return false;
        }
        bucket.remove();
        !self.base.contains_key(key) && !self.delta.contains_key(key)
    }
}

/// A collection [`clear`] can empty in place.
trait Clear: Default {
    fn clear(&mut self);
}

impl<K, V> Clear for HashMap<K, V> {
    fn clear(&mut self) {
        HashMap::clear(self);
    }
}

impl<T> Clear for Vec<T> {
    fn clear(&mut self) {
        Vec::clear(self);
    }
}

/// Empties a collection behind an `Arc`: in place if no snapshot shares
/// it (its allocation is reused), else by starting a new one.
fn clear<T: Clear>(piece: &mut Arc<T>) {
    match Arc::get_mut(piece) {
        Some(p) => p.clear(),
        None => *piece = Arc::default(),
    }
}

/// Pieces of `mine` that are not the same `Arc` as `theirs` at the same
/// position.
fn unshared<T>(mine: &[Arc<T>], theirs: &[Arc<T>]) -> usize {
    mine.iter()
        .enumerate()
        .filter(|&(i, p)| !theirs.get(i).is_some_and(|q| Arc::ptr_eq(p, q)))
        .count()
}

/// Splits a row log into chunks.
fn chunked(rows: impl IntoIterator<Item = Row>) -> Vec<Arc<Chunk>> {
    let mut chunks = Vec::new();
    let mut rows = rows.into_iter().peekable();
    while rows.peek().is_some() {
        let mut chunk = Chunk(std::array::from_fn(|_| None));
        for (slot, row) in chunk.0.iter_mut().zip(rows.by_ref()) {
            *slot = Some(row);
        }
        chunks.push(Arc::new(chunk));
    }
    chunks
}

impl Row {
    /// Smallest encoded row: two empty atoms, the flags, an empty NCL.
    const MIN_ENCODED: usize = 6;
    /// Flag bit set on live rows; the two bits above it hold the truth
    /// flag (0 false, 1 ambiguous, 2 true).
    const ALIVE: u8 = 1;

    fn encode(&self, alive: bool, out: &mut Vec<u8>) {
        self.x.encode(out);
        self.y.encode(out);
        let truth = match self.truth {
            Truth::False => 0,
            Truth::Ambiguous => 1,
            Truth::True => 2,
        };
        out.push(truth << 1 | u8::from(alive));
        put_uint(out, self.ncl.len() as u64);
        for nc in &self.ncl {
            put_uint(out, nc.0);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<(Row, bool)> {
        let x = Value::decode(r)?;
        let y = Value::decode(r)?;
        let flags = r.byte()?;
        let truth = match flags >> 1 {
            0 => Truth::False,
            1 => Truth::Ambiguous,
            2 => Truth::True,
            _ => return Err(r.error("unknown row flags")),
        };
        let mut ncl = BTreeSet::new();
        for _ in 0..r.count(1)? {
            ncl.insert(NcId(r.uint()?));
        }
        Ok((Row { x, y, truth, ncl }, flags & Row::ALIVE != 0))
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table over a row log in physical order — each row's `x`, `y`,
    /// truth flag, NCL and whether it is alive — with its indexes built:
    /// what both snapshot readers restore. A live row flagged false is
    /// refused; the store never holds one.
    pub fn from_rows(
        rows: impl IntoIterator<Item = (Value, Value, Truth, BTreeSet<NcId>, bool)>,
    ) -> Result<Table> {
        let rows = rows.into_iter();
        let mut t = Table::default();
        let mut log = Vec::with_capacity(rows.size_hint().0);
        for (x, y, truth, ncl, alive) in rows {
            if alive && truth == Truth::False {
                return Err(FdbError::Parse {
                    line: 0,
                    message: format!("live row <{x}, {y}> is flagged F"),
                });
            }
            t.push_alive(alive);
            log.push(Row { x, y, truth, ncl });
        }
        t.chunks = chunked(log);
        t.rebuild_index();
        Ok(t)
    }

    /// Every row in physical order with its alive flag, tombstones
    /// included.
    fn all_rows(&self) -> impl Iterator<Item = (&Row, bool)> {
        self.chunks
            .iter()
            .flat_map(|c| c.0.iter().flatten())
            .enumerate()
            .map(|(i, r)| (r, self.is_alive(i)))
    }

    fn at(&self, i: usize) -> Option<&Row> {
        self.chunks.get(i / CHUNK_ROWS)?.0[i % CHUNK_ROWS].as_ref()
    }

    fn is_alive(&self, i: usize) -> bool {
        let bit = i % ALIVE_BLOCK_ROWS;
        self.alive
            .get(i / ALIVE_BLOCK_ROWS)
            .is_some_and(|b| b.0[bit / 64] >> (bit % 64) & 1 == 1)
    }

    /// Flips row `i`'s alive bit, detaching its block.
    fn set_alive(&mut self, i: usize, alive: bool) {
        let bit = i % ALIVE_BLOCK_ROWS;
        let word = &mut detach(&mut self.alive[i / ALIVE_BLOCK_ROWS]).0[bit / 64];
        if alive {
            *word |= 1 << (bit % 64);
        } else {
            *word &= !(1 << (bit % 64));
        }
    }

    /// Sets the alive bit of the row about to be appended as row `len`.
    fn push_alive(&mut self, alive: bool) {
        if self.logged / ALIVE_BLOCK_ROWS == self.alive.len() {
            self.alive
                .push(Arc::new(AliveBlock([0; ALIVE_BLOCK_ROWS / 64])));
        }
        if alive {
            self.set_alive(self.logged, true);
        }
        self.logged += 1;
    }

    /// Row `i`, its chunk detached from every snapshot sharing it.
    ///
    /// # Panics
    /// Panics if there is no row `i`.
    fn row_mut(&mut self, i: usize) -> &mut Row {
        detach(&mut self.chunks[i / CHUNK_ROWS]).0[i % CHUNK_ROWS]
            .as_mut()
            .expect("row index inside the log")
    }

    /// Applies `change` to the live row `i` if `changes` says it alters
    /// it: a chunk is detached only for a real change.
    fn update(
        &mut self,
        i: usize,
        changes: impl FnOnce(&Row) -> bool,
        change: impl FnOnce(&mut Row),
    ) {
        if self.is_alive(i) && self.at(i).is_some_and(changes) {
            change(self.row_mut(i));
        }
    }

    /// Appends the table's binary snapshot form: every row in physical
    /// order, tombstones included. Snapshot equality is physical — a
    /// restored table has the row indices, and reaches its compaction
    /// threshold at the same delete, as the one it was taken from.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_uint(out, self.logged as u64);
        for (row, alive) in self.all_rows() {
            row.encode(alive, out);
        }
    }

    /// Reads a table written by [`Table::encode`].
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Table> {
        let len = r.count(Row::MIN_ENCODED)?;
        let mut rows = Vec::with_capacity(len);
        for _ in 0..len {
            rows.push(Row::decode(r)?);
        }
        Table::from_rows(
            rows.into_iter()
                .map(|(Row { x, y, truth, ncl }, alive)| (x, y, truth, ncl, alive)),
        )
    }

    /// Rebuilds the lookup indexes from the row log.
    fn rebuild_index(&mut self) {
        self.index.clear();
        self.by_x.clear();
        self.by_y.clear();
        for list in [&mut self.null_x, &mut self.null_y] {
            clear(list);
        }
        (self.distinct_x, self.distinct_y) = (0, 0);
        (self.live, self.dead) = (0, 0);
        for i in 0..self.logged {
            let Some(r) = self.at(i).filter(|_| self.is_alive(i)) else {
                self.dead += 1;
                continue;
            };
            let (x, y) = (r.x.clone(), r.y.clone());
            self.live += 1;
            self.index_row(i, x, y);
        }
    }

    fn index_row(&mut self, i: usize, x: Value, y: Value) {
        self.distinct_x += usize::from(self.by_x.push(&x, i));
        self.distinct_y += usize::from(self.by_y.push(&y, i));
        if x.is_null() {
            detach(&mut self.null_x).push(i);
        }
        if y.is_null() {
            detach(&mut self.null_y).push(i);
        }
        self.index.insert(x, y, i);
    }

    /// Appends a live row and indexes it, returning its index.
    fn append(&mut self, x: Value, y: Value, truth: Truth, ncl: BTreeSet<NcId>) -> usize {
        let i = self.logged;
        self.index_row(i, x.clone(), y.clone());
        let row = Some(Row { x, y, truth, ncl });
        match self.chunks.get_mut(i / CHUNK_ROWS) {
            Some(chunk) => detach(chunk).0[i % CHUNK_ROWS] = row,
            None => {
                let mut chunk = Chunk(std::array::from_fn(|_| None));
                chunk.0[0] = row;
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.push_alive(true);
        self.live += 1;
        i
    }

    /// Inserts `(x, y)` with flag `T` and empty NCL, or returns the index
    /// of the already-present row. The boolean is `true` if a new row was
    /// created.
    pub fn insert(&mut self, x: Value, y: Value) -> (usize, bool) {
        match self.position(&x, &y) {
            Some(i) => (i, false),
            None => (self.append(x, y, Truth::True, BTreeSet::new()), true),
        }
    }

    /// Removes `(x, y)` if present, returning the NCL it carried. The row
    /// stays in the log as a tombstone, its chunk untouched unless it
    /// carried NCs.
    pub fn remove(&mut self, x: &Value, y: &Value) -> Option<BTreeSet<NcId>> {
        let i = self.position(x, y)?;
        self.index.forget(x, y, i);
        self.set_alive(i, false);
        self.live -= 1;
        self.dead += 1;
        let carries_ncs = self.at(i).is_some_and(|r| !r.ncl.is_empty());
        Some(if carries_ncs {
            std::mem::take(&mut self.row_mut(i).ncl)
        } else {
            BTreeSet::new()
        })
    }

    /// Index of the live row `(x, y)`, if present.
    pub fn position(&self, x: &Value, y: &Value) -> Option<usize> {
        self.index
            .get(x, y)
            .into_iter()
            .flatten()
            .find(|&i| self.is_alive(i))
    }

    /// `true` if the pair is present (alive).
    pub fn contains(&self, x: &Value, y: &Value) -> bool {
        self.position(x, y).is_some()
    }

    /// View of the live row at `i`, if alive.
    pub fn row(&self, i: usize) -> Option<RowView<'_>> {
        if !self.is_alive(i) {
            return None;
        }
        let r = self.at(i)?;
        Some(RowView {
            x: &r.x,
            y: &r.y,
            truth: r.truth,
            ncl: &r.ncl,
        })
    }

    /// Truth flag of a live pair ([`Truth::False`] if absent — absent base
    /// facts are false, §3.2).
    pub fn truth_of(&self, x: &Value, y: &Value) -> Truth {
        match self.position(x, y).and_then(|i| self.row(i)) {
            Some(r) => r.truth,
            None => Truth::False,
        }
    }

    /// Sets the truth flag of a live row.
    pub fn set_truth(&mut self, i: usize, truth: Truth) {
        debug_assert!(truth != Truth::False, "stored rows are never false");
        self.update(i, |r| r.truth != truth, |r| r.truth = truth);
    }

    /// Adds an NC to a live row's NCL (and flags the row ambiguous, per
    /// `create-NC`).
    pub fn attach_nc(&mut self, i: usize, nc: NcId) {
        self.update(
            i,
            |r| r.truth != Truth::Ambiguous || !r.ncl.contains(&nc),
            |r| {
                r.ncl.insert(nc);
                r.truth = Truth::Ambiguous;
            },
        );
    }

    /// Removes an NC from a row's NCL. Per the paper's `dismantle-NC`, the
    /// flag is *not* reset: the member facts remain ambiguous until a
    /// direct insert asserts them true.
    pub fn detach_nc(&mut self, i: usize, nc: NcId) {
        if self.at(i).is_some_and(|r| r.ncl.contains(&nc)) {
            self.row_mut(i).ncl.remove(&nc);
        }
    }

    /// Low-level insert of a row with explicit flag and NCL, used by null
    /// substitution to rebuild rows under a new key. If the pair already
    /// exists the row is left untouched and `None` is returned; otherwise
    /// the new row's index.
    pub fn restore_row(
        &mut self,
        x: Value,
        y: Value,
        truth: Truth,
        ncl: BTreeSet<NcId>,
    ) -> Option<usize> {
        if self.contains(&x, &y) {
            return None;
        }
        Some(self.append(x, y, truth, ncl))
    }

    /// Undoes the most recent append (transaction rollback): pops the last
    /// row and scrubs its index entries. The caller (the store's undo
    /// journal) applies inverses in reverse order with compaction
    /// suspended, so the row to un-append is always the physically last
    /// one and is always alive.
    pub(crate) fn undo_append(&mut self) {
        let Some(i) = self.logged.checked_sub(1) else {
            debug_assert!(false, "undo_append on an empty table");
            return;
        };
        debug_assert!(self.is_alive(i), "undo_append must target a live row");
        let Some(r) = detach(&mut self.chunks[i / CHUNK_ROWS]).0[i % CHUNK_ROWS].take() else {
            debug_assert!(false, "row {i} is in the log");
            return;
        };
        self.set_alive(i, false);
        self.logged = i;
        self.live -= 1;
        self.distinct_x -= usize::from(self.by_x.pop_last(&r.x, i));
        self.distinct_y -= usize::from(self.by_y.pop_last(&r.y, i));
        if self.null_x.last() == Some(&i) {
            detach(&mut self.null_x).pop();
        }
        if self.null_y.last() == Some(&i) {
            detach(&mut self.null_y).pop();
        }
        let key = (r.x, r.y);
        if let Some(index) = self.index.holding(&key, |&j| j == i) {
            index.remove(&key);
        }
    }

    /// Undoes a tombstoning (transaction rollback): revives the row at `i`
    /// in place, restoring the NCL it carried. Key, flag and physical
    /// position were preserved by [`Table::remove`], so this reproduces
    /// the exact pre-removal serialized layout; the value-bucket indexes
    /// still reference `i` (removal never scrubbed them) and become
    /// valid again the moment the row is alive again.
    pub(crate) fn resurrect(&mut self, i: usize, ncl: BTreeSet<NcId>) {
        let Some(r) = self.at(i) else {
            debug_assert!(false, "resurrect of unknown row {i}");
            return;
        };
        debug_assert!(!self.is_alive(i), "resurrect must target a tombstoned row");
        let (x, y) = (r.x.clone(), r.y.clone());
        if !ncl.is_empty() {
            self.row_mut(i).ncl = ncl;
        }
        self.set_alive(i, true);
        if !self.index.get(&x, &y).contains(&Some(i)) {
            self.index.insert(x, y, i);
        }
        self.live += 1;
        self.dead -= 1;
    }

    /// Live rows in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = RowView<'_>> {
        self.all_rows()
            .filter(|&(_, alive)| alive)
            .map(|(r, _)| RowView {
                x: &r.x,
                y: &r.y,
                truth: r.truth,
                ncl: &r.ncl,
            })
    }

    /// Number of live rows (O(1): maintained incrementally).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Planner statistics (see [`TableStats`] for exactness caveats).
    pub fn stats(&self) -> TableStats {
        TableStats {
            rows: self.live,
            distinct_x: self.distinct_x,
            distinct_y: self.distinct_y,
            null_x: self.null_x.len(),
            null_y: self.null_y.len(),
        }
    }

    /// Exact single-valuedness of the current extension, over *live* rows
    /// only: `(functional, injective)`. `functional` holds when no domain
    /// value maps to two live range values, `injective` when no range
    /// value is reached from two live domain values. Unlike
    /// [`Table::stats`] this scans the rows, so tombstoned index entries
    /// cannot inflate the answer; nulls compare by identity (two distinct
    /// unknowns count as distinct values). An empty table is vacuously
    /// both.
    pub fn single_valuedness(&self) -> (bool, bool) {
        let mut seen_x: HashMap<&Value, &Value> = HashMap::new();
        let mut seen_y: HashMap<&Value, &Value> = HashMap::new();
        let mut functional = true;
        let mut injective = true;
        for r in self.rows() {
            match seen_x.get(r.x) {
                Some(y) if *y != r.y => functional = false,
                _ => {
                    seen_x.insert(r.x, r.y);
                }
            }
            match seen_y.get(r.y) {
                Some(x) if *x != r.x => injective = false,
                _ => {
                    seen_y.insert(r.y, r.x);
                }
            }
            if !functional && !injective {
                break;
            }
        }
        (functional, injective)
    }

    /// Width of the `by_x` index bucket for `v` — an O(1) upper bound on
    /// `rows_with_x(v).count()` (tombstoned entries are not subtracted).
    pub fn x_width(&self, v: &Value) -> usize {
        self.by_x.width(v)
    }

    /// Width of the `by_y` index bucket for `v` — an O(1) upper bound on
    /// `rows_with_y(v).count()`.
    pub fn y_width(&self, v: &Value) -> usize {
        self.by_y.width(v)
    }

    /// `true` if the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Indices of live rows whose domain value equals `v` exactly.
    pub fn rows_with_x(&self, v: &Value) -> impl Iterator<Item = usize> + '_ {
        fdb_obs::registry().storage_index_probes.inc();
        self.by_x.rows(v).filter(move |&i| self.is_alive(i))
    }

    /// Indices of live rows whose range value equals `v` exactly.
    pub fn rows_with_y(&self, v: &Value) -> impl Iterator<Item = usize> + '_ {
        fdb_obs::registry().storage_index_probes.inc();
        self.by_y.rows(v).filter(move |&i| self.is_alive(i))
    }

    /// Indices of live rows whose domain value is a null.
    pub fn rows_with_null_x(&self) -> impl Iterator<Item = usize> + '_ {
        self.null_x
            .iter()
            .copied()
            .filter(move |&i| self.is_alive(i))
    }

    /// Indices of live rows whose range value is a null.
    pub fn rows_with_null_y(&self) -> impl Iterator<Item = usize> + '_ {
        self.null_y
            .iter()
            .copied()
            .filter(move |&i| self.is_alive(i))
    }

    /// Indices of all live rows.
    pub fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        fdb_obs::registry().storage_table_scans.inc();
        (0..self.logged).filter(move |&i| self.is_alive(i))
    }

    /// Number of tombstoned rows awaiting compaction (O(1)).
    pub fn tombstones(&self) -> usize {
        self.dead
    }

    /// Drops tombstoned rows and rebuilds the indexes. Row indices are
    /// invalidated (they are internal handles only; no NC conjunct stores
    /// an index — conjuncts key by value pair, which compaction
    /// preserves). Insertion order of live rows is kept.
    pub fn compact(&mut self) {
        if self.dead == 0 {
            return;
        }
        fdb_obs::registry().storage_compactions.inc();
        // Slide the live rows down in place; the chunks and bitmap blocks
        // left empty stay allocated for the appends to come.
        let mut kept = 0;
        for i in 0..self.logged {
            if !self.is_alive(i) {
                continue;
            }
            if i != kept {
                let row = detach(&mut self.chunks[i / CHUNK_ROWS]).0[i % CHUNK_ROWS].take();
                detach(&mut self.chunks[kept / CHUNK_ROWS]).0[kept % CHUNK_ROWS] = row;
            }
            kept += 1;
        }
        for i in kept..self.logged {
            if self.at(i).is_some() {
                detach(&mut self.chunks[i / CHUNK_ROWS]).0[i % CHUNK_ROWS] = None;
            }
        }
        for (b, block) in self.alive.iter_mut().enumerate() {
            for (w, word) in detach(block).0.iter_mut().enumerate() {
                *word = match kept.saturating_sub(b * ALIVE_BLOCK_ROWS + w * 64) {
                    0 => 0,
                    n if n >= 64 => u64::MAX,
                    n => (1 << n) - 1,
                };
            }
        }
        self.logged = kept;
        self.rebuild_index();
    }

    /// The pieces of this table — row chunks, bitmap blocks, index maps,
    /// null lists — that are not physically shared with `other`. Against
    /// a snapshot taken earlier, that is what the writes since have
    /// copied (or added).
    pub fn unshared_with(&self, other: &Table) -> Unshared {
        let maps = [
            self.index.unshared_with(&other.index),
            self.by_x.unshared_with(&other.by_x),
            self.by_y.unshared_with(&other.by_y),
        ];
        Unshared {
            chunks: unshared(&self.chunks, &other.chunks),
            alive_blocks: unshared(&self.alive, &other.alive),
            index_bases: maps.iter().map(|m| m.0).sum(),
            index_deltas: maps.iter().map(|m| m.1).sum(),
            null_lists: usize::from(!Arc::ptr_eq(&self.null_x, &other.null_x))
                + usize::from(!Arc::ptr_eq(&self.null_y, &other.null_y)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::NullId;

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = Table::new();
        let (i, fresh) = t.insert(v("euclid"), v("math"));
        assert!(fresh);
        let (j, fresh2) = t.insert(v("euclid"), v("math"));
        assert!(!fresh2);
        assert_eq!(i, j);
        assert_eq!(t.len(), 1);
        assert_eq!(t.truth_of(&v("euclid"), &v("math")), Truth::True);
        assert_eq!(t.truth_of(&v("euclid"), &v("physics")), Truth::False);
    }

    #[test]
    fn remove_tombstones_and_returns_ncl() {
        let mut t = Table::new();
        let (i, _) = t.insert(v("a"), v("b"));
        t.attach_nc(i, NcId(1));
        let ncl = t.remove(&v("a"), &v("b")).unwrap();
        assert_eq!(ncl.into_iter().collect::<Vec<_>>(), vec![NcId(1)]);
        assert!(!t.contains(&v("a"), &v("b")));
        assert!(t.remove(&v("a"), &v("b")).is_none());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn reinsert_after_remove_is_fresh_and_true() {
        let mut t = Table::new();
        let (i, _) = t.insert(v("a"), v("b"));
        t.attach_nc(i, NcId(1));
        t.remove(&v("a"), &v("b"));
        let (j, fresh) = t.insert(v("a"), v("b"));
        assert!(fresh);
        assert_ne!(i, j);
        assert_eq!(t.truth_of(&v("a"), &v("b")), Truth::True);
        assert!(t.row(j).unwrap().ncl.is_empty());
    }

    #[test]
    fn attach_nc_flags_ambiguous_detach_keeps_flag() {
        let mut t = Table::new();
        let (i, _) = t.insert(v("a"), v("b"));
        t.attach_nc(i, NcId(7));
        assert_eq!(t.truth_of(&v("a"), &v("b")), Truth::Ambiguous);
        t.detach_nc(i, NcId(7));
        // dismantle-NC does not reset the flag (§4; see the `math john A {}`
        // state after u3 in the paper's trace).
        assert_eq!(t.truth_of(&v("a"), &v("b")), Truth::Ambiguous);
        assert!(t.row(i).unwrap().ncl.is_empty());
        t.set_truth(i, Truth::True);
        assert_eq!(t.truth_of(&v("a"), &v("b")), Truth::True);
    }

    #[test]
    fn value_indexes() {
        let mut t = Table::new();
        t.insert(v("math"), v("john"));
        t.insert(v("math"), v("bill"));
        t.insert(v("physics"), v("bill"));
        assert_eq!(t.rows_with_x(&v("math")).count(), 2);
        assert_eq!(t.rows_with_y(&v("bill")).count(), 2);
        t.remove(&v("math"), &v("bill"));
        assert_eq!(t.rows_with_x(&v("math")).count(), 1);
        assert_eq!(t.rows_with_y(&v("bill")).count(), 1);
    }

    #[test]
    fn null_indexes() {
        let mut t = Table::new();
        let n1 = Value::Null(NullId(1));
        t.insert(v("gauss"), n1.clone());
        t.insert(n1.clone(), v("bill"));
        assert_eq!(t.rows_with_null_x().count(), 1);
        assert_eq!(t.rows_with_null_y().count(), 1);
        t.remove(&n1, &v("bill"));
        assert_eq!(t.rows_with_null_x().count(), 0);
    }

    #[test]
    fn rows_iterate_in_insertion_order() {
        let mut t = Table::new();
        t.insert(v("1"), v("a"));
        t.insert(v("2"), v("b"));
        t.insert(v("3"), v("c"));
        t.remove(&v("2"), &v("b"));
        let xs: Vec<String> = t.rows().map(|r| r.x.to_string()).collect();
        assert_eq!(xs, vec!["1", "3"]);
    }

    #[test]
    fn compact_drops_tombstones_and_keeps_order() {
        let mut t = Table::new();
        t.insert(v("1"), v("a"));
        let (i2, _) = t.insert(v("2"), v("b"));
        t.insert(v("3"), v("c"));
        t.attach_nc(i2, NcId(4));
        t.remove(&v("1"), &v("a"));
        assert_eq!(t.tombstones(), 1);
        t.compact();
        assert_eq!(t.tombstones(), 0);
        assert_eq!(t.len(), 2);
        let xs: Vec<String> = t.rows().map(|r| r.x.to_string()).collect();
        assert_eq!(xs, vec!["2", "3"]);
        // Flags, NCLs and indexes survive compaction.
        let j = t.position(&v("2"), &v("b")).unwrap();
        assert_eq!(t.row(j).unwrap().truth, Truth::Ambiguous);
        assert!(t.row(j).unwrap().ncl.contains(&NcId(4)));
        assert_eq!(t.rows_with_x(&v("3")).count(), 1);
        // Compacting an already-compact table is a no-op.
        t.compact();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn stats_and_widths_reflect_live_rows_after_compaction() {
        let mut t = Table::new();
        let n1 = Value::Null(NullId(1));
        t.insert(v("math"), v("john"));
        t.insert(v("math"), v("bill"));
        t.insert(v("physics"), v("bill"));
        t.insert(n1.clone(), v("kim"));
        let s = t.stats();
        assert_eq!(s.rows, 4);
        assert_eq!(s.distinct_x, 3);
        assert_eq!(s.distinct_y, 3);
        assert_eq!(s.null_x, 1);
        assert_eq!(s.null_y, 0);
        assert_eq!(t.x_width(&v("math")), 2);
        assert_eq!(t.y_width(&v("bill")), 2);
        assert_eq!(t.x_width(&v("absent")), 0);
        // Widths are estimates until compaction removes dead entries.
        t.remove(&v("math"), &v("bill"));
        assert_eq!(t.x_width(&v("math")), 2);
        t.compact();
        assert_eq!(t.x_width(&v("math")), 1);
        assert_eq!(t.stats().rows, 3);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn single_valuedness_is_exact_over_live_rows() {
        let mut t = Table::new();
        assert_eq!(t.single_valuedness(), (true, true));
        t.insert(v("a"), v("x"));
        t.insert(v("b"), v("y"));
        assert_eq!(t.single_valuedness(), (true, true));
        // a second range value for `a` breaks functionality only.
        t.insert(v("a"), v("z"));
        assert_eq!(t.single_valuedness(), (false, true));
        // a second domain value for `y` breaks injectivity too.
        t.insert(v("c"), v("y"));
        assert_eq!(t.single_valuedness(), (false, false));
        // tombstoning the offenders restores both — stats() would still
        // see the dead index entries, single_valuedness must not.
        t.remove(&v("a"), &v("z"));
        t.remove(&v("c"), &v("y"));
        assert_eq!(t.single_valuedness(), (true, true));
    }

    #[test]
    fn from_rows_builds_the_indexes_and_refuses_a_live_false_row() {
        let row = |x: &str, truth, alive| (v(x), v("y"), truth, BTreeSet::new(), alive);
        let t = Table::from_rows([
            row("a", Truth::True, false),
            row("c", Truth::Ambiguous, true),
            row("d", Truth::False, false),
        ])
        .unwrap();
        assert!(t.contains(&v("c"), &v("y")));
        assert!(!t.contains(&v("a"), &v("y")));
        assert_eq!((t.len(), t.tombstones()), (1, 2));
        assert_eq!(t.rows_with_y(&v("y")).collect::<Vec<_>>(), vec![1]);
        assert!(Table::from_rows([row("a", Truth::False, true)]).is_err());
    }

    /// A write to a clone copies the chunk, bitmap block and deltas it
    /// changes; the bases and every other piece stay shared. A delete
    /// flips a bit and leaves the shared base alone: the tombstone drops
    /// its entry.
    #[test]
    fn a_write_to_a_clone_detaches_one_chunk_and_the_deltas() {
        let mut t = Table::new();
        for i in 0..5 * CHUNK_ROWS {
            t.insert(v(&format!("x{}", i % 97)), v(&format!("y{i}")));
        }
        let snap = t.clone();
        assert_eq!(t.unshared_with(&snap), Unshared::default());
        t.remove(&v("x3"), &v("y3"));
        assert_eq!(
            t.unshared_with(&snap),
            Unshared {
                alive_blocks: 1,
                ..Unshared::default()
            }
        );
        assert!(!t.contains(&v("x3"), &v("y3")));
        assert!(snap.contains(&v("x3"), &v("y3")));
        // Re-inserted while the base is shared: the delta takes it.
        t.insert(v("x3"), v("y3"));
        t.insert(v("x3"), v("fresh"));
        assert_eq!(
            t.unshared_with(&snap),
            Unshared {
                chunks: 1,
                alive_blocks: 1,
                index_deltas: 3,
                ..Unshared::default()
            }
        );
        assert_eq!(
            t.rows_with_x(&v("x3")).count(),
            snap.rows_with_x(&v("x3")).count() + 1
        );
        assert_eq!(t.x_width(&v("x3")), snap.x_width(&v("x3")) + 2);
        assert_eq!(t.stats().distinct_y, snap.stats().distinct_y + 1);
        // No-op writes detach nothing.
        let snap = t.clone();
        let i = t.position(&v("x5"), &v("y5")).unwrap();
        t.set_truth(i, Truth::True);
        t.detach_nc(i, NcId(9));
        assert!(t.remove(&v("x5"), &v("absent")).is_none());
        assert_eq!(t.unshared_with(&snap), Unshared::default());
    }

    /// A full delta folds into a copy of the base; with no snapshot left
    /// the next write folds it in place.
    #[test]
    fn deltas_fold_into_the_base() {
        let mut t = Table::new();
        t.insert(v("a"), v("b"));
        let first = t.clone();
        for i in 0..DELTA_KEYS + 1 {
            t.insert(v("a"), v(&format!("y{i}")));
        }
        // The pair and `y` deltas filled up and folded; the `x` delta
        // holds one key, `a`, and did not.
        assert_eq!(t.unshared_with(&first).index_bases, 2);
        assert_eq!(t.x_width(&v("a")), DELTA_KEYS + 2);
        let snap = t.clone();
        t.insert(v("c"), v("d"));
        drop((first, snap));
        t.insert(v("e"), v("f"));
        assert!(t.by_x.delta.is_empty() && t.index.delta.is_empty());
        assert_eq!(t.stats().distinct_x, 3);
        assert_eq!(t.rows_with_x(&v("a")).count(), DELTA_KEYS + 2);
        assert_eq!(t.position(&v("c"), &v("d")), Some(DELTA_KEYS + 2));
    }
}
