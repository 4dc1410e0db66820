//! Relation storage and the database of predicates.
//!
//! Tuples live once, in a row arena; membership lookup and every index
//! reference rows by dense id instead of cloning tuples. Secondary
//! indices are built for whatever column sets the compiled join plans
//! need when the rules are compiled (see `eval::ensure_indices`), never
//! by a clique task, and are maintained incrementally on insert/remove.
//! Duplicate inserts and misses touch only the membership chain — the
//! tuple is hashed once and no index is disturbed unless the extent
//! actually changes.
//!
//! The membership chains live in the arena too: a table keyed by the
//! tuple's hash holds the first row of its chain and each slot links to
//! the next, so a distinct tuple costs one table entry and no allocation
//! of its own. Everything is hashed by the crate's one fixed function
//! ([`crate::hash`]), so row placement is the same in every run and in
//! every clone.
//!
//! ## Epoch versioning (MVCC)
//!
//! Every row carries `born`/`died` epoch stamps so the arena is a
//! multi-version store. The database has a *published* epoch `P`; all
//! mutations stamp at the *open* epoch `P + 1`:
//!
//! * insert ⇒ a fresh row with `born = P + 1`, `died = NEVER` — unless
//!   the open epoch itself tombstoned a row holding the tuple, in which
//!   case that row's `died` goes back to `NEVER` and nothing else moves:
//!   a removal composed with the same insertion is the empty change, so
//!   an update's physical writes follow its *net* delta;
//! * remove ⇒ a tombstone: the row's `died` is set to `P + 1`, the
//!   tuple stays in the arena, the membership chain, and every index.
//!
//! Head reads (the writer's view — everything evaluation does) see rows
//! with `died == NEVER`. A snapshot pinned at epoch `E` sees rows with
//! `born <= E < died`, so a reader holding `E = P` observes the last
//! published cut bit-for-bit no matter what the open epoch scribbles.
//! [`Database::publish`] turns the open epoch into the published one —
//! that is the *only* point at which concurrent snapshots can observe a
//! new state. `Database::abort_open_epoch` is its opposite and the
//! only rollback: every stamp at `P + 1` is discarded, so the head is
//! the published cut again. The stamps are the record of what an update
//! did — nothing else logs it.
//!
//! Reclamation is deferred: the open epoch's tombstones sit in a list of
//! their own (an insert can still take one back, an abort takes them all
//! back) and join a graveyard ordered by `died` when the epoch advances;
//! [`Relation::vacuum`] recycles them onto the free list only once
//! `died <= watermark`, where the watermark is
//! `min(published, min pinned epoch)` — i.e. no live or future snapshot
//! can still see the row. Until then the row id is *not* reused, so a
//! pinned reader can never observe an aliased tuple through a recycled
//! slot.

use crate::eval::Rels;
use crate::hash::{ByHash, Map, WordHasher};
use crate::value::{Interner, Key, Tuple, Value};
use incr_obs::Counter;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Dense predicate handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(pub u32);

impl PredId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Row handle inside one relation's arena.
type Row = u32;

/// `died` stamp of a row that is live at head.
const NEVER: u64 = u64::MAX;

/// End of a membership chain.
const NIL: Row = Row::MAX;

/// `mvcc.rows_revived`: inserts that took back a tombstone of their own
/// epoch instead of allocating a row. Registered once and cached (the
/// registry lookup takes a lock; this sits on the insert path).
fn revived_counter() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| incr_obs::registry().counter("mvcc.rows_revived"))
}

/// The tuple's hash under the crate's fixed hasher, one word per value
/// (a relation's arity is fixed, so no length goes in). The membership
/// table ([`ByHash`]) is keyed by it.
fn tuple_hash(t: &[Value]) -> u64 {
    let mut h = WordHasher::default();
    for v in t {
        v.hash(&mut h);
    }
    #[cfg(test)]
    return h.finish() & tests::HASH_MASK.get();
    #[cfg(not(test))]
    h.finish()
}

/// One arena slot: the tuple plus its visibility interval. `tuple` is
/// `None` only after a vacuum (the slot sits on the free list).
#[derive(Clone, Debug)]
struct Slot {
    tuple: Option<Tuple>,
    born: u64,
    died: u64,
    /// This row's position in [`Relation::dying`]; meaningful only while
    /// `died` is the open epoch.
    dying_pos: u32,
    /// The next row of this tuple's membership chain, or [`NIL`].
    next: Row,
}

impl Slot {
    #[inline]
    fn live_at_head(&self) -> bool {
        self.died == NEVER
    }

    #[inline]
    fn visible_at(&self, epoch: u64) -> bool {
        self.born <= epoch && epoch < self.died
    }
}

/// One secondary index: rows grouped by their projection onto `cols`.
/// Buckets hold every non-vacuumed row (live *and* tombstoned); probes
/// filter by visibility, so one index serves head and snapshot reads.
#[derive(Clone, Debug, Default)]
struct SecondaryIndex {
    cols: Vec<usize>,
    buckets: Map<Vec<Value>, Vec<Row>>,
}

impl SecondaryIndex {
    /// `t`'s projection onto `cols`, built on the stack: only the first
    /// row of a bucket pays for a heap key.
    fn key(&self, t: &[Value]) -> Key {
        self.cols.iter().map(|&c| t[c]).collect()
    }

    fn insert(&mut self, t: &[Value], row: Row) {
        let key = self.key(t);
        match self.buckets.get_mut(&*key) {
            Some(bucket) => bucket.push(row),
            None => {
                self.buckets.insert(key.to_vec(), vec![row]);
            }
        }
    }

    fn remove(&mut self, t: &[Value], row: Row) {
        let key = self.key(t);
        if let Some(bucket) = self.buckets.get_mut(&*key) {
            if let Some(pos) = bucket.iter().position(|&r| r == row) {
                bucket.swap_remove(pos);
            }
            if bucket.is_empty() {
                self.buckets.remove(&*key);
            }
        }
    }
}

/// A set of tuples of fixed arity. The arena (`rows` + `free`) owns every
/// tuple; `lookup` maps a tuple hash to the first row of its chain (linked
/// through `Slot::next`) for O(1) membership; each entry of `indices` — a
/// relation has one to three, so a probe finds its index by comparing
/// column lists, not by hashing one — groups row ids by a bound-column
/// projection for O(bucket) join probes. Rows are epoch-stamped — see the
/// module docs for the visibility and reclamation rules.
#[derive(Clone, Debug)]
pub struct Relation {
    arity: usize,
    rows: Vec<Slot>,
    free: Vec<Row>,
    /// Rows tombstoned in published epochs, in `died` order (epochs only
    /// grow, so appending keeps this sorted); `vacuum` pops the
    /// reclaimable prefix.
    graveyard: VecDeque<Row>,
    /// Rows tombstoned in the open epoch, each at its slot's `dying_pos`,
    /// so an insert takes one back out in O(1). Spliced onto the
    /// graveyard when the epoch advances.
    dying: Vec<Row>,
    live: usize,
    /// The open epoch mutations stamp at (`Database` keeps this synced
    /// to `published + 1`; standalone relations never publish, so any
    /// value is consistent for pure head use).
    write_epoch: u64,
    lookup: ByHash<Row>,
    indices: Vec<SecondaryIndex>,
}

impl Default for Relation {
    fn default() -> Self {
        Relation::new(0)
    }
}

/// A resolved index probe: the rows matching one key (possibly none),
/// filtered by visibility — at head (`at == None`) or at a pinned
/// snapshot epoch.
pub struct Probe<'a> {
    rel: &'a Relation,
    bucket: &'a [Row],
    at: Option<u64>,
}

impl<'a> Probe<'a> {
    #[inline]
    fn visible(rel: &Relation, r: Row, at: Option<u64>) -> bool {
        let s = &rel.rows[r as usize];
        match at {
            None => s.live_at_head(),
            Some(e) => s.visible_at(e),
        }
    }

    /// Visible rows under this probe's epoch (O(bucket): tombstones in
    /// the bucket are skipped, not counted).
    pub fn len(&self) -> usize {
        let (rel, at) = (self.rel, self.at);
        self.bucket
            .iter()
            .filter(|&&r| Self::visible(rel, r, at))
            .count()
    }

    pub fn is_empty(&self) -> bool {
        let (rel, at) = (self.rel, self.at);
        !self.bucket.iter().any(|&r| Self::visible(rel, r, at))
    }

    pub fn iter(&self) -> impl Iterator<Item = &'a Tuple> + 'a {
        let (rel, at) = (self.rel, self.at);
        self.bucket
            .iter()
            .filter(move |&&r| Self::visible(rel, r, at))
            .filter_map(move |&r| rel.rows[r as usize].tuple.as_ref())
    }
}

impl Relation {
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            rows: Vec::new(),
            free: Vec::new(),
            graveyard: VecDeque::new(),
            dying: Vec::new(),
            live: 0,
            write_epoch: 1,
            lookup: ByHash::default(),
            indices: Vec::new(),
        }
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The epoch mutations currently stamp at.
    pub fn write_epoch(&self) -> u64 {
        self.write_epoch
    }

    /// Move the stamp epoch forward (no-op if `epoch` is not larger —
    /// stamps must stay monotone or the graveyard order breaks). The one
    /// place the epoch advances, so the one place the closing epoch's
    /// tombstones become final and join the graveyard.
    pub(crate) fn set_write_epoch(&mut self, epoch: u64) {
        if epoch > self.write_epoch {
            self.write_epoch = epoch;
            self.graveyard.extend(self.dying.drain(..));
        }
    }

    /// Tombstoned rows still held for snapshot readers.
    pub fn retained(&self) -> usize {
        self.graveyard.len() + self.dying.len()
    }

    /// Total arena slots (live + tombstoned + free) — growth diagnostics.
    pub fn arena_len(&self) -> usize {
        self.rows.len()
    }

    /// The rows chained under hash `h`: every unreclaimed row (live or
    /// tombstoned) whose tuple hashes to it.
    fn chain(&self, h: u64) -> impl Iterator<Item = (Row, &Slot)> + '_ {
        let mut at = self.lookup.get(&h).copied().unwrap_or(NIL);
        std::iter::from_fn(move || {
            let slot = self.rows.get(at as usize)?;
            let row = std::mem::replace(&mut at, slot.next);
            Some((row, slot))
        })
    }

    /// The row holding `t` at head, if `t` is live. A row keeps its tuple
    /// until the tuple is removed, so while the relation is not written
    /// the row names the tuple.
    pub(crate) fn row_of(&self, t: &[Value]) -> Option<Row> {
        self.chain(tuple_hash(t))
            .find(|(_, s)| s.live_at_head() && s.tuple.as_deref() == Some(t))
            .map(|(r, _)| r)
    }

    /// The storage accounting, exact at every step: every slot is live,
    /// retained or free; every index holds each unreclaimed row once and
    /// finds every live one; the graveyard is `died`-ordered and final;
    /// `dying` is the open epoch's tombstones, each slot knowing its
    /// place. Panics on the first breach.
    #[cfg(test)]
    pub(crate) fn check_accounting(&self) {
        assert_eq!(self.arena_len(), self.len() + self.retained() + self.free.len());
        for cols in self.index_cols() {
            assert_eq!(self.index_entries(cols), Some(self.len() + self.retained()));
            for t in self.iter() {
                let key: Tuple = cols.iter().map(|&c| t[c]).collect();
                let found = self.probe(cols, &key).is_some_and(|p| p.iter().any(|u| u == t));
                assert!(found, "index {cols:?} misses {t:?}");
            }
        }
        let died: Vec<u64> = self.graveyard.iter().map(|&row| self.rows[row as usize].died).collect();
        assert!(died.windows(2).all(|w| w[0] <= w[1]), "graveyard order {died:?}");
        assert!(died.iter().all(|&d| d < self.write_epoch));
        for (pos, &row) in self.dying.iter().enumerate() {
            let slot = &self.rows[row as usize];
            assert_eq!((slot.died, slot.dying_pos as usize), (self.write_epoch, pos));
        }
        // Every unreclaimed row is reachable from the chain of its tuple's
        // hash, once, and from no other.
        let mut chained = vec![false; self.arena_len()];
        for &h in self.lookup.keys() {
            for (row, slot) in self.chain(h) {
                assert_eq!(slot.tuple.as_deref().map(tuple_hash), Some(h), "row {row} is on a foreign chain");
                assert!(!std::mem::replace(&mut chained[row as usize], true), "row {row} is chained twice");
            }
        }
        for (slot, chained) in self.rows.iter().zip(chained) {
            assert_eq!(slot.tuple.is_some(), chained, "{slot:?}");
        }
    }

    /// Insert; true if new. Panics on arity mismatch (an engine bug, not
    /// a data error — arities are validated at parse time). Duplicates
    /// hash once and leave every index untouched.
    ///
    /// A re-insert over a tombstone of the *open* epoch revives that row
    /// (`died` back to `NEVER`): no snapshot ever saw
    /// the tombstone, so taking it back changes no view, allocates no
    /// slot and touches no chain or index. A re-insert over a tombstone
    /// of a *published* epoch allocates a new row: the tombstone keeps
    /// serving pinned snapshots, the new row carries the head extent, and
    /// visibility filtering guarantees at most one of them is seen at any
    /// single epoch.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(t.len(), self.arity, "arity mismatch on insert");
        let h = tuple_hash(&t);
        let mut dying = None;
        for (r, s) in self.chain(h) {
            // Stamps first: older versions of the tuple are skipped
            // without comparing it.
            let dying_now = s.died == self.write_epoch;
            if (dying_now || s.live_at_head()) && s.tuple.as_deref() == Some(t.as_slice()) {
                if !dying_now {
                    return false;
                }
                dying = Some(r);
            }
        }
        if let Some(row) = dying {
            self.revive(row);
            return true;
        }
        let slot = Slot {
            tuple: Some(t),
            born: self.write_epoch,
            died: NEVER,
            dying_pos: 0,
            next: NIL,
        };
        let row = match self.free.pop() {
            Some(r) => {
                self.rows[r as usize] = slot;
                r
            }
            None => {
                self.rows.push(slot);
                (self.rows.len() - 1) as Row
            }
        };
        #[allow(clippy::expect_used, reason = "the slot was filled just above")]
        let stored = self.rows[row as usize]
            .tuple
            .as_deref()
            .expect("just stored");
        for idx in &mut self.indices {
            idx.insert(stored, row);
        }
        // The new row becomes the head of its chain.
        if let Some(head) = self.lookup.insert(h, row) {
            self.rows[row as usize].next = head;
        }
        self.live += 1;
        true
    }

    /// Remove; true if present. Misses hash once and leave every index
    /// untouched. Presence removal is a tombstone write (`died` stamped
    /// at the open epoch): the row stays in the arena, chain, and
    /// indices for pinned snapshot readers until [`Self::vacuum`]
    /// reclaims it past the watermark.
    pub fn remove(&mut self, t: &[Value]) -> bool {
        let Some(row) = self.row_of(t) else {
            return false;
        };
        let slot = &mut self.rows[row as usize];
        slot.died = self.write_epoch;
        slot.dying_pos = self.dying.len() as u32;
        self.dying.push(row);
        self.live -= 1;
        true
    }

    /// Undo the open epoch's tombstone on `row`: out of `dying` by its
    /// remembered position (the row swapped into the hole learns its new
    /// one), live again.
    fn revive(&mut self, row: Row) {
        let pos = self.rows[row as usize].dying_pos as usize;
        debug_assert_eq!(self.dying[pos], row, "dying_pos out of step");
        self.dying.swap_remove(pos);
        if let Some(&moved) = self.dying.get(pos) {
            self.rows[moved as usize].dying_pos = pos as u32;
        }
        self.rows[row as usize].died = NEVER;
        self.live += 1;
        revived_counter().inc();
    }

    /// Recycle every tombstone no snapshot at or after `watermark + 1`
    /// can see (`died <= watermark`) through [`Self::reclaim`]. Returns
    /// the number of rows reclaimed.
    pub fn vacuum(&mut self, watermark: u64) -> usize {
        let mut reclaimed = 0;
        while let Some(&row) = self.graveyard.front() {
            if self.rows[row as usize].died > watermark {
                break; // graveyard is died-ordered: nothing further qualifies
            }
            self.graveyard.pop_front();
            self.reclaim(row);
            reclaimed += 1;
        }
        // The open epoch's tombstones all died at `write_epoch`. A
        // database's watermark never reaches its open epoch; a standalone
        // relation's can.
        if self.write_epoch <= watermark {
            for row in std::mem::take(&mut self.dying) {
                self.reclaim(row);
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Take `row` out of the arena: unlink it from the membership chain
    /// and all indices, drop the tuple, and push the row id onto the
    /// free list. The caller has already accounted for `live` and the
    /// graveyard.
    fn reclaim(&mut self, row: Row) {
        #[allow(clippy::expect_used, reason = "only unreclaimed rows are reclaimed")]
        let tuple = self.rows[row as usize]
            .tuple
            .take()
            .expect("reclaimed row holds its tuple");
        let h = tuple_hash(&tuple);
        let next = self.rows[row as usize].next;
        if self.lookup.get(&h) != Some(&row) {
            #[allow(clippy::expect_used, reason = "a chain reaches every row on it")]
            let (before, _) = self
                .chain(h)
                .find(|(_, s)| s.next == row)
                .expect("a row that is not the head of its chain follows another");
            self.rows[before as usize].next = next;
        } else if next == NIL {
            self.lookup.remove(&h);
        } else {
            self.lookup.insert(h, next);
        }
        for idx in &mut self.indices {
            idx.remove(&tuple, row);
        }
        self.free.push(row);
    }

    /// Discard every stamp made at the open epoch, leaving the head
    /// extent equal to the last published cut. Rows still tombstoned in
    /// the open epoch (`dying`) come back to life — the ones an insert
    /// already revived need nothing; rows born in it — found by an arena
    /// scan, so inserts keep no list of them — are reclaimed straight
    /// onto the free list. Snapshots never saw either kind of stamp.
    pub(crate) fn abort_epoch(&mut self) {
        let open = self.write_epoch;
        for row in std::mem::take(&mut self.dying) {
            self.rows[row as usize].died = NEVER;
            self.live += 1;
        }
        // Every row born in the open epoch is live again here (revived
        // just above if the same epoch also removed it), so one sweep
        // takes them all out.
        for row in 0..self.rows.len() {
            let slot = &self.rows[row];
            if slot.born == open && slot.tuple.is_some() {
                self.live -= 1;
                self.reclaim(row as Row);
            }
        }
    }

    /// Build the secondary index over `cols` if absent; true if it was
    /// built now (callers meter index builds). Tombstoned rows are
    /// indexed too — they must stay probe-able at snapshot epochs.
    pub fn ensure_index(&mut self, cols: &[usize]) -> bool {
        assert!(
            !cols.is_empty() && cols.iter().all(|&c| c < self.arity),
            "bad index columns {cols:?} for arity {}",
            self.arity
        );
        if self.has_index(cols) {
            return false;
        }
        let mut idx = SecondaryIndex {
            cols: cols.to_vec(),
            buckets: Map::default(),
        };
        for (r, slot) in self.rows.iter().enumerate() {
            if let Some(t) = &slot.tuple {
                idx.insert(t, r as Row);
            }
        }
        self.indices.push(idx);
        true
    }

    fn index(&self, cols: &[usize]) -> Option<&SecondaryIndex> {
        self.indices.iter().find(|i| i.cols == cols)
    }

    pub fn has_index(&self, cols: &[usize]) -> bool {
        self.index(cols).is_some()
    }

    pub fn index_count(&self) -> usize {
        self.indices.len()
    }

    /// The column set of every secondary index, in the order built.
    pub fn index_cols(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.indices.iter().map(|i| i.cols.as_slice())
    }

    /// Total row references held by the index over `cols` (None when the
    /// index does not exist). Counts live *and* tombstoned rows — every
    /// non-vacuumed row appears exactly once.
    pub fn index_entries(&self, cols: &[usize]) -> Option<usize> {
        self.index(cols)
            .map(|i| i.buckets.values().map(Vec::len).sum())
    }

    /// Probe the secondary index over `cols` with `key` (the values of
    /// those columns, in `cols` order), seeing the head extent. `None`
    /// when no such index exists — the caller falls back to a scan.
    pub fn probe(&self, cols: &[usize], key: &[Value]) -> Option<Probe<'_>> {
        self.probe_filtered(cols, key, None)
    }

    /// [`Self::probe`] at a pinned snapshot epoch: the same index, the
    /// same join plans, just a different visibility filter.
    pub fn probe_at(&self, cols: &[usize], key: &[Value], epoch: u64) -> Option<Probe<'_>> {
        self.probe_filtered(cols, key, Some(epoch))
    }

    fn probe_filtered(&self, cols: &[usize], key: &[Value], at: Option<u64>) -> Option<Probe<'_>> {
        let idx = self.index(cols)?;
        let bucket = idx.buckets.get(key).map_or(&[][..], Vec::as_slice);
        Some(Probe {
            rel: self,
            bucket,
            at,
        })
    }

    pub fn contains(&self, t: &[Value]) -> bool {
        self.row_of(t).is_some()
    }

    /// The tuple of a row that [`Self::row_of`] returned, the relation
    /// unwritten since.
    #[allow(clippy::expect_used, reason = "a row stays live until written")]
    pub(crate) fn tuple_at(&self, row: Row) -> &[Value] {
        self.rows[row as usize]
            .tuple
            .as_deref()
            .expect("a live row holds its tuple")
    }

    /// Membership at a pinned snapshot epoch.
    pub fn contains_at(&self, t: &[Value], epoch: u64) -> bool {
        self.chain(tuple_hash(t))
            .any(|(_, s)| s.visible_at(epoch) && s.tuple.as_deref() == Some(t))
    }

    pub fn len(&self) -> usize {
        self.live
    }

    /// Cardinality at a pinned snapshot epoch (O(arena)).
    pub fn len_at(&self, epoch: u64) -> usize {
        self.iter_at(epoch).count()
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.rows.iter().filter_map(|s| {
            if s.live_at_head() {
                s.tuple.as_ref()
            } else {
                None
            }
        })
    }

    /// Tuples visible at a pinned snapshot epoch.
    pub fn iter_at(&self, epoch: u64) -> impl Iterator<Item = &Tuple> + '_ {
        self.rows.iter().filter_map(move |s| {
            if s.visible_at(epoch) {
                s.tuple.as_ref()
            } else {
                None
            }
        })
    }

    /// Tuples in sorted order (deterministic output for tests/display).
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.iter().cloned().collect();
        v.sort();
        v
    }

    /// [`Self::sorted`] at a pinned snapshot epoch.
    pub fn sorted_at(&self, epoch: u64) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.iter_at(epoch).cloned().collect();
        v.sort();
        v
    }
}

impl FromIterator<Tuple> for Relation {
    fn from_iter<T: IntoIterator<Item = Tuple>>(iter: T) -> Self {
        let staged: Vec<Tuple> = iter.into_iter().collect();
        let arity = staged.first().map_or(0, Vec::len);
        let mut rel = Relation::new(arity);
        for t in staged {
            assert_eq!(t.len(), arity, "mixed arities in relation literal");
            rel.insert(t);
        }
        rel
    }
}

/// All predicates and their extents, plus the symbol interner and the
/// published epoch snapshots pin (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct Database {
    pub interner: Interner,
    ids: Map<String, PredId>,
    names: Vec<String>,
    rels: Vec<Relation>,
    /// Last published epoch; mutations stamp at `epoch + 1`.
    epoch: u64,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// The published epoch — what [`Self::publish`] last committed and
    /// what a new snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Commit the open epoch: everything stamped since the previous
    /// publish becomes visible to snapshots pinned from now on, then
    /// each relation vacuums tombstones past the watermark
    /// `min(published, min_pinned)` — pass `u64::MAX` for `min_pinned`
    /// when no snapshot is live. Returns the new published epoch.
    pub fn publish(&mut self, min_pinned: u64) -> u64 {
        self.epoch += 1;
        let watermark = min_pinned.min(self.epoch);
        let open = self.epoch + 1;
        for rel in &mut self.rels {
            rel.set_write_epoch(open);
            rel.vacuum(watermark);
        }
        self.epoch
    }

    /// Discard the open epoch on every relation ([`Relation::abort_epoch`]):
    /// the head returns to the last published cut and the published
    /// epoch does not move. This is how a refused update leaves the
    /// database unchanged.
    pub(crate) fn abort_open_epoch(&mut self) {
        let open = self.epoch + 1;
        for rel in &mut self.rels {
            // Synced first, as in `rel_mut`: a relation stamping behind
            // the open epoch would discard published rows.
            rel.set_write_epoch(open);
            rel.abort_epoch();
        }
    }

    /// Tombstoned rows currently retained for snapshot readers, across
    /// all relations (the `mvcc.rows_retained` gauge).
    pub fn rows_retained(&self) -> usize {
        self.rels.iter().map(Relation::retained).sum()
    }

    /// Register (or fetch) a predicate with the given arity.
    pub fn pred(&mut self, name: &str, arity: usize) -> PredId {
        if let Some(&id) = self.ids.get(name) {
            assert_eq!(
                self.rels[id.index()].arity(),
                arity,
                "predicate {name} arity mismatch"
            );
            return id;
        }
        let id = PredId(self.names.len() as u32);
        self.ids.insert(name.to_string(), id);
        self.names.push(name.to_string());
        // Stamped at the open epoch once written: `rel_mut` and `lend` sync it.
        self.rels.push(Relation::new(arity));
        id
    }

    /// Fetch a registered predicate id.
    pub fn pred_id(&self, name: &str) -> Option<PredId> {
        self.ids.get(name).copied()
    }

    pub fn pred_name(&self, id: PredId) -> &str {
        &self.names[id.index()]
    }

    pub fn pred_count(&self) -> usize {
        self.names.len()
    }

    pub fn rel(&self, id: PredId) -> &Relation {
        &self.rels[id.index()]
    }

    /// Mutable relation access. Re-syncs the relation's write epoch to
    /// the open epoch first, so a relation swapped in wholesale (or a
    /// stale clone) self-heals before its next mutation.
    pub fn rel_mut(&mut self, id: PredId) -> &mut Relation {
        let open = self.epoch + 1;
        let rel = &mut self.rels[id.index()];
        rel.set_write_epoch(open);
        rel
    }

    /// Intern a symbolic constant.
    pub fn sym(&mut self, s: &str) -> Value {
        Value::Sym(self.interner.intern(s))
    }

    /// Convenience: insert a fact given symbol texts.
    pub fn insert_fact(&mut self, pred: &str, args: &[&str]) -> bool {
        let tuple: Tuple = args.iter().map(|a| self.sym(a)).collect();
        let id = self.pred(pred, args.len());
        self.rel_mut(id).insert(tuple)
    }

    /// Convenience: check a fact given symbol texts (false if any symbol
    /// or the predicate is unknown).
    pub fn has_fact(&self, pred: &str, args: &[&str]) -> bool {
        match self.fact_tuple(pred, args) {
            Some((id, tuple)) => self.rel(id).contains(&tuple),
            None => false,
        }
    }

    /// [`Self::has_fact`] at a pinned snapshot epoch.
    pub fn has_fact_at(&self, pred: &str, args: &[&str], epoch: u64) -> bool {
        match self.fact_tuple(pred, args) {
            Some((id, tuple)) => self.rel(id).contains_at(&tuple, epoch),
            None => false,
        }
    }

    fn fact_tuple(&self, pred: &str, args: &[&str]) -> Option<(PredId, Tuple)> {
        let id = self.pred_id(pred)?;
        let mut tuple = Tuple::with_capacity(args.len());
        for a in args {
            tuple.push(Value::Sym(self.interner.get(a)?));
        }
        Some((id, tuple))
    }

    /// Total tuples across all predicates.
    pub fn total_facts(&self) -> usize {
        self.rels.iter().map(Relation::len).sum()
    }

    /// Total tuples visible at a pinned snapshot epoch.
    pub fn total_facts_at(&self, epoch: u64) -> usize {
        self.rels.iter().map(|r| r.len_at(epoch)).sum()
    }

    /// Lend the relations of `heads` (distinct, registered predicates) to
    /// one clique task, each synced to the open epoch here, once.
    pub fn lend(&mut self, heads: &[PredId]) -> Loan<'_> {
        let mut ids = heads.to_vec();
        ids.sort_unstable();
        let open = self.epoch + 1;
        let (mut heads, mut gaps) = (Vec::new(), Vec::new());
        let (mut rest, mut start): (&mut [Relation], usize) = (&mut self.rels, 0);
        for p in ids {
            let (gap, tail) = std::mem::take(&mut rest).split_at_mut(p.index() - start);
            let (head, tail) = tail.split_at_mut(1);
            head[0].set_write_epoch(open);
            gaps.push((start, &*gap));
            heads.push((p, &mut head[0]));
            (rest, start) = (tail, p.index() + 1);
        }
        gaps.push((start, rest));
        Loan { heads, gaps }
    }
}

/// A clique task's hold on a [`Database`] ([`Database::lend`]): its head
/// relations `&mut`, split off the relation vector as `split_at_mut`
/// splits a slice, every other relation only `&` (read through [`Rels`]),
/// the interner and the epoch out of reach. So the compiler keeps a task
/// from writing its inputs, and as nothing moved, a task that unwinds
/// leaves nothing to put back. `heads` ascend by id; `gaps[i]` runs from
/// its stored first id to just before head `i` (the last, to the end), so
/// a binary search finds any relation, with no hashing and no allocation.
pub struct Loan<'a> {
    heads: Vec<(PredId, &'a mut Relation)>,
    gaps: Vec<(usize, &'a [Relation])>,
}

impl Rels for Loan<'_> {
    fn relation(&self, p: PredId) -> &Relation {
        match self.heads.binary_search_by_key(&p, |(h, _)| *h) {
            Ok(i) => self.heads[i].1,
            Err(i) => &self.gaps[i].1[p.index() - self.gaps[i].0],
        }
    }
}

impl Loan<'_> {
    /// A lent head, to write. Panics on any other predicate: a task writes
    /// only its own clique.
    pub fn head_mut(&mut self, p: PredId) -> &mut Relation {
        match self.heads.binary_search_by_key(&p, |(h, _)| *h) {
            Ok(i) => self.heads[i].1,
            Err(_) => panic!("{p:?} is not lent to this task"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::HashSet;

    thread_local! {
        /// ANDed onto every tuple hash this thread computes: a test narrows
        /// it so that chains hold several different tuples.
        pub(super) static HASH_MASK: Cell<u64> = const { Cell::new(u64::MAX) };
    }

    #[test]
    fn relation_set_semantics() {
        let mut r = Relation::new(2);
        let t = vec![Value::Int(1), Value::Int(2)];
        assert!(r.insert(t.clone()));
        assert!(!r.insert(t.clone()));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&t));
        assert!(r.remove(&t));
        assert!(!r.remove(&t));
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked_on_insert() {
        let mut r = Relation::new(2);
        r.insert(vec![Value::Int(1)]);
    }

    #[test]
    fn database_registers_and_reuses_preds() {
        let mut db = Database::new();
        let p1 = db.pred("edge", 2);
        let p2 = db.pred("edge", 2);
        assert_eq!(p1, p2);
        assert_eq!(db.pred_name(p1), "edge");
        assert_eq!(db.pred_count(), 1);
    }

    #[test]
    fn fact_roundtrip() {
        let mut db = Database::new();
        assert!(db.insert_fact("edge", &["a", "b"]));
        assert!(!db.insert_fact("edge", &["a", "b"]));
        assert!(db.has_fact("edge", &["a", "b"]));
        assert!(!db.has_fact("edge", &["b", "a"]));
        assert!(!db.has_fact("nope", &["a"]));
        assert!(!db.has_fact("edge", &["a", "unseen"]));
        assert_eq!(db.total_facts(), 1);
    }

    #[test]
    fn secondary_index_probes_any_column_set() {
        let mut r = Relation::new(3);
        for (a, b, c) in [(1, 10, 100), (1, 11, 100), (2, 10, 200), (2, 10, 100)] {
            r.insert(vec![Value::Int(a), Value::Int(b), Value::Int(c)]);
        }
        assert!(r.probe(&[1, 2], &[Value::Int(10), Value::Int(100)]).is_none());
        assert!(r.ensure_index(&[1, 2]));
        assert!(!r.ensure_index(&[1, 2]), "second ensure is a no-op");
        let p = r.probe(&[1, 2], &[Value::Int(10), Value::Int(100)]).unwrap();
        assert_eq!(p.len(), 2, "(1,10,100) and (2,10,100)");
        let mut seen: Vec<Tuple> = p.iter().cloned().collect();
        seen.sort();
        assert_eq!(seen[0][0], Value::Int(1));
        assert_eq!(seen[1][0], Value::Int(2));
        let empty = r.probe(&[1, 2], &[Value::Int(99), Value::Int(1)]).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn secondary_index_maintained_on_mutation() {
        let mut r = Relation::new(2);
        r.ensure_index(&[1]);
        r.insert(vec![Value::Int(1), Value::Int(7)]);
        r.insert(vec![Value::Int(2), Value::Int(7)]);
        assert_eq!(r.probe(&[1], &[Value::Int(7)]).unwrap().len(), 2);
        assert!(r.remove(&[Value::Int(1), Value::Int(7)]));
        assert_eq!(r.probe(&[1], &[Value::Int(7)]).unwrap().len(), 1);
        // The tombstone stays indexed (snapshot readers may need it)
        // until a vacuum past its death epoch reclaims the slot.
        assert_eq!(r.index_entries(&[1]), Some(2));
        assert_eq!(r.retained(), 1);
        assert_eq!(r.vacuum(u64::MAX), 1);
        assert_eq!(r.index_entries(&[1]), Some(1));
        // The freed arena slot is reused; indices stay consistent.
        let before = r.arena_len();
        r.insert(vec![Value::Int(3), Value::Int(8)]);
        assert_eq!(r.arena_len(), before, "vacuumed slot recycled");
        assert_eq!(r.probe(&[1], &[Value::Int(8)]).unwrap().len(), 1);
        assert_eq!(r.index_entries(&[1]), Some(2));
    }

    #[test]
    fn duplicate_insert_and_missing_remove_leave_indices_untouched() {
        // The single-hash guarantee: a duplicate insert (or a miss remove)
        // must not disturb any index bucket — the extent is consulted
        // first and indices are only touched on actual change.
        let mut r = Relation::new(2);
        r.ensure_index(&[0]);
        r.ensure_index(&[1]);
        let t = vec![Value::Int(4), Value::Int(5)];
        assert!(r.insert(t.clone()));
        let before_0 = r.index_entries(&[0]);
        let before_1 = r.index_entries(&[1]);
        assert!(!r.insert(t.clone()), "duplicate insert");
        assert_eq!(r.index_entries(&[0]), before_0);
        assert_eq!(r.index_entries(&[1]), before_1);
        assert_eq!(r.len(), 1);
        assert!(!r.remove(&[Value::Int(9), Value::Int(9)]), "missing remove");
        assert_eq!(r.index_entries(&[0]), before_0);
        assert_eq!(r.index_entries(&[1]), before_1);
        assert!(r.contains(&t));
    }

    #[test]
    fn clone_carries_indices() {
        let mut r = Relation::new(2);
        r.ensure_index(&[1]);
        r.insert(vec![Value::Int(1), Value::Int(2)]);
        let mut c = r.clone();
        assert!(c.has_index(&[1]));
        assert_eq!(c.probe(&[1], &[Value::Int(2)]).unwrap().len(), 1);
        c.insert(vec![Value::Int(3), Value::Int(2)]);
        assert_eq!(c.probe(&[1], &[Value::Int(2)]).unwrap().len(), 2);
        assert_eq!(r.probe(&[1], &[Value::Int(2)]).unwrap().len(), 1);
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut r = Relation::new(1);
        r.insert(vec![Value::Int(3)]);
        r.insert(vec![Value::Int(1)]);
        r.insert(vec![Value::Int(2)]);
        assert_eq!(
            r.sorted(),
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)]
            ]
        );
    }

    #[test]
    fn snapshot_visibility_tracks_epochs() {
        let mut r = Relation::new(1);
        let t1 = vec![Value::Int(1)];
        let t2 = vec![Value::Int(2)];
        r.insert(t1.clone()); // born 1
        r.set_write_epoch(2); // "publish" epoch 1
        r.remove(&t1); // died 2
        r.insert(t2.clone()); // born 2
        // Head: only t2.
        assert!(!r.contains(&t1));
        assert!(r.contains(&t2));
        // Snapshot at epoch 1: only t1 (pre-publish cut).
        assert!(r.contains_at(&t1, 1));
        assert!(!r.contains_at(&t2, 1));
        assert_eq!(r.sorted_at(1), vec![t1.clone()]);
        // Snapshot at epoch 2: only t2.
        assert!(!r.contains_at(&t1, 2));
        assert!(r.contains_at(&t2, 2));
        // Epoch 0 predates everything.
        assert_eq!(r.len_at(0), 0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_slot_is_a_tuple_two_stamps_and_two_links() {
        // The tuple's `Vec` (24), `born` and `died` (8 each), `dying_pos`
        // and `next` (4 each): nothing else rides a row.
        assert_eq!(std::mem::size_of::<Slot>(), 48);
    }

    #[test]
    fn vacuum_respects_watermark() {
        let mut r = Relation::new(1);
        let t = vec![Value::Int(7)];
        r.insert(t.clone()); // born 1
        r.set_write_epoch(2);
        r.remove(&t); // died 2
        assert_eq!(r.retained(), 1);
        // A snapshot pinned at epoch 1 can still see the row: a vacuum
        // at watermark 1 must keep it.
        assert_eq!(r.vacuum(1), 0);
        assert!(r.contains_at(&t, 1));
        // Once the minimum pin moves to 2, the row is invisible at every
        // reachable epoch and gets reclaimed.
        assert_eq!(r.vacuum(2), 1);
        assert_eq!(r.retained(), 0);
        assert!(!r.contains_at(&t, 1), "vacuumed row is gone everywhere");
        assert_eq!(r.free.len(), 1);
    }

    #[test]
    fn reinsert_in_the_tombstoning_epoch_revives_the_row() {
        let mut r = Relation::new(1);
        r.ensure_index(&[0]);
        let t = vec![Value::Int(5)];
        let key = [Value::Int(5)];
        r.insert(t.clone()); // born 1
        r.set_write_epoch(2);
        let seen_at_1 = |r: &Relation| {
            r.contains_at(&t, 1) && r.probe_at(&[0], &key, 1).unwrap().len() == 1
        };
        assert!(seen_at_1(&r), "before");
        r.remove(&t); // died 2
        assert_eq!(r.retained(), 1);
        assert!(seen_at_1(&r), "during");
        assert!(r.insert(t.clone()), "back in the head extent");
        assert!(seen_at_1(&r), "after");
        // The same row, not a second one: nothing was allocated, indexed
        // or retained.
        assert_eq!((r.len(), r.arena_len(), r.retained()), (1, 1, 0));
        assert_eq!(r.index_entries(&[0]), Some(1));
        assert_eq!(r.probe(&[0], &key).unwrap().len(), 1);
        assert!(r.contains_at(&t, 2), "and it lives on through epoch 2");
        assert!(!r.insert(t.clone()), "a duplicate again");
        // Nothing is left for the vacuum, now or after the epoch closes.
        r.set_write_epoch(3);
        assert_eq!(r.vacuum(u64::MAX), 0);
        assert!(r.contains(&t));
    }

    #[test]
    fn reinsert_after_a_published_tombstone_is_one_row_per_epoch() {
        let mut r = Relation::new(1);
        r.ensure_index(&[0]);
        let t = vec![Value::Int(5)];
        r.insert(t.clone()); // born 1
        r.set_write_epoch(2);
        r.remove(&t); // died 2
        r.set_write_epoch(3); // "publish" epoch 2: the tombstone is final
        r.insert(t.clone()); // born 3, new row
        assert_eq!((r.len(), r.arena_len(), r.retained()), (1, 2, 1));
        // Exactly one visible match at head and at each epoch, even
        // though the arena and index hold two rows for the tuple.
        assert_eq!(r.probe(&[0], &[Value::Int(5)]).unwrap().len(), 1);
        assert_eq!(r.probe_at(&[0], &[Value::Int(5)], 1).unwrap().len(), 1);
        assert_eq!(r.probe_at(&[0], &[Value::Int(5)], 2).unwrap().len(), 0);
        assert_eq!(r.probe_at(&[0], &[Value::Int(5)], 3).unwrap().len(), 1);
        assert_eq!(r.index_entries(&[0]), Some(2));
        assert!(r.contains_at(&t, 1));
        assert!(!r.contains_at(&t, 2));
        assert!(r.contains_at(&t, 3));
    }

    #[test]
    fn database_publish_bumps_epoch_and_vacuums() {
        let mut db = Database::new();
        db.insert_fact("edge", &["a", "b"]); // born 1
        assert_eq!(db.epoch(), 0);
        assert!(!db.has_fact_at("edge", &["a", "b"], 0), "not yet published");
        assert_eq!(db.publish(u64::MAX), 1);
        assert!(db.has_fact_at("edge", &["a", "b"], 1));

        let id = db.pred_id("edge").unwrap();
        let t: Tuple = vec![
            Value::Sym(db.interner.get("a").unwrap()),
            Value::Sym(db.interner.get("b").unwrap()),
        ];
        db.rel_mut(id).remove(&t); // died 2
        assert!(db.has_fact_at("edge", &["a", "b"], 1), "pinned cut intact");
        // Publish with a reader still pinned at epoch 1: tombstone kept.
        assert_eq!(db.publish(1), 2);
        assert_eq!(db.rows_retained(), 1);
        assert!(db.has_fact_at("edge", &["a", "b"], 1));
        assert!(!db.has_fact_at("edge", &["a", "b"], 2));
        // Reader gone: next publish reclaims.
        db.publish(u64::MAX);
        assert_eq!(db.rows_retained(), 0);
        assert_eq!(db.total_facts(), 0);
    }

    /// Everything a caller can see of a relation, order-free.
    #[derive(Debug, PartialEq)]
    struct Observed {
        sorted: Vec<Tuple>,
        len: usize,
        members: Vec<bool>,
        probes: Vec<Vec<Tuple>>,
        index_entries: [Option<usize>; 2],
        retained: usize,
        pinned_view: Option<Vec<Tuple>>,
    }

    const DOMAIN: i64 = 4;

    fn observe(r: &Relation, pinned: Option<u64>) -> Observed {
        let pair = |a: i64, b: i64| vec![Value::Int(a), Value::Int(b)];
        let mut probes = Vec::new();
        for cols in [[0usize], [1]] {
            for k in 0..DOMAIN {
                let mut hit: Vec<Tuple> =
                    r.probe(&cols, &[Value::Int(k)]).unwrap().iter().cloned().collect();
                hit.sort();
                probes.push(hit);
            }
        }
        Observed {
            sorted: r.sorted(),
            len: r.len(),
            members: (0..DOMAIN * DOMAIN)
                .map(|i| r.contains(&pair(i / DOMAIN, i % DOMAIN)))
                .collect(),
            probes,
            index_entries: [r.index_entries(&[0]), r.index_entries(&[1])],
            retained: r.retained(),
            pinned_view: pinned.map(|e| r.sorted_at(e)),
        }
    }

    /// Op code of a publish; 0–3 insert, 4–7 remove, 8–9 churn.
    const PUBLISH: u8 = 10;

    /// One random op against the database and the set model: codes 0–3
    /// insert, 4–7 remove, 8 takes one tuple out, back in and out again,
    /// 9 puts it back once more, [`PUBLISH`] publishes — pinning the new
    /// epoch when `a` is odd and nothing is pinned, else releasing the
    /// pin.
    fn step(
        db: &mut Database,
        id: PredId,
        model: &mut HashSet<Tuple>,
        pinned: &mut Option<u64>,
        (code, a, b): (u8, i64, i64),
    ) {
        let t = vec![Value::Int(a), Value::Int(b)];
        // `true` inserts `t`, `false` removes it.
        let ops: &[bool] = match code {
            0..=3 => &[true],
            4..=7 => &[false],
            8 => &[false, true, false],
            9 => &[false, true, false, true],
            _ => {
                let epoch = db.publish(pinned.unwrap_or(u64::MAX));
                *pinned = (pinned.is_none() && a % 2 == 1).then_some(epoch);
                db.rel(id).check_accounting();
                &[]
            }
        };
        for &adding in ops {
            if adding {
                assert_eq!(db.rel_mut(id).insert(t.clone()), model.insert(t.clone()));
            } else {
                assert_eq!(db.rel_mut(id).remove(&t), model.remove(&t));
            }
            db.rel(id).check_accounting();
        }
    }

    /// `abort_open_epoch` against a model: whatever ran before the last
    /// publish (re-inserts over tombstones of the same epoch and of earlier
    /// ones, vacuums, a pinned reader or none) and whatever the open epoch
    /// then did, the abort leaves every observable what it was at that
    /// publish, and the relation keeps behaving like a set afterwards.
    fn abort_epoch_case(
        committed: Vec<(u8, i64, i64)>,
        pin_last: bool,
        aborted: Vec<(u8, i64, i64)>,
        after: Vec<(u8, i64, i64)>,
    ) -> Result<(), TestCaseError> {
        let mut db = Database::new();
        let id = db.pred("r", 2);
        db.rel_mut(id).ensure_index(&[0]);
        db.rel_mut(id).ensure_index(&[1]);
        let mut model = HashSet::new();
        let mut pinned = None;
        for op in committed {
            step(&mut db, id, &mut model, &mut pinned, op);
        }
        step(&mut db, id, &mut model, &mut pinned, (PUBLISH, i64::from(pin_last), 0));
        let want = observe(db.rel(id), pinned);

        let mut scratch = model.clone();
        for op in aborted {
            step(&mut db, id, &mut scratch, &mut pinned, op);
        }
        db.abort_open_epoch();
        prop_assert_eq!(observe(db.rel(id), pinned), want);
        prop_assert_eq!(db.rel(id).sorted_at(db.epoch()), db.rel(id).sorted());
        // Aborted rows are on the free list, not leaked.
        db.rel(id).check_accounting();

        let sorted = |model: &HashSet<Tuple>| {
            let mut v: Vec<Tuple> = model.iter().cloned().collect();
            v.sort();
            v
        };
        for op in after {
            step(&mut db, id, &mut model, &mut pinned, op);
            prop_assert_eq!(db.rel(id).len(), model.len());
            prop_assert_eq!(db.rel(id).sorted(), sorted(&model));
        }

        // With the open epoch closed and the reader gone, a vacuum at
        // the watermark reclaims every retained row and no live one.
        let watermark = db.publish(pinned.unwrap_or(u64::MAX));
        let retained = db.rel(id).retained();
        prop_assert_eq!(db.rel_mut(id).vacuum(watermark), retained);
        let r = db.rel(id);
        r.check_accounting();
        prop_assert_eq!(r.retained(), 0);
        prop_assert_eq!(r.sorted(), sorted(&model));
        Ok(())
    }

    /// Narrows this thread's tuple hashes until dropped.
    struct NarrowHash;

    impl NarrowHash {
        fn to(mask: u64) -> NarrowHash {
            HASH_MASK.set(mask);
            NarrowHash
        }
    }

    impl Drop for NarrowHash {
        fn drop(&mut self) {
            HASH_MASK.set(u64::MAX);
        }
    }

    proptest! {
        #[test]
        fn abort_epoch_restores_the_published_cut(
            committed in proptest::collection::vec((0..=PUBLISH, 0..DOMAIN, 0..DOMAIN), 0..40),
            pin_last in any::<bool>(),
            aborted in proptest::collection::vec((0..PUBLISH, 0..DOMAIN, 0..DOMAIN), 0..30),
            after in proptest::collection::vec((0..=PUBLISH, 0..DOMAIN, 0..DOMAIN), 0..40),
        ) {
            abort_epoch_case(committed, pin_last, aborted, after)?;
        }

        /// The same, with two bits of hash: the sixteen tuples share four
        /// chains, so a chain holds several different tuples (and several
        /// versions of each) and rows are unlinked from its head, its
        /// middle and its tail.
        #[test]
        fn abort_epoch_restores_the_published_cut_on_shared_chains(
            committed in proptest::collection::vec((0..=PUBLISH, 0..DOMAIN, 0..DOMAIN), 0..40),
            pin_last in any::<bool>(),
            aborted in proptest::collection::vec((0..PUBLISH, 0..DOMAIN, 0..DOMAIN), 0..30),
            after in proptest::collection::vec((0..=PUBLISH, 0..DOMAIN, 0..DOMAIN), 0..40),
        ) {
            let _narrow = NarrowHash::to(0b11);
            abort_epoch_case(committed, pin_last, aborted, after)?;
        }
    }
}
