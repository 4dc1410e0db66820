//! Concurrent snapshot readers over the epoch-versioned database.
//!
//! The arena in [`crate::rel`] stamps every row with `born`/`died`
//! epochs; this module adds the machinery that makes those stamps a
//! *servable* MVCC story:
//!
//! * [`PinRegistry`] — a lock-free table of pinned epochs. Pinning is
//!   one CAS, unpinning one store, and the reclamation watermark (the
//!   minimum pinned epoch) is a wait-free scan. The writer consults it
//!   at every publish to decide which tombstones are safe to recycle.
//! * [`ReaderHandle`] — a cloneable, `Send + Sync` capability to mint
//!   snapshots from any thread while the owning engine keeps mutating.
//! * [`Snapshot`] — a pinned epoch plus shared database access. Every
//!   read (point lookup, pattern query, full image) filters rows by the
//!   pinned epoch, so the view is the last *published* cut — bit-stable
//!   for the snapshot's whole lifetime, no matter how many maintenance
//!   cascades commit meanwhile. Dropping the snapshot unpins.
//!
//! Readers take the [`RwLock`] in read mode per operation (never across
//! operations), so they interleave with the writer at its task
//! boundaries; *consistency* comes from the epoch filter, not from lock
//! tenure. The lock only arbitrates access to the unsynchronized
//! interior structures (hash maps, arenas) — it is a concurrency
//! primitive, not the isolation mechanism.
//!
//! **Sharded runtimes** extend the guarantee across engines: the
//! sharded coordinator (`crate::shard`) calls each shard's publish
//! strictly after the whole batch converges on *every* shard, and an
//! aborted batch publishes on none (every shard aborts its open epoch).
//! Per-shard epoch streams therefore stay aligned — epoch `E` names
//! the same committed batch on every shard — and a snapshot pinned at
//! `E` on any shard never observes a partially-failed batch
//! (DESIGN.md § 15).

use crate::query::{parse_pattern, query_at, render};
use crate::rel::{Database, PredId};
use incr_obs::Counter;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Slot sentinel: no epoch pinned. Epochs are publish counters and can
/// never reach `u64::MAX` in practice.
const EMPTY: u64 = u64::MAX;

/// Default pin capacity — the hard bound on concurrently live snapshots.
const DEFAULT_PINS: usize = 512;

/// Lock-free registry of pinned epochs.
///
/// Fixed-capacity so the whole structure is a flat `Vec<AtomicU64>`:
/// `pin` CASes an `EMPTY` slot to the epoch, `unpin` stores `EMPTY`
/// back, and `min_pinned` is a plain scan. No allocation, no locks, no
/// epoch-GC dependency — exhaustion (more than `capacity` simultaneous
/// snapshots) panics with a clear message rather than silently blocking
/// the writer's reclamation.
pub struct PinRegistry {
    slots: Vec<AtomicU64>,
}

impl Default for PinRegistry {
    fn default() -> Self {
        PinRegistry::with_capacity(DEFAULT_PINS)
    }
}

impl PinRegistry {
    pub fn new() -> Self {
        PinRegistry::default()
    }

    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "pin registry needs at least one slot");
        PinRegistry {
            slots: (0..capacity).map(|_| AtomicU64::new(EMPTY)).collect(),
        }
    }

    /// Pin `epoch`, returning the slot to pass to [`Self::unpin`].
    pub fn pin(&self, epoch: u64) -> usize {
        assert_ne!(epoch, EMPTY, "epoch space exhausted");
        for (i, slot) in self.slots.iter().enumerate() {
            if slot
                .compare_exchange(EMPTY, epoch, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return i;
            }
        }
        panic!(
            "snapshot pin capacity exhausted ({} concurrent snapshots)",
            self.slots.len()
        );
    }

    pub fn unpin(&self, slot: usize) {
        self.slots[slot].store(EMPTY, Ordering::Release);
    }

    /// The reclamation watermark: the minimum pinned epoch, or
    /// `u64::MAX` when nothing is pinned (then only the published bound
    /// limits the vacuum).
    pub fn min_pinned(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .min()
            .unwrap_or(EMPTY)
    }

    /// Currently pinned snapshots (the `mvcc.pinned_epochs` gauge).
    pub fn pinned_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Acquire) != EMPTY)
            .count()
    }
}

/// The shared database cell: an [`RwLock`] plus writer preference.
///
/// glibc's rwlock admits new readers while a writer waits, so a pool of
/// spinning snapshot readers can starve the maintenance loop (which
/// re-acquires the write lock at every scheduler task) down to a few
/// percent of its exclusive rate. `DbCell` fixes the policy in
/// userspace: the writer raises `writer_waiting` while it acquires, and
/// readers yield until the flag drops, so the writer only ever waits
/// for the readers already inside. One writer at a time (the engine
/// requires `&mut self` to update), so a plain flag suffices.
///
/// Both paths recover poisoned guards: the engine only ever stamps at
/// the open epoch, so a panic mid-write leaves state an epoch abort (or
/// teardown) discards — readers keep serving the last published cut
/// either way.
pub struct DbCell {
    lock: RwLock<Database>,
    writer_waiting: AtomicBool,
}

impl DbCell {
    pub(crate) fn new(db: Database) -> DbCell {
        DbCell {
            lock: RwLock::new(db),
            writer_waiting: AtomicBool::new(false),
        }
    }

    /// Shared read access; defers to an acquiring writer.
    pub fn read(&self) -> RwLockReadGuard<'_, Database> {
        while self.writer_waiting.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        self.lock.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive write access; backs concurrent readers off while
    /// acquiring.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Database> {
        self.writer_waiting.store(true, Ordering::Release);
        let guard = self.lock.write().unwrap_or_else(PoisonError::into_inner);
        self.writer_waiting.store(false, Ordering::Release);
        guard
    }
}

/// A cloneable, thread-safe capability to open [`Snapshot`]s of an
/// engine's database. Obtained from
/// [`crate::IncrementalEngine::reader`]; hand clones to as many reader
/// threads as you like.
#[derive(Clone)]
pub struct ReaderHandle {
    db: Arc<DbCell>,
    pins: Arc<PinRegistry>,
    snapshots_opened: Arc<Counter>,
    reads: Arc<Counter>,
}

impl ReaderHandle {
    pub(crate) fn new(db: Arc<DbCell>, pins: Arc<PinRegistry>) -> ReaderHandle {
        let reg = incr_obs::registry();
        ReaderHandle {
            db,
            pins,
            snapshots_opened: reg.counter("mvcc.snapshots_opened"),
            reads: reg.counter("mvcc.snapshot_reads"),
        }
    }

    /// Pin the current published epoch and return a consistent-cut
    /// handle. The pin happens under a read lock, so a concurrent
    /// publish cannot slip a vacuum between reading the epoch and
    /// pinning it.
    pub fn snapshot(&self) -> Snapshot {
        let (epoch, slot) = {
            let db = self.db.read();
            let epoch = db.epoch();
            (epoch, self.pins.pin(epoch))
        };
        self.snapshots_opened.inc();
        Snapshot {
            db: self.db.clone(),
            pins: self.pins.clone(),
            slot,
            epoch,
            reads: self.reads.clone(),
        }
    }

    /// Currently pinned snapshots.
    pub fn pinned_count(&self) -> usize {
        self.pins.pinned_count()
    }

    /// The reclamation watermark (`u64::MAX` when nothing is pinned).
    pub fn min_pinned(&self) -> u64 {
        self.pins.min_pinned()
    }
}

/// A pinned, consistent read view of the database at one published
/// epoch. Every method takes the shared lock briefly and returns owned
/// data; the view cannot change while the snapshot lives, and the
/// pinned epoch blocks row reclamation that could alias its tuples.
pub struct Snapshot {
    db: Arc<DbCell>,
    pins: Arc<PinRegistry>,
    slot: usize,
    epoch: u64,
    reads: Arc<Counter>,
}

impl Snapshot {
    /// The epoch this snapshot is pinned at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn db(&self) -> RwLockReadGuard<'_, Database> {
        self.reads.inc();
        self.db.read()
    }

    /// Point lookup: does `pred(args…)` hold at the pinned epoch
    /// (symbols only)?
    pub fn has(&self, pred: &str, args: &[&str]) -> bool {
        self.db().has_fact_at(pred, args, self.epoch)
    }

    /// Cardinality of `pred` at the pinned epoch.
    pub fn count(&self, pred: &str) -> usize {
        let db = self.db();
        db.pred_id(pred).map_or(0, |p| db.rel(p).len_at(self.epoch))
    }

    /// Total facts at the pinned epoch.
    pub fn total_facts(&self) -> usize {
        self.db().total_facts_at(self.epoch)
    }

    /// Pattern query (`path(a, ?)`) against the pinned cut: a scan of
    /// the predicate's rows visible at the pinned epoch, filtered by the
    /// pattern, rendered and sorted — the head query's scan with a
    /// different visibility filter.
    pub fn query(&self, pattern: &str) -> Result<Vec<String>, String> {
        let (pred, pats) = parse_pattern(pattern)?;
        let db = self.db();
        let rows = query_at(&db, &pred, &pats, self.epoch)?;
        Ok(render(&db, &rows))
    }

    /// Every fact at the pinned epoch as sorted `pred(args…)` lines —
    /// the bit-identical yardstick the isolation tests compare.
    pub fn image(&self) -> Vec<String> {
        self.db().image_at(Some(self.epoch))
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.pins.unpin(self.slot);
    }
}

impl Database {
    /// Render every fact as sorted `pred(args…)` lines, at head
    /// (`at == None`) or at a snapshot epoch. Lives here (not in the
    /// query layer) so head and snapshot images share one definition.
    pub fn image_at(&self, at: Option<u64>) -> Vec<String> {
        let mut out = Vec::new();
        for i in 0..self.pred_count() {
            let id = PredId(i as u32);
            let rel = self.rel(id);
            let name = self.pred_name(id);
            let rows = match at {
                None => rel.sorted(),
                Some(e) => rel.sorted_at(e),
            };
            for t in rows {
                out.push(format!("{name}{}", self.interner.display_tuple(&t)));
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_registry_tracks_minimum() {
        let p = PinRegistry::with_capacity(4);
        assert_eq!(p.min_pinned(), u64::MAX);
        assert_eq!(p.pinned_count(), 0);
        let a = p.pin(7);
        let b = p.pin(3);
        let c = p.pin(9);
        assert_eq!(p.pinned_count(), 3);
        assert_eq!(p.min_pinned(), 3);
        p.unpin(b);
        assert_eq!(p.min_pinned(), 7);
        p.unpin(a);
        p.unpin(c);
        assert_eq!(p.min_pinned(), u64::MAX);
        assert_eq!(p.pinned_count(), 0);
    }

    #[test]
    fn pin_slots_are_reused_after_unpin() {
        let p = PinRegistry::with_capacity(2);
        let a = p.pin(1);
        let b = p.pin(2);
        p.unpin(a);
        let c = p.pin(5);
        assert_eq!(p.pinned_count(), 2);
        assert_eq!(p.min_pinned(), 2);
        p.unpin(b);
        p.unpin(c);
    }

    #[test]
    #[should_panic(expected = "pin capacity exhausted")]
    fn pin_exhaustion_is_loud() {
        let p = PinRegistry::with_capacity(1);
        let _a = p.pin(1);
        let _b = p.pin(2);
    }

    #[test]
    fn concurrent_pins_never_collide() {
        let p = std::sync::Arc::new(PinRegistry::with_capacity(64));
        let handles: Vec<_> = (0..8)
            .map(|k| {
                let p = p.clone();
                std::thread::spawn(move || {
                    let mut slots = Vec::new();
                    for i in 0..8u64 {
                        slots.push((p.pin(10 + k + i), 10 + k + i));
                    }
                    slots
                })
            })
            .collect();
        let all: Vec<(usize, u64)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("pinner thread"))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for &(slot, _) in &all {
            assert!(seen.insert(slot), "slot {slot} handed out twice");
        }
        assert_eq!(p.pinned_count(), 64);
        assert_eq!(p.min_pinned(), all.iter().map(|&(_, e)| e).min().unwrap());
        for (slot, _) in all {
            p.unpin(slot);
        }
        assert_eq!(p.pinned_count(), 0);
    }
}
