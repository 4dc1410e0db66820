//! Update coalescing for streams of base-table edits.
//!
//! A stream of k tiny updates pays k full DRed cascades if applied one at
//! a time. [`DeltaQueue`] merges queued edits into one *net* delta before
//! anything propagates: opposing insert/delete pairs on the same tuple
//! cancel, duplicate inserts (and deletes) dedupe, and what remains is
//! applied as a single [`crate::IncrementalEngine::update`] whose cost
//! tracks the true diff, not the raw change volume (cf. *Optimised
//! Maintenance of Datalog Materialisations*).
//!
//! Coalescing rules (set semantics make these exact, not heuristic):
//!
//! * With a **membership oracle** (the engine's own path,
//!   [`crate::IncrementalEngine::enqueue`]): the queue is kept as the exact
//!   diff against the live database. An edit that would restore a tuple's
//!   current membership *cancels* the queued opposing edit (both vanish);
//!   an edit that re-states the effective membership is *deduped*. Drained
//!   edits therefore never contain apply-time no-ops.
//! * **Oracle-free** ([`DeltaQueue::push`]): last-op-wins per tuple. A
//!   later opposing edit *supersedes* the queued one (counted as
//!   cancelled); a same-kind repeat dedupes. Correctness then rests on the
//!   engine's apply-time no-op detection — the final edit per tuple is
//!   exactly what a serial application would have left the base table
//!   with, so the net delta (and hence the materialization) is identical.
//!
//! Each drained-and-applied batch is also the stream's MVCC **publish
//! point**: a successful [`crate::IncrementalEngine::update`] publishes
//! one epoch, so snapshot readers observe whole coalesced batches —
//! never a half-applied net delta (see `engine::publish`).

use crate::engine::FactEdit;
use crate::hash::Map;
use incr_obs::registry;

/// Key identifying one base tuple in queue space (pre-interning).
type Key = (String, Vec<String>);

#[derive(Clone, Copy)]
struct Slot {
    /// Index into `order` that is allowed to emit this key on drain.
    pos: usize,
    adding: bool,
}

/// A queue of base-table edits that coalesces to the net delta.
///
/// Edits accumulate across any number of logical updates; [`Self::drain`]
/// yields one merged edit list (first-touch order preserved) that a single
/// engine update applies — one scheduler `start`, one cascade, for the
/// whole burst.
#[derive(Default)]
pub struct DeltaQueue {
    slots: Map<Key, Slot>,
    order: Vec<Key>,
    /// Logical updates absorbed since the last drain.
    updates: usize,
    /// Raw edits pushed since the last drain.
    edits_in: usize,
    cancelled: u64,
    deduped: u64,
}

impl DeltaQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pending net edits (tuples that still differ from the queue's view
    /// of the base state).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Logical updates absorbed since the last drain (see
    /// [`Self::end_update`]).
    pub fn updates_queued(&self) -> usize {
        self.updates
    }

    /// Raw edits pushed since the last drain.
    pub fn edits_queued(&self) -> usize {
        self.edits_in
    }

    /// Opposing insert/delete pairs annihilated (or superseded) so far.
    /// Each counted pair is two edits that will never propagate.
    pub fn cancelled_pairs(&self) -> u64 {
        self.cancelled
    }

    /// Edits dropped because they re-stated the queued/effective
    /// membership (duplicate inserts, duplicate deletes, exact no-ops).
    pub fn deduped(&self) -> u64 {
        self.deduped
    }

    /// Mark the end of one logical update's worth of pushes. Only
    /// bookkeeping — lets reports say "k updates coalesced into one".
    pub fn end_update(&mut self) {
        self.updates += 1;
    }

    /// Queue one edit with last-op-wins semantics (no membership oracle).
    pub fn push(&mut self, edit: FactEdit) {
        self.push_inner(edit, None);
    }

    /// Queue one edit given the tuple's *current* base-table membership
    /// (`present`). Keeps the queue as the exact diff against that state:
    /// restoring edits cancel, re-stating edits dedupe.
    pub fn push_with_presence(&mut self, edit: FactEdit, present: bool) {
        self.push_inner(edit, Some(present));
    }

    fn push_inner(&mut self, edit: FactEdit, present: Option<bool>) {
        self.edits_in += 1;
        let (pred, args, adding) = match edit {
            FactEdit::Add { pred, args } => (pred, args, true),
            FactEdit::Remove { pred, args } => (pred, args, false),
        };
        let key = (pred, args);
        match (self.slots.get(&key).copied(), present) {
            // Same desired state as the queued edit: duplicate.
            (Some(s), _) if s.adding == adding => {
                self.deduped += 1;
                registry().counter("datalog.coalesce.deduped").inc();
            }
            // Opposing edit with a known base state: the pair nets to
            // zero against the database — annihilate both.
            (Some(_), Some(_)) => {
                self.slots.remove(&key);
                self.cancelled += 1;
                registry().counter("datalog.coalesce.cancelled").inc();
            }
            // Opposing edit, membership unknown: the later op wins; the
            // queued one will never propagate.
            (Some(s), None) => {
                self.slots.insert(key, Slot { pos: s.pos, adding });
                self.cancelled += 1;
                registry().counter("datalog.coalesce.cancelled").inc();
            }
            // Fresh tuple, but the edit re-states current membership:
            // apply-time no-op, drop it here instead.
            (None, Some(p)) if p == adding => {
                self.deduped += 1;
                registry().counter("datalog.coalesce.deduped").inc();
            }
            // Fresh tuple with a real (or potentially real) change.
            (None, _) => {
                let pos = self.order.len();
                self.order.push(key.clone());
                self.slots.insert(key, Slot { pos, adding });
            }
        }
    }

    /// Drain the net delta as a flat edit list, first-touch order, and
    /// reset the per-burst bookkeeping (cumulative cancel/dedupe counters
    /// are preserved). Returns `(edits, updates_absorbed)`.
    pub fn drain(&mut self) -> (Vec<FactEdit>, usize) {
        let mut out = Vec::with_capacity(self.slots.len());
        for (pos, key) in self.order.iter().enumerate() {
            let Some(s) = self.slots.get(key) else {
                continue; // cancelled out
            };
            if s.pos != pos {
                continue; // re-queued later; that occurrence emits it
            }
            let (pred, args) = key.clone();
            out.push(if s.adding {
                FactEdit::Add { pred, args }
            } else {
                FactEdit::Remove { pred, args }
            });
        }
        let updates = self.updates;
        self.slots.clear();
        self.order.clear();
        self.updates = 0;
        self.edits_in = 0;
        (out, updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(t: &str) -> FactEdit {
        FactEdit::add("e", &[t, t])
    }
    fn rem(t: &str) -> FactEdit {
        FactEdit::remove("e", &[t, t])
    }
    fn kinds(edits: &[FactEdit]) -> Vec<(bool, String)> {
        edits
            .iter()
            .map(|e| match e {
                FactEdit::Add { args, .. } => (true, args[0].clone()),
                FactEdit::Remove { args, .. } => (false, args[0].clone()),
            })
            .collect()
    }

    #[test]
    fn duplicate_inserts_dedupe() {
        let mut q = DeltaQueue::new();
        q.push(add("a"));
        q.push(add("a"));
        q.push(add("a"));
        assert_eq!(q.len(), 1);
        assert_eq!(q.deduped(), 2);
        let (edits, _) = q.drain();
        assert_eq!(kinds(&edits), vec![(true, "a".into())]);
    }

    #[test]
    fn opposing_pair_supersedes_without_oracle() {
        let mut q = DeltaQueue::new();
        q.push(add("a"));
        q.push(rem("a"));
        // Last op wins: the remove survives (apply-time no-op if "a" was
        // never present), the insert is gone.
        assert_eq!(q.cancelled_pairs(), 1);
        let (edits, _) = q.drain();
        assert_eq!(kinds(&edits), vec![(false, "a".into())]);
    }

    #[test]
    fn opposing_pair_annihilates_with_oracle() {
        let mut q = DeltaQueue::new();
        q.push_with_presence(add("a"), false);
        q.push_with_presence(rem("a"), false);
        assert_eq!(q.cancelled_pairs(), 1);
        assert!(q.is_empty());
        let (edits, _) = q.drain();
        assert!(edits.is_empty());
    }

    #[test]
    fn restating_membership_dedupes_with_oracle() {
        let mut q = DeltaQueue::new();
        q.push_with_presence(add("a"), true); // already present: no-op
        assert!(q.is_empty());
        assert_eq!(q.deduped(), 1);
        q.push_with_presence(rem("b"), false); // already absent: no-op
        assert!(q.is_empty());
        assert_eq!(q.deduped(), 2);
    }

    #[test]
    fn requeued_tuple_emits_at_later_position() {
        let mut q = DeltaQueue::new();
        q.push_with_presence(add("a"), false);
        q.push_with_presence(add("b"), false);
        q.push_with_presence(rem("a"), false); // cancels the first add
        q.push_with_presence(add("a"), false); // fresh entry, new position
        let (edits, _) = q.drain();
        assert_eq!(
            kinds(&edits),
            vec![(true, "b".into()), (true, "a".into())]
        );
    }

    #[test]
    fn drain_resets_burst_counters_not_totals() {
        let mut q = DeltaQueue::new();
        q.push(add("a"));
        q.push(add("a"));
        q.end_update();
        q.end_update();
        assert_eq!(q.updates_queued(), 2);
        assert_eq!(q.edits_queued(), 2);
        let (_, updates) = q.drain();
        assert_eq!(updates, 2);
        assert_eq!(q.updates_queued(), 0);
        assert_eq!(q.edits_queued(), 0);
        assert_eq!(q.deduped(), 1); // cumulative
        assert!(q.is_empty());
    }
}
