//! Stream-fast-path equivalence: coalescing queued updates into one net
//! delta must be *observationally invisible*.
//!
//! Across all five paper schedulers, a churny edit stream applied through
//! [`DeltaQueue`] + `apply_queue` yields the same final database as the
//! same updates applied one `engine.update` at a time, even though the
//! queue cancels opposing pairs and dedupes restatements.

use datalog_sched::datalog::{DeltaQueue, FactEdit, IncrementalEngine};
use datalog_sched::sched::SchedulerKind;
use std::collections::BTreeSet;

/// The five paper schedulers (ISSUE 5 acceptance set — same as chaos.rs).
const SCHEDS: [SchedulerKind; 5] = [
    SchedulerKind::LevelBased,
    SchedulerKind::Lookahead(4),
    SchedulerKind::LogicBlox,
    SchedulerKind::SignalPropagation,
    SchedulerKind::Hybrid,
];

/// Ring of `n` nodes under transitive closure — every edge edit cascades.
fn ring_tc(n: usize) -> String {
    let mut src = String::from(
        "path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- path(X, Y), edge(Y, Z).\n",
    );
    for i in 0..n {
        src.push_str(&format!("edge(v{i}, v{}).\n", (i + 1) % n));
    }
    src
}

/// A churny update stream: net-zero insert/delete pairs, duplicate
/// restatements, plus genuine edits — the shapes coalescing must get right.
fn churn_updates() -> Vec<Vec<FactEdit>> {
    vec![
        // Genuinely new chord.
        vec![FactEdit::add("edge", &["v2", "v7"])],
        // Net-zero churn: inserted then deleted before any drain.
        vec![FactEdit::add("edge", &["v4", "v9"])],
        vec![FactEdit::remove("edge", &["v4", "v9"])],
        // Delete a ring edge, breaking the cycle...
        vec![FactEdit::remove("edge", &["v0", "v1"])],
        // ...and restore it in a later queued update (cancels again).
        vec![FactEdit::add("edge", &["v0", "v1"])],
        // Restating an already-present fact and an absent one (no-ops).
        vec![
            FactEdit::add("edge", &["v2", "v3"]),
            FactEdit::remove("edge", &["v5", "v11"]),
        ],
        // Duplicate of the first update's chord (dedupes in the queue).
        vec![FactEdit::add("edge", &["v2", "v7"])],
        // A real deletion that must survive all the cancelling above.
        vec![FactEdit::remove("edge", &["v6", "v7"])],
    ]
}

/// Full rendered image of both relations, order-normalized.
fn db_image(e: &IncrementalEngine) -> BTreeSet<String> {
    let mut img = BTreeSet::new();
    for pat in ["edge(X, Y)", "path(X, Y)"] {
        for row in e.query(pat).expect("valid pattern") {
            img.insert(format!("{pat}: {row}"));
        }
    }
    img
}

#[test]
fn coalesced_queue_matches_serial_updates_for_all_schedulers() {
    let src = ring_tc(12);
    let updates = churn_updates();

    for kind in SCHEDS {
        // Serial baseline: one engine.update per stream update.
        let mut serial = IncrementalEngine::new(&src).expect("valid program");
        for edits in &updates {
            let mut s = kind.build(serial.dag().clone());
            serial.update(s.as_mut(), edits).expect("serial update applies");
        }

        // Coalesced: everything queued, merged, applied in ONE run.
        let mut merged = IncrementalEngine::new(&src).expect("valid program");
        let mut q = DeltaQueue::new();
        for edits in &updates {
            merged.enqueue(&mut q, edits).expect("edits enqueue");
        }
        assert_eq!(q.updates_queued(), updates.len());
        assert!(
            q.cancelled_pairs() >= 2,
            "{kind:?}: the net-zero churn must annihilate in the queue \
             (saw {} cancelled pairs)",
            q.cancelled_pairs()
        );
        assert!(
            q.deduped() >= 2,
            "{kind:?}: restatements and duplicates must dedupe \
             (saw {} deduped)",
            q.deduped()
        );
        let mut s = kind.build(merged.dag().clone());
        merged.apply_queue(s.as_mut(), &mut q).expect("merged update applies");
        assert!(q.is_empty(), "queue fully drained");

        assert_eq!(
            db_image(&serial),
            db_image(&merged),
            "{kind:?}: coalesced net delta diverged from the serial stream"
        );
    }
}
