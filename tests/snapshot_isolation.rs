//! End-to-end snapshot isolation over the epoch-versioned database.
//!
//! The contracts under test:
//!
//! * **No aliased reads** — a pinned snapshot blocks arena row reuse,
//!   so delete+insert churn after the pin can never make the snapshot
//!   observe a different tuple through a recycled row id (the
//!   regression the free-list watermark exists for).
//! * **Publish-point atomicity** — a snapshot pinned at any moment
//!   before an update's publish (including mid-cascade, from inside the
//!   driving scheduler) reads the pre-update materialization
//!   bit-for-bit; a snapshot pinned after reads the post-update one.
//! * **Failed updates publish nothing** — after a scheduler stall and
//!   rollback, new snapshots still read the last committed cut.
//! * **Readers run concurrently** — snapshot queries from other threads
//!   make progress while the engine churns through updates.

use datalog_sched::dag::{Dag, NodeId};
use datalog_sched::datalog::{FactEdit, IncrementalEngine};
use datalog_sched::sched::{CostMeter, Hybrid, LevelBased, LogicBlox, Scheduler, SignalPropagation};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TC: &str = "path(X, Y) :- edge(X, Y).\n\
                  path(X, Z) :- path(X, Y), edge(Y, Z).\n\
                  edge(a, b). edge(b, c).";

fn head_image(e: &IncrementalEngine) -> Vec<String> {
    e.database().image_at(None)
}

fn schedulers(e: &IncrementalEngine) -> Vec<Box<dyn Scheduler>> {
    let dag = e.dag().clone();
    vec![
        Box::new(LevelBased::new(dag.clone())),
        Box::new(LogicBlox::new(dag.clone())),
        Box::new(Hybrid::new(dag.clone())),
        Box::new(SignalPropagation::new(dag)),
    ]
}

/// Satellite regression: pin a snapshot, delete + insert (which recycles
/// the freed arena slot once nothing pins it), and assert the pinned
/// read is unchanged — the snapshot watermark must block row reuse.
#[test]
fn pinned_snapshot_unchanged_by_delete_insert_churn() {
    let mut e = IncrementalEngine::new(TC).unwrap();
    let snap = e.begin_snapshot();
    let before = snap.image();
    assert_eq!(before, head_image(&e), "fresh snapshot matches head");
    assert!(snap.has("edge", &["a", "b"]));
    assert!(snap.has("path", &["a", "c"]));

    // Delete then insert across several published updates: without the
    // watermark the freed rows of edge(a,b)/its paths would be recycled
    // for edge(x,y) and the pinned reader could see aliased tuples.
    let dag = e.dag().clone();
    let mut s = LevelBased::new(dag.clone());
    e.update(&mut s, &[FactEdit::remove("edge", &["a", "b"])])
        .unwrap();
    let mut s = LevelBased::new(dag.clone());
    e.update(&mut s, &[FactEdit::add("edge", &["x", "y"])])
        .unwrap();

    assert_eq!(snap.image(), before, "pinned read must be unchanged");
    assert!(snap.has("edge", &["a", "b"]), "deleted fact still pinned");
    assert!(!snap.has("edge", &["x", "y"]), "new fact invisible");
    assert!(e.has("edge", &["x", "y"]), "head sees the new fact");
    assert!(!e.has("edge", &["a", "b"]));
    {
        let db = e.database();
        assert!(db.rows_retained() > 0, "tombstones retained for the pin");
    }

    // Release the pin: the next committed update vacuums the retained
    // rows, and a fresh snapshot reads the current head.
    drop(snap);
    let mut s = LevelBased::new(dag);
    e.update(&mut s, &[FactEdit::add("edge", &["x", "z"])])
        .unwrap();
    assert_eq!(e.database().rows_retained(), 0, "vacuumed after unpin");
    let fresh = e.begin_snapshot();
    assert_eq!(fresh.image(), head_image(&e));
}

/// LevelBased with a hook at every `pop_ready` — between two write-lock
/// tenures of the driving update, so genuinely mid-cascade, and once more
/// after the last task, before the publish. The hook is told how many
/// tasks have popped so far and says whether to go on: `false` refuses
/// the pop, which wedges the update so the engine rolls it back.
struct AtEachPop<F: FnMut(usize) -> bool + Send> {
    inner: LevelBased,
    popped: usize,
    hook: F,
}

fn at_each_pop<F: FnMut(usize) -> bool + Send>(dag: Arc<Dag>, hook: F) -> AtEachPop<F> {
    AtEachPop {
        inner: LevelBased::new(dag),
        popped: 0,
        hook,
    }
}

impl<F: FnMut(usize) -> bool + Send> Scheduler for AtEachPop<F> {
    fn name(&self) -> &str {
        "AtEachPop"
    }
    fn start(&mut self, initial: &[NodeId]) {
        self.popped = 0;
        self.inner.start(initial);
    }
    fn on_completed(&mut self, v: NodeId, fired: &[NodeId]) {
        self.inner.on_completed(v, fired);
    }
    fn pop_ready(&mut self) -> Option<NodeId> {
        if !(self.hook)(self.popped) {
            return None;
        }
        let t = self.inner.pop_ready();
        self.popped += usize::from(t.is_some());
        t
    }
    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent()
    }
    fn cost(&self) -> CostMeter {
        self.inner.cost()
    }
    fn space_bytes(&self) -> usize {
        self.inner.space_bytes()
    }
    fn precompute_bytes(&self) -> usize {
        self.inner.precompute_bytes()
    }
    fn on_external_dispatch(&mut self, v: NodeId) {
        self.inner.on_external_dispatch(v);
    }
}

#[test]
fn snapshot_pinned_mid_cascade_reads_pre_update_state() {
    let mut e = IncrementalEngine::new(TC).unwrap();
    let before = head_image(&e);
    let pre_epoch = e.epoch();

    // Pin once the first task (the base-table node) is done and edge is
    // already mutated: the cascade is half-applied at head, yet the
    // snapshot must read the pre-update cut.
    let reader = e.reader();
    let mut pinned = None;
    let mut s = at_each_pop(e.dag().clone(), |popped| {
        if popped == 1 {
            pinned = Some(reader.snapshot());
        }
        true
    });
    e.update(&mut s, &[FactEdit::remove("edge", &["a", "b"])])
        .unwrap();
    drop(s);
    let snap = pinned.expect("cascade had at least one task");
    assert_eq!(snap.epoch(), pre_epoch, "mid-cascade pin gets the old cut");
    assert_eq!(snap.image(), before, "bit-identical to the pre-update db");

    // A snapshot pinned after the publish sees the update.
    let after = e.begin_snapshot();
    assert_eq!(after.epoch(), pre_epoch + 1);
    assert_eq!(after.image(), head_image(&e));
    assert!(!after.has("path", &["a", "c"]));
}

#[test]
fn failed_update_publishes_no_epoch() {
    let mut e = IncrementalEngine::new(TC).unwrap();
    let before = head_image(&e);
    let epoch = e.epoch();

    // One task, then refuse.
    let mut broken = at_each_pop(e.dag().clone(), |popped| popped < 1);
    e.update(&mut broken, &[FactEdit::remove("edge", &["a", "b"])])
        .unwrap_err();

    assert_eq!(e.epoch(), epoch, "stalled update must not publish");
    assert_eq!(head_image(&e), before, "rolled back");
    let snap = e.begin_snapshot();
    assert_eq!(snap.epoch(), epoch);
    assert_eq!(snap.image(), before, "snapshot reads the committed cut");
}

/// A chain n0 → … → n5 with the chord n0 → n3, and a clique downstream of
/// `path`. Deleting edge(n1, n2) makes a deletion candidate of every path
/// through it: the chord proves path(n0, n3), path(n0, n4) and path(n0, n5),
/// which are never touched; the five paths to n2 and from n1 have no proof
/// among the old tuples and are taken out.
const CHORD: &str = "path(X, Y) :- edge(X, Y).\n\
                     path(X, Z) :- path(X, Y), edge(Y, Z).\n\
                     reach(X) :- path(n0, X).\n\
                     edge(n0, n1). edge(n1, n2). edge(n2, n3). edge(n3, n4). edge(n4, n5).\n\
                     edge(n0, n3).";
const CHORD_TAKEN_OUT: u64 = 5;

/// CHORD's edge(n1, n2) rerouted through a new node m in one update: the
/// five paths taken out all hold again, but only through path(n1, m) and
/// path(n0, m), which are new — so they go out and come back — and six
/// paths to and from m are added.
fn reroute() -> Vec<FactEdit> {
    vec![
        FactEdit::remove("edge", &["n1", "n2"]),
        FactEdit::add("edge", &["n1", "m"]),
        FactEdit::add("edge", &["m", "n2"]),
    ]
}
const REROUTE_NET_ADDITIONS: usize = 6;

fn path_arena_len(e: &IncrementalEngine) -> usize {
    let db = e.database();
    db.rel(db.pred_id("path").expect("path exists")).arena_len()
}

/// A tuple the cascade takes out and puts back keeps its row: a reader
/// pinned before the update reads the same image before it, between its
/// tasks and after its publish, and nothing beyond the update's net
/// removals is held back for that reader.
#[test]
fn pinned_snapshot_reads_through_overdelete_and_rederive() {
    let mut e = IncrementalEngine::new(CHORD).unwrap();
    let snap = e.begin_snapshot();
    let before = snap.image();
    let arena = path_arena_len(&e);
    assert!(snap.has("path", &["n0", "n2"]));

    // After the path task (popped == 2) path(n0, n2) has been tombstoned
    // and revived in the open epoch; reach's task and the publish are
    // still to come.
    let revived = incr_obs::registry().counter("mvcc.rows_revived");
    let revived_before = revived.get();
    let mut mid_cascade = Vec::new();
    let mut s = at_each_pop(e.dag().clone(), |_| {
        mid_cascade.push(snap.image());
        true
    });
    let report = e.update(&mut s, &reroute()).unwrap();
    drop(s);
    // The counter is process-wide: the tests beside this one only add.
    assert!(revived.get() - revived_before >= CHORD_TAKEN_OUT);
    assert_eq!(report.pred_changes["path"], (REROUTE_NET_ADDITIONS, 0));
    assert_eq!(mid_cascade.len(), 4, "before each of three tasks and after the last");
    for (popped, image) in mid_cascade.iter().enumerate() {
        assert_eq!(image, &before, "read after {popped} tasks");
    }
    assert_eq!(snap.image(), before, "read after the publish");

    let after = e.begin_snapshot();
    assert_eq!(after.image(), head_image(&e));
    assert_eq!(after.query("path(n0, n2)").unwrap(), vec!["(n0, n2)"]);
    assert_eq!(
        path_arena_len(&e),
        arena + REROUTE_NET_ADDITIONS,
        "no second row for what came back"
    );
    // edge(n1, n2): the net removal, not the five paths taken out and put
    // back.
    assert_eq!(e.database().rows_retained(), 1);
}

/// Updates refused after the path task ran: the rows it tombstoned come
/// back, the rows it revived stay live through the abort, rows born in the
/// aborted epoch are gone, and the arena is the size it was.
#[test]
fn stalled_overdelete_and_rederive_leaves_the_rows_as_they_were() {
    let mut e = IncrementalEngine::new(CHORD).unwrap();
    let before = head_image(&e);
    let (epoch, arena) = (e.epoch(), path_arena_len(&e));

    // edge and path run, reach is refused.
    let mut broken = at_each_pop(e.dag().clone(), |popped| popped < 2);
    e.update(&mut broken, &[FactEdit::remove("edge", &["n1", "n2"])])
        .unwrap_err();
    assert_eq!(head_image(&e), before, "rolled back");
    assert_eq!(e.epoch(), epoch, "stalled update must not publish");
    assert_eq!(path_arena_len(&e), arena, "the cascade allocated nothing");
    assert_eq!(e.begin_snapshot().image(), before);

    // With insertions in the refused batch, path gets rows born in the
    // aborted epoch, and rows taken out and put back in it: none of the
    // first survives, all of the second do.
    let mut grow = reroute();
    grow.push(FactEdit::add("edge", &["n5", "n6"]));
    let mut broken = at_each_pop(e.dag().clone(), |popped| popped < 2);
    e.update(&mut broken, &grow).unwrap_err();
    assert_eq!(head_image(&e), before, "rolled back");
    assert!(!e.has("path", &["n0", "n6"]));
    assert!(e.has("path", &["n0", "n2"]));

    // The retry commits, and matches from-scratch evaluation.
    let mut s = LevelBased::new(e.dag().clone());
    e.update(&mut s, &grow).unwrap();
    assert_eq!(e.epoch(), epoch + 1);
    let fresh = IncrementalEngine::new(
        &CHORD
            .replace("edge(n1, n2).", "edge(n1, m). edge(m, n2).")
            .replace("edge(n0, n3).", "edge(n0, n3). edge(n5, n6)."),
    )
    .unwrap();
    for pattern in ["path(?, ?)", "reach(?)"] {
        let rows = |e: &IncrementalEngine| {
            let mut rows = e.query(pattern).unwrap();
            rows.sort();
            rows
        };
        assert_eq!(rows(&e), rows(&fresh), "{pattern}");
    }
}

/// Post-publish snapshots match the sequential head across every
/// scheduler (the scheduler choice must be invisible to readers).
#[test]
fn post_publish_snapshot_matches_head_for_all_schedulers() {
    for (i, _) in schedulers(&IncrementalEngine::new(TC).unwrap())
        .iter()
        .enumerate()
    {
        let mut e = IncrementalEngine::new(TC).unwrap();
        let mut s = schedulers(&e).remove(i);
        e.update(
            s.as_mut(),
            &[
                FactEdit::add("edge", &["c", "d"]),
                FactEdit::remove("edge", &["a", "b"]),
            ],
        )
        .unwrap();
        let snap = e.begin_snapshot();
        assert_eq!(snap.image(), head_image(&e), "scheduler #{i}");
        assert_eq!(snap.count("path"), e.count("path"));
    }
}

/// Four reader threads keep opening snapshots and querying while the
/// writer churns: every read must be internally consistent (the same
/// snapshot answers identically twice) and correspond to a committed
/// cut (`path` is the closure of `edge` — sizes must be consistent).
/// The writer keeps churning until every reader has completed a read
/// beside it: how long 80 updates take says nothing about whether a
/// reader got scheduled meanwhile.
#[test]
fn readers_progress_and_stay_consistent_during_update_stream() {
    const READERS: usize = 4;
    let mut e = IncrementalEngine::new(TC).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let progressed = Arc::new(AtomicUsize::new(0));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let reader = e.reader();
            let (stop, progressed) = (stop.clone(), progressed.clone());
            std::thread::spawn(move || {
                let mut reads = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let snap = reader.snapshot();
                    let a = snap.image();
                    let paths = snap.query("path(?, ?)").unwrap();
                    let b = snap.image();
                    assert_eq!(a, b, "snapshot view drifted between reads");
                    assert_eq!(paths.len(), snap.count("path"));
                    reads += 1;
                    if reads == 1 {
                        progressed.fetch_add(1, Ordering::SeqCst);
                    }
                }
                reads
            })
        })
        .collect();

    let dag = e.dag().clone();
    let hosts = ["d", "e", "f", "g", "h"];
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut round = 0;
    while round < 40 || progressed.load(Ordering::SeqCst) < READERS {
        if Instant::now() >= deadline {
            // Let the readers out before failing, or they spin for ever.
            stop.store(true, Ordering::SeqCst);
            panic!(
                "{} of {READERS} readers completed a read in 120 s and {round} update rounds",
                progressed.load(Ordering::SeqCst)
            );
        }
        let h = hosts[round % hosts.len()];
        let mut s = Hybrid::new(dag.clone());
        e.update(&mut s, &[FactEdit::add("edge", &["c", h])]).unwrap();
        let mut s = Hybrid::new(dag.clone());
        e.update(&mut s, &[FactEdit::remove("edge", &["c", h])])
            .unwrap();
        round += 1;
    }
    stop.store(true, Ordering::SeqCst);
    for r in readers {
        let reads = r.join().expect("reader thread");
        assert!(reads > 0, "reader made no progress during the stream");
    }
    // All pins released: the next committed update reclaims everything.
    let mut s = Hybrid::new(dag);
    e.update(&mut s, &[FactEdit::add("edge", &["c", "z"])]).unwrap();
    assert_eq!(e.database().rows_retained(), 0);
}

const SALES: &str = "total(C, sum(V)) :- sale(C, I, V).\n\
                     path(X, Y) :- edge(X, Y).\n\
                     path(X, Z) :- path(X, Y), edge(Y, Z).\n\
                     sale(c1, i1, 5). sale(c1, i2, 7). sale(c2, i1, 1).\n\
                     edge(a, b). edge(b, c).";

/// Pin a snapshot, run `change` (which must alter the head), and assert
/// the pinned image is still the pre-change head image bit for bit.
/// Re-evaluated cliques (aggregates on every update, the edited clique on
/// a rule change) used to swap in a fresh relation and drop the rows the
/// pin reads.
fn assert_pin_survives(change: impl FnOnce(&mut IncrementalEngine)) {
    let mut e = IncrementalEngine::new(SALES).unwrap();
    let before = head_image(&e);
    let snap = e.begin_snapshot();
    assert_eq!(snap.image(), before, "fresh snapshot matches head");
    change(&mut e);
    assert_ne!(head_image(&e), before, "the change must reach the head");
    assert_eq!(snap.image(), before, "pinned image lost rows");
    assert!(snap.has("path", &["a", "c"]));
    assert_eq!(snap.count("total"), 2, "total(c1, 12) and total(c2, 1)");
}

#[test]
fn pinned_snapshot_survives_aggregate_reevaluation() {
    assert_pin_survives(|e| {
        let mut s = LevelBased::new(e.dag().clone());
        e.update(&mut s, &[FactEdit::add("sale", &["c1", "i3", "3"])])
            .unwrap();
        assert_eq!(e.query("total(c1, ?)").unwrap(), vec!["(c1, 15)"]);
    });
}

#[test]
fn pinned_snapshot_survives_add_rule() {
    assert_pin_survives(|e| {
        e.add_rule("path(Y, X) :- edge(X, Y).", |dag| {
            Box::new(LevelBased::new(dag))
        })
        .unwrap();
        assert!(e.has("path", &["b", "a"]));
    });
}

#[test]
fn pinned_snapshot_survives_remove_rule() {
    assert_pin_survives(|e| {
        e.remove_rule("path(X, Z) :- path(X, Y), edge(Y, Z).", |dag| {
            Box::new(LevelBased::new(dag))
        })
        .unwrap();
        assert!(!e.has("path", &["a", "c"]));
    });
}
