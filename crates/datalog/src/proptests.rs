//! Property tests on random base facts and random edit sequences over a
//! handful of rule templates. Snapshot isolation: a snapshot pinned
//! mid-cascade reads the pre-update database bit-for-bit, and a
//! post-publish snapshot matches a LevelBased reference — under every
//! scheduler. Sharded ≡ unsharded after every committed batch, and a batch
//! stalled mid-cascade leaves no trace. And the clique tasks against the
//! code they replaced: the old-state overlay against a rolled-back copy,
//! the tracked net delta against an extent diff.

use crate::engine::tests::QuotaStall;
use crate::engine::{FactEdit, IncrementalEngine};
use crate::eval::{compile_program, eval_agg_rule, load_facts, seminaive_scc, CRule, Extent};
use crate::incr::{net_deltas, update_scc, Delta, OldView};
use crate::hash::Map;
use crate::mvcc::{ReaderHandle, Snapshot};
use crate::parser::parse_program;
use crate::rel::{Database, PredId, Relation};
use crate::shard::ShardedEngine;
use crate::stratify::stratify;
use crate::taskgraph::{NodeKind, TaskGraph};
use crate::value::Tuple;
use incr_dag::Dag;
use incr_sched::{CostMeter, Hybrid, LevelBased, LogicBlox, Scheduler, SignalPropagation};
use proptest::prelude::*;
use std::sync::Arc;

const TC_RULES: &str = "path(X, Y) :- edge(X, Y).\n\
                        path(X, Z) :- path(X, Y), edge(Y, Z).\n";

const NEG_RULES: &str = "node(X) :- edge(X, Y).\n\
                         node(Y) :- edge(X, Y).\n\
                         reach(X) :- start(X).\n\
                         reach(Y) :- reach(X), edge(X, Y).\n\
                         unreach(X) :- node(X), !reach(X).\n\
                         start(n0).\n";

const TRI_RULES: &str = "tri(X, Z) :- edge(X, Y), edge(Y, Z), edge(X, Z).\n\
                         path(X, Y) :- edge(X, Y).\n\
                         path(X, Z) :- path(X, Y), edge(Y, Z).\n";

/// Right-recursive closure: the recursive atom is *not* anchored on the
/// head's first variable, so under sharding the derived `path` relation
/// itself goes through the cross-shard delta exchange (multiple rounds
/// per batch, DRed deletions included).
const RTC_RULES: &str = "path(X, Y) :- edge(X, Y).\n\
                         path(X, Z) :- edge(X, Y), path(Y, Z).\n";

/// Aggregates under sharding: `deg` is anchored (shard-local fold over
/// the owned partition), `indeg` groups by the *second* edge column and
/// is therefore replicated (every shard folds the full mirror).
const AGG_RULES: &str = "deg(X, count(Y)) :- edge(X, Y).\n\
                         indeg(Y, count(X)) :- edge(X, Y).\n";

/// Mutual recursion: `even` and `odd` form one two-predicate clique.
const PARITY_RULES: &str = "odd(X, Y) :- edge(X, Y).\n\
                            odd(X, Y) :- edge(X, Z), even(Z, Y).\n\
                            even(X, Y) :- edge(X, Z), odd(Z, Y).\n";

/// Non-linear closure: both body atoms of the recursive rule are in the
/// clique, so one rule instance can wait for two facts.
const NLTC_RULES: &str = "path(X, Y) :- edge(X, Y).\n\
                          path(X, Z) :- path(X, Y), path(Y, Z).\n";

/// Same generation, reading `edge` as parent → child: the clique atom
/// sits between two input atoms.
const SG_RULES: &str = "sg(X, Y) :- edge(P, X), edge(P, Y).\n\
                        sg(X, Y) :- edge(P, X), sg(P, Q), edge(Q, Y).\n";

fn program_src(rules: &str, edges: &[(usize, usize)]) -> String {
    let mut src = String::from(rules);
    for &(a, b) in edges {
        src.push_str(&format!("edge(n{a}, n{b}).\n"));
    }
    src
}

/// Wraps any scheduler and pins a snapshot at the first popped task —
/// i.e. after the cascade has started mutating the head version but
/// before anything publishes.
struct PinAtFirstPop {
    inner: Box<dyn Scheduler>,
    reader: ReaderHandle,
    snap: Option<Snapshot>,
}

impl Scheduler for PinAtFirstPop {
    fn name(&self) -> &str {
        "PinAtFirstPop"
    }
    fn start(&mut self, initial: &[incr_dag::NodeId]) {
        self.inner.start(initial);
    }
    fn on_completed(&mut self, v: incr_dag::NodeId, fired: &[incr_dag::NodeId]) {
        self.inner.on_completed(v, fired);
    }
    fn pop_ready(&mut self) -> Option<incr_dag::NodeId> {
        let t = self.inner.pop_ready();
        if t.is_some() && self.snap.is_none() {
            self.snap = Some(self.reader.snapshot());
        }
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
    fn on_external_dispatch(&mut self, v: incr_dag::NodeId) {
        self.inner.on_external_dispatch(v);
    }
}

fn make_scheduler(e: &IncrementalEngine, kind: usize) -> Box<dyn Scheduler> {
    let dag = e.dag().clone();
    match kind {
        0 => Box::new(LevelBased::new(dag)),
        1 => Box::new(LogicBlox::new(dag)),
        2 => Box::new(Hybrid::new(dag)),
        _ => Box::new(SignalPropagation::new(dag)),
    }
}

fn edit_batches(edits: &[(bool, usize, usize)]) -> Vec<Vec<FactEdit>> {
    edits
        .chunks(4)
        .map(|batch| {
            batch
                .iter()
                .map(|&(add, a, b)| {
                    let args = [format!("n{a}"), format!("n{b}")];
                    let args: Vec<&str> = args.iter().map(String::as_str).collect();
                    if add {
                        FactEdit::add("edge", &args)
                    } else {
                        FactEdit::remove("edge", &args)
                    }
                })
                .collect()
        })
        .collect()
}

/// Snapshot isolation under every scheduler: for each edit batch,
/// 1. a snapshot pinned mid-cascade is bit-identical to the pre-update
///    database,
/// 2. a snapshot pinned after the publish is bit-identical to the head
///    and to a sequential (LevelBased) reference run over the same
///    edits.
fn assert_snapshot_isolation(
    rules: &str,
    edges: &[(usize, usize)],
    edits: &[(bool, usize, usize)],
) -> Result<(), TestCaseError> {
    let src = program_src(rules, edges);
    let batches = edit_batches(edits);

    // Sequential reference: one image per committed batch.
    let mut reference = IncrementalEngine::new(&src).expect("valid program");
    let ref_images: Vec<Vec<String>> = batches
        .iter()
        .map(|fe| {
            let mut s = LevelBased::new(reference.dag().clone());
            reference.update(&mut s, fe).expect("valid edit");
            reference.database().image_at(None)
        })
        .collect();

    for kind in 0..4 {
        let mut e = IncrementalEngine::new(&src).expect("valid program");
        for (step, fe) in batches.iter().enumerate() {
            let pre = e.database().image_at(None);
            let pre_epoch = e.epoch();
            let mut s = PinAtFirstPop {
                inner: make_scheduler(&e, kind),
                reader: e.reader(),
                snap: None,
            };
            e.update(&mut s, fe).expect("valid edit");
            if let Some(mid) = s.snap.take() {
                prop_assert_eq!(mid.epoch(), pre_epoch, "mid-cascade pin epoch");
                prop_assert_eq!(
                    mid.image(),
                    pre.clone(),
                    "mid-cascade snapshot != pre-update db (scheduler {}, step {})",
                    kind,
                    step
                );
            }
            let post = e.begin_snapshot();
            prop_assert_eq!(
                post.image(),
                e.database().image_at(None),
                "post-publish snapshot != head (scheduler {}, step {})",
                kind,
                step
            );
            prop_assert_eq!(
                post.image(),
                ref_images[step].clone(),
                "post-publish snapshot != sequential reference (scheduler {}, step {})",
                kind,
                step
            );
        }
    }
    Ok(())
}

fn make_sharded_scheduler(kind: usize) -> impl FnMut(Arc<Dag>) -> Box<dyn Scheduler + Send> {
    move |dag: Arc<Dag>| -> Box<dyn Scheduler + Send> {
        match kind {
            0 => Box::new(LevelBased::new(dag)),
            1 => Box::new(LogicBlox::new(dag)),
            2 => Box::new(Hybrid::new(dag)),
            _ => Box::new(SignalPropagation::new(dag)),
        }
    }
}

fn pattern_for(pred: &str, arity: usize) -> String {
    format!("{pred}({})", vec!["?"; arity].join(", "))
}

/// Rendered, sorted extents — interner-independent, so they compare
/// across engines built from different source orderings.
fn unsharded_image(e: &IncrementalEngine, preds: &[(&str, usize)]) -> Vec<(String, Vec<String>)> {
    preds
        .iter()
        .map(|&(p, a)| {
            let mut rows = e.query(&pattern_for(p, a)).expect("valid pattern");
            rows.sort();
            (p.to_string(), rows)
        })
        .collect()
}

fn sharded_image(e: &ShardedEngine, preds: &[(&str, usize)]) -> Vec<(String, Vec<String>)> {
    preds
        .iter()
        .map(|&(p, a)| (p.to_string(), e.query(&pattern_for(p, a)).expect("valid pattern")))
        .collect()
}

/// Sharded ≡ unsharded: run the same program + edit stream through an
/// unsharded reference engine and through [`ShardedEngine`] at 2 and 3
/// shards under every scheduler, comparing the rendered extents of every
/// predicate after every committed batch (and the ownership-filtered
/// `count()` against the reference image).
fn assert_sharded_equivalent(
    rules: &str,
    preds: &[(&str, usize)],
    edges: &[(usize, usize)],
    edits: &[(bool, usize, usize)],
) -> Result<(), TestCaseError> {
    let src = program_src(rules, edges);
    let batches = edit_batches(edits);

    // Unsharded reference: one image per committed batch (plus initial).
    let mut reference = IncrementalEngine::new(&src).expect("valid program");
    let mut ref_images = vec![unsharded_image(&reference, preds)];
    for fe in &batches {
        let mut s = LevelBased::new(reference.dag().clone());
        reference.update(&mut s, fe).expect("valid edit");
        ref_images.push(unsharded_image(&reference, preds));
    }

    for kind in 0..4 {
        for shards in [2usize, 3] {
            let mut e = ShardedEngine::new(&src, shards, make_sharded_scheduler(kind))
                .expect("valid program");
            prop_assert_eq!(
                &sharded_image(&e, preds),
                &ref_images[0],
                "initial materialization differs ({} shards, scheduler {})",
                shards,
                kind
            );
            for (step, fe) in batches.iter().enumerate() {
                e.update(fe).expect("valid edit");
                let img = sharded_image(&e, preds);
                prop_assert_eq!(
                    &img,
                    &ref_images[step + 1],
                    "extents differ at step {} ({} shards, scheduler {})",
                    step,
                    shards,
                    kind
                );
                for (p, rows) in &img {
                    prop_assert_eq!(
                        e.count(p),
                        rows.len(),
                        "count() disagrees with query() for {} at step {}",
                        p,
                        step
                    );
                }
            }
        }
    }
    Ok(())
}

/// Restart-after-fault idempotence: every batch is first attempted under a
/// scheduler that wedges after one task. A stalled attempt must leave the
/// image untouched, and the retry plus all *subsequent* deletion-heavy
/// batches must keep matching a reference engine that never stalled — a
/// rollback that left a stamp behind would make a later deletion over- or
/// under-delete and diverge.
fn assert_fault_recovery_idempotent(
    rules: &str,
    preds: &[(&str, usize)],
    edges: &[(usize, usize)],
    edits: &[(bool, usize, usize)],
) -> Result<(), TestCaseError> {
    let src = program_src(rules, edges);
    let batches = edit_batches(edits);

    let mut reference = IncrementalEngine::new(&src).expect("valid program");
    let mut e = IncrementalEngine::new(&src).expect("valid program");
    for (step, fe) in batches.iter().enumerate() {
        let pre = unsharded_image(&e, preds);
        let mut broken = QuotaStall::new(e.dag().clone(), 1);
        match e.update(&mut broken, fe) {
            // Small cascades can finish within the quota — that's a
            // legitimate success, not a fault.
            Ok(_) => {}
            Err(_) => {
                prop_assert_eq!(
                    &unsharded_image(&e, preds),
                    &pre,
                    "stalled update left a trace at step {}",
                    step
                );
                let mut good = LevelBased::new(e.dag().clone());
                e.update(&mut good, fe).expect("retry after stall");
            }
        }
        let mut s = LevelBased::new(reference.dag().clone());
        reference.update(&mut s, fe).expect("valid edit");
        prop_assert_eq!(
            &unsharded_image(&e, preds),
            &unsharded_image(&reference, preds),
            "post-recovery state diverged from the reference at step {}",
            step
        );
    }
    Ok(())
}

/// `p`'s extent with `d` undone, as a copy — what `OldView` used to hold,
/// kept as the oracle for the overlay that replaced it.
fn rolled_back(db: &Database, p: PredId, d: &Delta) -> Relation {
    let mut r = db.rel(p).clone();
    for t in &d.added {
        r.remove(t);
    }
    for t in &d.removed {
        r.insert(t.clone());
    }
    r
}

fn sorted<'a>(it: impl Iterator<Item = &'a Tuple>) -> Vec<Tuple> {
    let mut v: Vec<Tuple> = it.cloned().collect();
    v.sort();
    v
}

/// Overlay ≡ copy: scan, membership and every index probe of each patched
/// predicate agree with the rolled-back relation.
fn assert_overlay_matches_copy(
    db: &Database,
    input: &Map<PredId, Delta>,
) -> Result<(), TestCaseError> {
    let patches = OldView::patches(db, input);
    let view = OldView {
        db,
        patches: &patches,
    };
    for (&p, d) in input.iter().filter(|(_, d)| !d.is_empty()) {
        let old = rolled_back(db, p, d);
        let ext = Extent::of(&view, p);
        prop_assert_eq!(sorted(ext.iter()), old.sorted(), "scan of {}", db.pred_name(p));
        // Everything that is, was, or could be mistaken for a member.
        let universe: Vec<&Tuple> = db.rel(p).iter().chain(&d.added).chain(&d.removed).collect();
        for &t in &universe {
            prop_assert_eq!(ext.contains(t), old.contains(t), "membership of {:?}", t);
        }
        for cols in db.rel(p).index_cols() {
            for &t in &universe {
                let key: Tuple = cols.iter().map(|&c| t[c]).collect();
                let got = ext.probe(cols, &key).expect("index exists on the live relation");
                let want = old.probe(cols, &key).expect("copy carries the indices");
                prop_assert_eq!(sorted(got), sorted(want.iter()), "probe {:?} = {:?}", cols, key);
            }
        }
    }
    Ok(())
}

fn assert_same_delta(
    db: &Database,
    got: &Map<PredId, Delta>,
    want: &Map<PredId, Delta>,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: one delta per clique predicate", what);
    for (p, w) in want {
        let name = db.pred_name(*p);
        prop_assert_eq!(&got[p].added, &w.added, "{}: added to {}", what, name);
        prop_assert_eq!(&got[p].removed, &w.removed, "{}: removed from {}", what, name);
    }
    Ok(())
}

/// Drive every clique task by hand over random edit batches (duplicate,
/// no-op and delete-then-reinsert edits included) and check, at each
/// task, the overlay against a rolled-back copy of every input and the
/// returned net delta against [`net_deltas`] over a copy taken before —
/// for `update_scc` on every clique, aggregates included. (Rule changes
/// take the same call; `tests/datalog_e2e.rs` checks them against a fresh
/// engine.)
fn assert_tasks_match_oracles(
    rules_src: &str,
    edges: &[(usize, usize)],
    edits: &[(bool, usize, usize)],
) -> Result<(), TestCaseError> {
    let program = parse_program(&program_src(rules_src, edges)).expect("valid program");
    let strat = stratify(&program).expect("stratifiable");
    let mut db = Database::new();
    let rules = compile_program(&program, &mut db);
    load_facts(&program, &mut db);
    let graph = TaskGraph::build(&strat, &rules, &db);
    let cliques: Vec<(usize, Vec<PredId>, Vec<CRule>)> = graph
        .dag
        .topo_order()
        .iter()
        .filter_map(|v| match &graph.kinds[v.index()] {
            NodeKind::Base(_) => None,
            NodeKind::Clique { preds, rules: idx } => Some((
                v.index(),
                preds.clone(),
                idx.iter().map(|&i| rules[i].clone()).collect(),
            )),
        })
        .collect();
    for (_, preds, crules) in &cliques {
        seminaive_scc(&mut db, crules, preds, Map::default(), true);
    }
    let snapshot_of = |db: &Database, preds: &[PredId]| -> Map<PredId, Relation> {
        preds.iter().map(|&p| (p, db.rel(p).clone())).collect()
    };

    let edge = db.pred_id("edge").expect("every template reads edge");
    for batch in edits.chunks(4) {
        let mut base: Map<PredId, Delta> = Map::default();
        for &(add, a, b) in batch {
            let t = vec![db.sym(&format!("n{a}")), db.sym(&format!("n{b}"))];
            IncrementalEngine::apply_one(&mut db, &mut base, edge, t, add);
        }
        // Output deltas so far, by predicate; a clique's input is the
        // part of them it reads.
        let mut changed: Map<PredId, Delta> = base;
        for (node, preds, crules) in &cliques {
            let input: Map<PredId, Delta> = graph.reads[*node]
                .iter()
                .filter_map(|p| changed.get(p).filter(|d| !d.is_empty()).map(|d| (*p, d.clone())))
                .collect();
            if input.is_empty() {
                continue;
            }
            assert_overlay_matches_copy(&db, &input)?;
            let before = snapshot_of(&db, preds);
            let out = update_scc(&mut db, crules, preds, &input, None);
            assert_same_delta(&db, &out, &net_deltas(&db, preds, &before), "update")?;
            if let [rule @ CRule { agg: Some(_), .. }] = &crules[..] {
                let mut folded = eval_agg_rule(&db, rule);
                folded.sort();
                prop_assert_eq!(db.rel(preds[0]).sorted(), folded, "maintained != folded");
            }
            changed.extend(out);
        }
    }
    Ok(())
}

fn edges_strategy() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..6, 0usize..6), 0..14)
}

fn edits_strategy() -> impl Strategy<Value = Vec<(bool, usize, usize)>> {
    proptest::collection::vec((any::<bool>(), 0usize..6, 0usize..6), 0..16)
}

/// ~75% deletions: stresses DRed through the cross-shard exchange.
fn deletion_heavy_strategy() -> impl Strategy<Value = Vec<(bool, usize, usize)>> {
    proptest::collection::vec((0u8..4, 0usize..6, 0usize..6), 0..16)
        .prop_map(|v| v.into_iter().map(|(k, a, b)| (k == 0, a, b)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn snapshots_isolate_transitive_closure(
        edges in edges_strategy(),
        edits in edits_strategy(),
    ) {
        assert_snapshot_isolation(TC_RULES, &edges, &edits)?;
    }

    #[test]
    fn snapshots_isolate_negation(
        edges in edges_strategy(),
        edits in edits_strategy(),
    ) {
        assert_snapshot_isolation(NEG_RULES, &edges, &edits)?;
    }

    #[test]
    fn snapshots_isolate_multi_bound_joins(
        edges in edges_strategy(),
        edits in edits_strategy(),
    ) {
        assert_snapshot_isolation(TRI_RULES, &edges, &edits)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_matches_unsharded_on_transitive_closure(
        edges in edges_strategy(),
        edits in edits_strategy(),
    ) {
        assert_sharded_equivalent(TC_RULES, &[("edge", 2), ("path", 2)], &edges, &edits)?;
    }

    #[test]
    fn sharded_matches_unsharded_on_right_recursion(
        edges in edges_strategy(),
        edits in edits_strategy(),
    ) {
        assert_sharded_equivalent(RTC_RULES, &[("edge", 2), ("path", 2)], &edges, &edits)?;
    }

    #[test]
    fn sharded_matches_unsharded_with_negation(
        edges in edges_strategy(),
        edits in edits_strategy(),
    ) {
        assert_sharded_equivalent(
            NEG_RULES,
            &[("edge", 2), ("node", 1), ("reach", 1), ("unreach", 1)],
            &edges,
            &edits,
        )?;
    }

    #[test]
    fn sharded_matches_unsharded_on_multi_bound_joins(
        edges in edges_strategy(),
        edits in edits_strategy(),
    ) {
        assert_sharded_equivalent(
            TRI_RULES,
            &[("edge", 2), ("tri", 2), ("path", 2)],
            &edges,
            &edits,
        )?;
    }

    #[test]
    fn sharded_matches_unsharded_on_aggregates(
        edges in edges_strategy(),
        edits in edits_strategy(),
    ) {
        assert_sharded_equivalent(
            AGG_RULES,
            &[("edge", 2), ("deg", 2), ("indeg", 2)],
            &edges,
            &edits,
        )?;
    }

    #[test]
    fn sharded_matches_unsharded_under_deletion_heavy_stream(
        edges in edges_strategy(),
        edits in deletion_heavy_strategy(),
    ) {
        assert_sharded_equivalent(RTC_RULES, &[("edge", 2), ("path", 2)], &edges, &edits)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn stalled_batches_roll_back_and_retry_to_the_reference(
        edges in edges_strategy(),
        edits in deletion_heavy_strategy(),
    ) {
        assert_fault_recovery_idempotent(
            TC_RULES,
            &[("edge", 2), ("path", 2)],
            &edges,
            &edits,
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn clique_tasks_match_the_copy_and_diff_oracles(
        edges in edges_strategy(),
        edits in edits_strategy(),
        deletions in deletion_heavy_strategy(),
    ) {
        let templates = [
            TC_RULES, RTC_RULES, NLTC_RULES, SG_RULES, NEG_RULES, TRI_RULES, PARITY_RULES, AGG_RULES,
        ];
        for rules in templates {
            assert_tasks_match_oracles(rules, &edges, &edits)?;
            assert_tasks_match_oracles(rules, &edges, &deletions)?;
        }
    }
}
