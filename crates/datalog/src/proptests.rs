//! The clique tasks against the code they replaced, on random edit
//! batches over a handful of rule templates: the old-state overlay against
//! a rolled-back copy, the tracked net delta against an extent diff. (The
//! engine as a whole is held to from-scratch evaluation by
//! [`crate::lattice`], whose corpus also runs some of these templates.)

use crate::engine::IncrementalEngine;
use crate::eval::{compile_program, ensure_indices, eval_agg_rule, load_facts, seminaive_scc, CRule, Extent, Rels};
use crate::incr::{net_deltas, update_scc, Delta, OldView};
use crate::hash::Map;
use crate::parser::parse_program;
use crate::rel::{Database, Loan, PredId, Relation};
use crate::stratify::stratify;
use crate::taskgraph::{NodeKind, TaskGraph};
use crate::value::Tuple;
use proptest::prelude::*;

const TC_RULES: &str = "path(X, Y) :- edge(X, Y).\n\
                        path(X, Z) :- path(X, Y), edge(Y, Z).\n";

pub(crate) const NEG_RULES: &str = "node(X) :- edge(X, Y).\n\
                         node(Y) :- edge(X, Y).\n\
                         reach(X) :- start(X).\n\
                         reach(Y) :- reach(X), edge(X, Y).\n\
                         unreach(X) :- node(X), !reach(X).\n\
                         start(n0).\n";

pub(crate) const TRI_RULES: &str = "tri(X, Z) :- edge(X, Y), edge(Y, Z), edge(X, Z).\n\
                         path(X, Y) :- edge(X, Y).\n\
                         path(X, Z) :- path(X, Y), edge(Y, Z).\n";

/// Right-recursive closure: the recursive atom is *not* anchored on the
/// head's first variable, so under sharding the derived `path` relation
/// itself goes through the cross-shard delta exchange (multiple rounds
/// per batch, DRed deletions included).
pub(crate) const RTC_RULES: &str = "path(X, Y) :- edge(X, Y).\n\
                         path(X, Z) :- edge(X, Y), path(Y, Z).\n";

/// Aggregates under sharding: `deg` is anchored (shard-local fold over
/// the owned partition), `indeg` groups by the *second* edge column and
/// is therefore replicated (every shard folds the full mirror).
pub(crate) const AGG_RULES: &str = "deg(X, count(Y)) :- edge(X, Y).\n\
                         indeg(Y, count(X)) :- edge(X, Y).\n";

/// Mutual recursion: `even` and `odd` form one two-predicate clique.
pub(crate) const PARITY_RULES: &str = "odd(X, Y) :- edge(X, Y).\n\
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

/// `live` with `d` undone, as a copy — what `OldView` used to hold, kept
/// as the oracle for the overlay that replaced it.
fn rolled_back(live: &Relation, d: &Delta) -> Relation {
    let mut r = live.clone();
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
    live: &Loan<'_>,
    input: &Map<PredId, Delta>,
) -> Result<(), TestCaseError> {
    let view = OldView::new(live, input);
    for (&p, d) in input.iter().filter(|(_, d)| !d.is_empty()) {
        let old = rolled_back(live.relation(p), d);
        let ext = Extent::of(&view, p);
        prop_assert_eq!(sorted(ext.iter()), old.sorted(), "scan of {:?}", p);
        // Everything that is, was, or could be mistaken for a member.
        let universe: Vec<&Tuple> = live.relation(p).iter().chain(&d.added).chain(&d.removed).collect();
        for &t in &universe {
            prop_assert_eq!(ext.contains(t), old.contains(t), "membership of {:?}", t);
        }
        for cols in live.relation(p).index_cols() {
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
/// take the same call; [`crate::lattice`] checks them.)
fn assert_tasks_match_oracles(
    rules_src: &str,
    edges: &[(usize, usize)],
    edits: &[(bool, usize, usize)],
) -> Result<(), TestCaseError> {
    let src = edges.iter().fold(rules_src.to_string(), |s, (a, b)| s + &format!("edge(n{a}, n{b}).\n"));
    let program = parse_program(&src).expect("valid program");
    let strat = stratify(&program).expect("stratifiable");
    let mut db = Database::new();
    let rules = compile_program(&program, &mut db);
    load_facts(&program, &mut db);
    let graph = TaskGraph::build(&strat, rules, &db);
    let cliques: Vec<(usize, &[PredId], &[CRule])> = graph
        .dag
        .topo_order()
        .iter()
        .filter_map(|v| match &graph.kinds[v.index()] {
            NodeKind::Base(_) => None,
            NodeKind::Clique { preds, rules } => Some((v.index(), &preds[..], &rules[..])),
        })
        .collect();
    // The engine's order: a clique's forward and pin plans' indices, its
    // materialisation, and the check and group plans after all of them.
    for &(_, preds, crules) in &cliques {
        ensure_indices(&mut db, crules, false);
        seminaive_scc(&mut db.lend(preds), crules, Map::default(), true);
    }
    ensure_indices(&mut db, graph.rules(), true);
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
        for &(node, preds, crules) in &cliques {
            let input: Map<PredId, Delta> = graph.reads[node]
                .iter()
                .filter_map(|p| changed.get(p).filter(|d| !d.is_empty()).map(|d| (*p, d.clone())))
                .collect();
            if input.is_empty() {
                continue;
            }
            let before = snapshot_of(&db, preds);
            let mut loan = db.lend(preds);
            assert_overlay_matches_copy(&loan, &input)?;
            let out = update_scc(&mut loan, crules, preds, &input, None);
            assert_same_delta(&db, &out, &net_deltas(&db, preds, &before), "update")?;
            if let [rule @ CRule { agg: Some(_), .. }] = crules {
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

/// ~75% deletions: stresses the prove-or-delete phase.
fn deletion_heavy_strategy() -> impl Strategy<Value = Vec<(bool, usize, usize)>> {
    proptest::collection::vec((0u8..4, 0usize..6, 0usize..6), 0..16)
        .prop_map(|v| v.into_iter().map(|(k, a, b)| (k == 0, a, b)).collect())
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
