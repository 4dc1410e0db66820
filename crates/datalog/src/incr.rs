//! Incremental maintenance of one recursive clique: delta insertion plus
//! delete-rederive (DRed) deletion, with stratified negation.
//!
//! Given *final* input deltas (the upstream predicates have finished
//! updating — exactly the safety discipline the scheduler enforces), and
//! on a rule change the rule added to or removed from the clique
//! ([`RuleChange`]), the clique's task runs two phases:
//!
//! 1. **Prove or delete** ([`overdelete`]) — find every tuple whose known
//!    derivation used a removed input tuple (or relied on the absence of
//!    an added one, for negated literals) or the removed rule, evaluated
//!    against the *old state* (an [`OldView`]: the live relations with the
//!    input deltas undone by an overlay, not a copy), and put each to a
//!    grounded proof search over the new inputs and the remaining rules
//!    ([`crate::prove`]): proved, it stays and nothing it supports is
//!    looked at; unproved, it is recorded and cascades within the clique.
//!    Then remove all the unproved.
//! 2. **Insert** — semi-naive propagation of added input tuples, of
//!    derivations newly enabled by removed blockers and of the added rule's
//!    output, to fixpoint.
//!
//! There is no rederivation phase: a deleted tuple has no rule instance
//! over the facts that survived (every old-extent fact without a proof was
//! itself a candidate), so its only way back is through a tuple phase 2
//! adds. One that does come back gets its own row back
//! ([`Relation::insert`] revives a tombstone of the open epoch), so what a
//! task writes to the row store is its net delta. Every phase that
//! allocates rows works from sorted delta lists and merges its derivations
//! with a sort, so the result — down to the row order of what is inserted
//! — is a pure function of the inputs.
//!
//! The output delta per predicate is the exact set difference between the
//! old and new extents, so downstream tasks see *net* changes only — a
//! task whose inputs changed but whose output did not fires no edges,
//! which is precisely the "activation may stop" behaviour of §II-A. It is
//! assembled from what the phases track (overdeleted tuples that stayed
//! out, inserted tuples that were not overdeleted first), so a task costs
//! its deltas and its join work, never the size of an extent.
//!
//! An aggregate clique takes the same deltas through the same pins, and
//! keeps each group's fold in the group's own tuple: the raw bindings
//! that came or went are added to or taken from it, and a group is walked
//! again only when its `min`/`max` extreme left ([`update_scc`]); an
//! aggregate rule just added gains every binding it has.
//!
//! Fact updates and rule changes ("the rule definitions change", §I) reach
//! a clique through [`update_scc`] alike: a changed rule is evaluated once,
//! unpinned, as one more source of candidates for the two phases, so a rule
//! change costs the rule's output and what it cascades into, never a
//! re-evaluation of the clique.

use crate::ast::AggOp;
use crate::eval::{
    eval_pin_jobs, fold, seminaive_scc, walk_group, walk_head, CAgg, CRule, Patch, Pin, PinJob,
    PinMode, Rels,
};
use crate::hash::{Map, Set};
use crate::prove::Prover;
use crate::rel::{Loan, PredId, Relation};
use crate::value::{Tuple, Value};
use incr_obs::flight::{self, FlightCode};
use incr_obs::trace;
use std::time::Instant;

/// Adds elapsed nanoseconds to a named always-on counter when dropped —
/// phase timing that survives early returns and needs no tracing.
struct ScopeCounter {
    counter: &'static str,
    t0: Instant,
}

impl Drop for ScopeCounter {
    fn drop(&mut self) {
        incr_obs::registry()
            .counter(self.counter)
            .add(self.t0.elapsed().as_nanos() as u64);
    }
}

/// Net change to one predicate's extent.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    pub added: Set<Tuple>,
    pub removed: Set<Tuple>,
}

impl Delta {
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// A rule added to or removed from a clique since its extent was last
/// maintained — what a rule change hands the head clique's task beside its
/// input deltas.
pub struct RuleChange {
    /// The rule, compiled against the database.
    pub rule: CRule,
    /// Added (its output is inserted) or removed (its output is put to
    /// proof against the remaining rules).
    pub added: bool,
}

/// Read view of the pre-update state (used by overdeletion), a patch over
/// the task's loan: each changed input predicate is the live relation
/// minus the tuples the update added plus the ones it removed; the
/// clique's own predicates, which a task leaves untouched until its
/// overdeletion is decided, are the lent relations.
pub(crate) struct OldView<'a> {
    pub(crate) live: &'a Loan<'a>,
    patches: Map<PredId, Patch<'a>>,
}

impl<'a> OldView<'a> {
    /// `live` with one patch per changed input predicate, undoing `input`
    /// (net deltas already applied to it).
    pub(crate) fn new(live: &'a Loan<'a>, input: &'a Map<PredId, Delta>) -> OldView<'a> {
        let changed = input.iter().filter(|(_, d)| !d.is_empty());
        let patches = changed
            .map(|(&p, d)| (p, Patch::undoing(live.relation(p), &d.added, &d.removed)))
            .collect();
        OldView { live, patches }
    }
}

impl Rels for OldView<'_> {
    fn relation(&self, p: PredId) -> &Relation {
        self.live.relation(p)
    }

    fn patch(&self, p: PredId) -> Option<&Patch<'_>> {
        self.patches.get(&p)
    }
}

/// The tail of clique maintenance: run the semi-naive rounds from `seed`
/// (tuples already inserted) and assemble the clique's net delta. `deleted`
/// holds the old-extent tuples the caller took out: those still out are
/// the net removals, and whatever went in without being in `deleted` is a
/// net addition — a tuple taken out and put back is no change.
fn insert_and_net(
    loan: &mut Loan<'_>,
    rules: &[CRule],
    scc_preds: &[PredId],
    deleted: Map<PredId, Set<Tuple>>,
    seed: Map<PredId, Set<Tuple>>,
) -> Map<PredId, Delta> {
    let mut out: Map<PredId, Delta> =
        scc_preds.iter().map(|&p| (p, Delta::default())).collect();
    let mut note_added = |p: PredId, ts: &mut dyn Iterator<Item = Tuple>| {
        let was_deleted = deleted.get(&p);
        let fresh = ts.filter(|t| !was_deleted.is_some_and(|d| d.contains(t)));
        out.entry(p).or_default().added.extend(fresh);
    };
    for (&p, ts) in &seed {
        note_added(p, &mut ts.iter().cloned());
    }
    if !seed.is_empty() {
        for (p, ts) in seminaive_scc(loan, rules, seed, false) {
            note_added(p, &mut ts.into_iter());
        }
    }
    for (p, ts) in deleted {
        let rel = loan.relation(p);
        let removed = &mut out.entry(p).or_default().removed;
        removed.extend(ts.into_iter().filter(|t| !rel.contains(t)));
    }
    out
}

/// Sorted list of a delta set — a deterministic order to pin it in.
fn sorted_list(set: &Set<Tuple>) -> Vec<Tuple> {
    let mut v: Vec<Tuple> = set.iter().cloned().collect();
    v.sort_unstable();
    v
}

/// Sorted `(added, removed)` lists per changed predicate.
type DeltaLists = Map<PredId, (Vec<Tuple>, Vec<Tuple>)>;

fn delta_lists(input: &Map<PredId, Delta>) -> DeltaLists {
    input
        .iter()
        .filter(|(_, d)| !d.is_empty())
        .map(|(&p, d)| (p, (sorted_list(&d.added), sorted_list(&d.removed))))
        .collect()
}

/// Pin jobs for `rules` over `lists`. `destruction` selects the
/// lost-derivation pins (removed positives, added blockers) evaluated
/// against the old view; otherwise the gained-derivation pins (added
/// positives, removed blockers) against the new state.
fn delta_pin_jobs<'a>(
    rules: &[&'a CRule],
    lists: &'a DeltaLists,
    destruction: bool,
) -> Vec<PinJob<'a>> {
    let mut jobs: Vec<PinJob<'a>> = Vec::new();
    for &rule in rules {
        for (j, (atom, negated)) in rule.body.iter().enumerate() {
            let Some((added, removed)) = lists.get(&atom.pred) else {
                continue;
            };
            let (mode, list) = match (destruction, *negated) {
                (true, false) => (PinMode::Positive, removed),
                (true, true) => (PinMode::NegLost, added),
                (false, false) => (PinMode::Positive, added),
                (false, true) => (PinMode::NegGained, removed),
            };
            if !list.is_empty() {
                jobs.push((
                    rule,
                    Some(Pin {
                        index: j,
                        mode,
                        delta: list,
                    }),
                ));
            }
        }
    }
    jobs
}

/// Overdeletion: every clique tuple with a derivation that the change
/// destroyed, found against the old `view`, and no proof left in the new
/// state. The first candidates are `first`: the heads of derivations that
/// used a changed input or the removed rule, which the caller found. One
/// the [`Prover`] proves from instances of
/// `rules` over the new inputs stays, and nothing becomes a candidate
/// through it; the others are recorded and cascade through `rules` within
/// the clique (negation inside a clique is rejected by stratification, so
/// the cascade only pins positive atoms). The clique's relations are not
/// mutated until the caller removes the returned sets, so membership in
/// the live relation is membership in the old one.
fn overdelete(
    view: &OldView<'_>,
    rules: &[&CRule],
    scc_preds: &[PredId],
    first: Vec<(PredId, Tuple)>,
) -> Map<PredId, Set<Tuple>> {
    let mut deleted: Map<PredId, Set<Tuple>> = Map::default();
    let mut prover = Prover::new(view.live, rules, scc_preds);
    let mut fresh = first;
    loop {
        // A round is itself a delta: removals from clique predicates.
        let mut round: DeltaLists = Map::default();
        for (p, t) in fresh {
            if !prover.check(p, &t) && deleted.entry(p).or_default().insert(t.clone()) {
                round.entry(p).or_default().1.push(t);
            }
        }
        for (_, removed) in round.values_mut() {
            removed.sort_unstable();
        }
        let jobs = delta_pin_jobs(rules, &round, true);
        if jobs.is_empty() {
            let reg = incr_obs::registry();
            reg.counter("datalog.dred.overdeleted")
                .add(deleted.values().map(|s| s.len() as u64).sum());
            reg.counter("datalog.dred.proof_expansions")
                .add(prover.expansions);
            return deleted;
        }
        fresh = eval_pin_jobs(view, &jobs, |head, t| {
            view.relation(head).contains(t) && !deleted.get(&head).is_some_and(|d| d.contains(t))
        });
    }
}

/// Apply an update to one clique.
///
/// * `loan` — the clique's predicates, lent for writing, and every other
///   relation, to read ([`Loan`]).
/// * `rules` — the rules whose heads are in this clique, now: an added
///   rule among them, a removed one not. Every index their plans probe
///   was built when they were compiled.
/// * `scc_preds` — the clique's predicates.
/// * `input` — final *net* deltas of the *external* predicates this
///   clique reads (upstream cliques' outputs or base-table edits),
///   already applied to the relations the loan reads.
/// * `change` — the rule added to or removed from the clique, if any. Its
///   output, one unpinned evaluation, is one more source of candidates:
///   a removed rule's (over the old state) is put to proof, an added
///   rule's (over what phase 1 left) is inserted.
///
/// Returns the clique's own net output delta per predicate. An aggregate
/// clique — one predicate, one rule, never recursive — is maintained
/// group by group ([`maintain_aggregate`]); every other clique proves or
/// deletes, then inserts.
pub fn update_scc(
    loan: &mut Loan<'_>,
    rules: &[CRule],
    scc_preds: &[PredId],
    input: &Map<PredId, Delta>,
    change: Option<&RuleChange>,
) -> Map<PredId, Delta> {
    if let [rule] = rules {
        if let Some(agg) = rule.agg {
            return maintain_aggregate(loan, rule, agg, input, change.is_some_and(|c| c.added));
        }
    }
    // The changed rule's whole output, as a job of the phase it feeds.
    let unpinned = |added: bool| change.filter(|c| c.added == added).map(|c| (&c.rule, None));
    // ---- Phase 1: prove or delete, against the old view. ----
    // Each DRed phase is triply accounted: a trace span (opt-in, rich),
    // a flight-recorder span (always on, lands in black-box dumps), and
    // an always-on phase-time counter (`datalog.dred.*_ns`) that the
    // attribution layer reads without tracing enabled. The two phases
    // tile the task: the first starts here, the last ends with the net
    // delta.
    let dred_overdelete = trace::span("datalog", "dred.overdelete");
    let mut overdelete_f = flight::span(FlightCode::DredOverdelete);
    let overdelete_t0 = Instant::now();

    let all: Vec<&CRule> = rules.iter().collect();
    let input_lists = delta_lists(input);
    let view = OldView::new(loan, input);
    let mut jobs = delta_pin_jobs(&all, &input_lists, true);
    jobs.extend(unpinned(false));
    let first = eval_pin_jobs(&view, &jobs, |head, t| view.relation(head).contains(t));
    let deleted = overdelete(&view, &all, scc_preds, first);
    for (&p, ts) in &deleted {
        let rel = loan.head_mut(p);
        for t in ts {
            rel.remove(t);
        }
    }
    #[cfg(test)]
    if !deleted.is_empty() && tests::PANIC_AFTER_PHASE_1.replace(false) {
        panic!("fault-injected panic: update_scc, after phase 1 took rows out");
    }
    let overdeleted: usize = deleted.values().map(|s| s.len()).sum();
    incr_obs::registry()
        .counter("datalog.dred.overdelete_ns")
        .add(overdelete_t0.elapsed().as_nanos() as u64);
    overdelete_f.set_arg(overdeleted as u64);
    drop(overdelete_f);
    dred_overdelete.end_args(vec![("overdeleted", (overdeleted as u64).into())]);

    // ---- Phase 2: insertions (added inputs, removed blockers, added rule). ----
    // All pins evaluate against what phase 1 left; anything one insertion
    // enables through a clique predicate is picked up by the semi-naive
    // rounds (the seed carries every insert).
    let dred_insert = trace::span("datalog", "dred.insert");
    let mut insert_f = flight::span(FlightCode::DredInsert);
    let insert_t0 = Instant::now();
    let mut jobs = delta_pin_jobs(&all, &input_lists, false);
    jobs.extend(unpinned(true));
    let gained = eval_pin_jobs(&*loan, &jobs, |head, t| !loan.relation(head).contains(t));
    let mut seed: Map<PredId, Set<Tuple>> = Map::default();
    for (p, t) in gained {
        if loan.head_mut(p).insert(t.clone()) {
            seed.entry(p).or_default().insert(t);
        }
    }
    let inserted_seed: usize = seed.values().map(|s| s.len()).sum();
    let out = insert_and_net(loan, rules, scc_preds, deleted, seed);
    incr_obs::registry()
        .counter("datalog.dred.insert_ns")
        .add(insert_t0.elapsed().as_nanos() as u64);
    insert_f.set_arg(inserted_seed as u64);
    drop(insert_f);
    dred_insert.end_args(vec![("seed_inserts", (inserted_seed as u64).into())]);
    out
}

/// Is the raw head tuple `t` derivable through `rule` in `db`? `bind` and
/// `trail` are [`walk_head`]'s buffers, the caller's to reuse.
fn derivable(
    db: &dyn Rels,
    rule: &CRule,
    t: &[Value],
    bind: &mut Vec<Option<Value>>,
    trail: &mut Vec<u32>,
) -> bool {
    !walk_head(db, rule, t, bind, trail, &mut |_| false)
}

/// The live tuple of the group `key` of `rule`'s head — the group's
/// accumulator — read through the head index on the group key.
fn group_tuple(live: &Loan<'_>, rule: &CRule, agg: CAgg, key: &[Value]) -> Option<Tuple> {
    let head = live.relation(rule.head.pred);
    let cols = agg.group_cols(rule.head.terms.len());
    if cols.is_empty() {
        // No group columns: one group, at most one tuple.
        return head.iter().next().cloned();
    }
    match head.probe(&cols, key) {
        Some(rows) => rows.iter().next().cloned(),
        // Not reached: the index is ensured with the rule's plans.
        None => head
            .iter()
            .find(|t| cols.iter().zip(key).all(|(&c, v)| t[c] == *v))
            .cloned(),
    }
}

/// Maintain an aggregate clique from its input deltas, paying for the
/// delta and the groups it touches, never for the groups it does not.
///
/// The rule's delta pins find the *raw* head bindings (group key plus the
/// aggregated value) whose derivations the update destroyed, over the old
/// view, or created, over the new state. A destroyed-derivation candidate
/// was derivable before, so it is lost iff no derivation is left now; a
/// created-derivation one is derivable now, so it is gained iff none
/// existed before — one head-bound walk each, in the other state. A sale
/// that has a duplicate, or a product with two sales, changes nothing. A
/// rule just `added` had no bindings before, so every one it has is gained
/// (and its head holds no tuple: an aggregate is alone in its predicate).
///
/// The group's live tuple is its accumulator: `count` adds the gained and
/// subtracts the lost values (its tuple goes at 0), `sum` does the same
/// with their `Int`s in wrapping arithmetic ([`fold`]), `min`/`max` take
/// the better of the old extreme and the gained values. One group-bound
/// walk ([`walk_group`]) is needed only when a `min`/`max` group lost its
/// extreme (re-fold the group) or a `sum` group lost `Int`s and gained none
/// (is any `Int` left?). Nothing lives outside the relation, so
/// `abort_open_epoch` undoes this like any other write and pinned
/// snapshots keep reading their epoch.
fn maintain_aggregate(
    loan: &mut Loan<'_>,
    rule: &CRule,
    agg: CAgg,
    input: &Map<PredId, Delta>,
    added: bool,
) -> Map<PredId, Delta> {
    let span = trace::span("datalog", "agg.maintain");
    let mut fspan = flight::span(FlightCode::AggMaintain);
    let _timer = ScopeCounter {
        counter: "datalog.agg.maintain_ns",
        t0: Instant::now(),
    };
    let lists = delta_lists(input);
    // `(group key, value, gained)` per raw tuple whose derivability changed.
    let mut raw: Vec<(Tuple, Value, bool)> = Vec::new();
    let (mut bind, mut trail) = (Vec::new(), Vec::new());
    {
        let view = OldView::new(loan, input);
        let (old, new): (&dyn Rels, &dyn Rels) = (&view, view.live);
        // Destruction pins run where the derivations were, construction
        // pins where they are; each candidate is checked in the other state.
        for (gained, pinned, other) in [(false, old, new), (true, new, old)] {
            let jobs = match (added, gained) {
                (false, _) => delta_pin_jobs(&[rule], &lists, !gained),
                (true, true) => vec![(rule, None)],
                (true, false) => continue,
            };
            for (_, mut t) in eval_pin_jobs(pinned, &jobs, |_, _| true) {
                if added || !derivable(other, rule, &t, &mut bind, &mut trail) {
                    let v = t.remove(agg.pos);
                    raw.push((t, v, gained));
                }
            }
        }
    }
    // Sorted by key, so the groups are visited, and their rows written, in
    // one order.
    raw.sort_unstable();
    let head = rule.head.pred;
    let mut delta = Delta::default();
    let (mut changed, mut refolds) = (0u64, 0u64);
    for group in raw.chunk_by(|a, b| a.0 == b.0) {
        let key = &group[0].0;
        let values = |gained: bool| -> Vec<Value> {
            group.iter().filter(|r| r.2 == gained).map(|r| r.1).collect()
        };
        let old = group_tuple(loan, rule, agg, key);
        let old_value = old.as_ref().map(|t| t[agg.pos]);
        let (gained, lost) = (values(true), values(false));
        let (new_value, walks) = fold_change(loan, rule, agg, key, old_value, &gained, &lost);
        refolds += walks;
        if new_value == old_value {
            continue;
        }
        changed += 1;
        if let Some(t) = old {
            loan.head_mut(head).remove(&t);
            delta.removed.insert(t);
        }
        if let Some(v) = new_value {
            let mut t = key.clone();
            t.insert(agg.pos, v);
            loan.head_mut(head).insert(t.clone());
            delta.added.insert(t);
        }
    }
    let reg = incr_obs::registry();
    reg.counter("datalog.agg.groups_changed").add(changed);
    reg.counter("datalog.agg.refolds").add(refolds);
    fspan.set_arg(changed);
    drop(fspan);
    span.end_args(vec![("groups_changed", changed.into())]);
    Map::from_iter([(head, delta)])
}

/// The new aggregated value of the group `key`, from its old one and the
/// raw values it `gained` and `lost`; `None` when the group folds to
/// nothing; and how many group-bound walks it took.
fn fold_change(
    live: &Loan<'_>,
    rule: &CRule,
    agg: CAgg,
    key: &[Value],
    old: Option<Value>,
    gained: &[Value],
    lost: &[Value],
) -> (Option<Value>, u64) {
    let int = |v: &Value| match v {
        Value::Int(i) => Some(*i),
        Value::Sym(_) => None,
    };
    let old_int = old.as_ref().and_then(int);
    let mut walks = 0;
    // Visit the value of every binding of the group now, until `leaf`
    // says stop; true iff it did.
    let mut walk = |leaf: &mut dyn FnMut(Value) -> bool| {
        walks += 1;
        !walk_group(live, rule, key, &mut |b| b[agg.slot as usize].is_none_or(&mut *leaf))
    };
    let new = match agg.op {
        AggOp::Count => {
            let n = old_int.unwrap_or(0) + gained.len() as i64 - lost.len() as i64;
            (n > 0).then_some(Value::Int(n))
        }
        AggOp::Sum => {
            let sum = |vals: &[Value]| vals.iter().filter_map(int).fold(0, i64::wrapping_add);
            let total = old_int.unwrap_or(0).wrapping_add(sum(gained)).wrapping_sub(sum(lost));
            // An `Int` is left if one was gained, or if there were some and
            // none was lost; else look for one.
            let has_int = |vals: &[Value]| vals.iter().any(|v| int(v).is_some());
            let left = has_int(gained)
                || (old.is_some() && (!has_int(lost) || walk(&mut |v| int(&v).is_none())));
            left.then_some(Value::Int(total))
        }
        AggOp::Min | AggOp::Max => {
            let mut vals: Vec<Value> = gained.to_vec();
            if old.is_some_and(|e| lost.contains(&e)) {
                // The extreme left: re-fold what the group holds now.
                walk(&mut |v| {
                    vals.push(v);
                    true
                });
            } else {
                vals.extend(old);
            }
            fold(agg.op, &vals)
        }
    };
    (new, walks)
}

/// Exact old-vs-new extent diff for the clique predicates — the oracle
/// the tracked net deltas are tested against.
#[cfg(test)]
pub(crate) fn net_deltas(
    db: &crate::rel::Database,
    scc_preds: &[PredId],
    old_scc: &Map<PredId, Relation>,
) -> Map<PredId, Delta> {
    let mut out: Map<PredId, Delta> = Map::default();
    for &p in scc_preds {
        let old_rel = &old_scc[&p];
        let new_rel = db.rel(p);
        let mut d = Delta::default();
        for t in new_rel.iter() {
            if !old_rel.contains(t) {
                d.added.insert(t.clone());
            }
        }
        for t in old_rel.iter() {
            if !new_rel.contains(t) {
                d.removed.insert(t.clone());
            }
        }
        out.insert(p, d);
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::eval::{compile_program, ensure_indices, load_facts, naive_fixpoint};
    use crate::parser::parse_program;
    use crate::rel::Database;
    use std::cell::Cell;

    thread_local! {
        /// Armed, the next [`update_scc`] on this thread that takes rows out
        /// of its heads panics right after phase 1, and disarms it: a fault
        /// inside a clique task, for the lattice and the engine's rollback
        /// tests.
        pub(crate) static PANIC_AFTER_PHASE_1: Cell<bool> = const { Cell::new(false) };
    }

    /// Build a database + compiled rules, fully materialized, with every
    /// plan's index built.
    fn setup(src: &str) -> (Database, Vec<CRule>) {
        let prog = parse_program(src).unwrap();
        let mut db = Database::new();
        let rules = compile_program(&prog, &mut db);
        load_facts(&prog, &mut db);
        naive_fixpoint(&mut db, &rules);
        ensure_indices(&mut db, &rules, true);
        (db, rules)
    }

    /// Recompute from scratch after editing base facts — ground truth.
    fn recompute(src: &str) -> Database {
        let (db, _) = setup(src);
        db
    }

    const TC: &str = "path(X, Y) :- edge(X, Y).\n\
                      path(X, Z) :- path(X, Y), edge(Y, Z).\n";

    fn tc_update(
        db: &mut Database,
        rules: &[CRule],
        add: &[(&str, &str)],
        del: &[(&str, &str)],
    ) -> Map<PredId, Delta> {
        let edge = db.pred_id("edge").unwrap();
        let path = db.pred_id("path").unwrap();
        let mut d = Delta::default();
        for (a, b) in add {
            let t = vec![db.sym(a), db.sym(b)];
            if db.rel_mut(edge).insert(t.clone()) {
                d.added.insert(t);
            }
        }
        for (a, b) in del {
            let t = vec![db.sym(a), db.sym(b)];
            if db.rel_mut(edge).remove(&t) {
                d.removed.insert(t);
            }
        }
        let input = Map::from_iter([(edge, d)]);
        let path_rules: Vec<CRule> = rules
            .iter()
            .filter(|r| r.head.pred == path)
            .cloned()
            .collect();
        update_scc(&mut db.lend(&[path]), &path_rules, &[path], &input, None)
    }

    #[test]
    fn insertion_matches_recompute() {
        let base = format!("{TC} edge(a, b). edge(b, c).");
        let (mut db, rules) = setup(&base);
        tc_update(&mut db, &rules, &[("c", "d")], &[]);
        let truth = recompute(&format!("{base} edge(c, d)."));
        let p1 = db.pred_id("path").unwrap();
        let p2 = truth.pred_id("path").unwrap();
        assert_eq!(db.rel(p1).len(), truth.rel(p2).len());
        assert!(db.has_fact("path", &["a", "d"]));
    }

    #[test]
    fn deletion_matches_recompute() {
        let (mut db, rules) = setup(&format!("{TC} edge(a, b). edge(b, c). edge(a, c)."));
        // Remove edge(b, c): path(a, c) survives via edge(a, c).
        let out = tc_update(&mut db, &rules, &[], &[("b", "c")]);
        assert!(db.has_fact("path", &["a", "c"]), "alternative derivation survives");
        assert!(!db.has_fact("path", &["b", "c"]));
        let path = db.pred_id("path").unwrap();
        let d = &out[&path];
        assert!(d.removed.contains(&vec![
            db.interner.get("b").map(crate::value::Value::Sym).unwrap(),
            db.interner.get("c").map(crate::value::Value::Sym).unwrap()
        ]));
        assert!(!d.removed.iter().any(|t| {
            t == &vec![
                db.interner.get("a").map(crate::value::Value::Sym).unwrap(),
                db.interner.get("c").map(crate::value::Value::Sym).unwrap(),
            ]
        }), "rederived fact is not a net removal");
    }

    #[test]
    fn deletion_cascades_through_recursion() {
        let (mut db, rules) = setup(&format!("{TC} edge(a, b). edge(b, c). edge(c, d)."));
        tc_update(&mut db, &rules, &[], &[("a", "b")]);
        let truth = recompute(&format!("{TC} edge(b, c). edge(c, d)."));
        let p = db.pred_id("path").unwrap();
        let q = truth.pred_id("path").unwrap();
        assert_eq!(db.rel(p).sorted().len(), truth.rel(q).sorted().len());
        assert!(!db.has_fact("path", &["a", "d"]));
        assert!(db.has_fact("path", &["b", "d"]));
    }

    #[test]
    fn cyclic_deletion_rederives_correctly() {
        // Cycle a->b->c->a plus chord a->c. Deleting b->c keeps a->c
        // reachable; facts inside the cycle must be rederived carefully.
        let (mut db, rules) = setup(&format!(
            "{TC} edge(a, b). edge(b, c). edge(c, a). edge(a, c)."
        ));
        tc_update(&mut db, &rules, &[], &[("b", "c")]);
        let truth = recompute(&format!("{TC} edge(a, b). edge(c, a). edge(a, c)."));
        let p = db.pred_id("path").unwrap();
        let q = truth.pred_id("path").unwrap();
        assert_eq!(db.rel(p).sorted(), {
            // Compare via display-independent canonical form: lengths and
            // membership (interners may differ in sym ids).
            let mut v = truth.rel(q).sorted();
            v.sort();
            // Both databases interned a,b,c in the same first-mention
            // order, so raw comparison is meaningful.
            v
        });
    }

    #[test]
    fn mixed_add_and_delete() {
        let (mut db, rules) = setup(&format!("{TC} edge(a, b). edge(b, c)."));
        tc_update(&mut db, &rules, &[("c", "d")], &[("a", "b")]);
        assert!(!db.has_fact("path", &["a", "c"]));
        assert!(db.has_fact("path", &["b", "d"]));
        assert!(!db.has_fact("path", &["a", "d"]));
    }

    #[test]
    fn no_net_change_yields_empty_delta() {
        // Deleting and re-adding the same edge in one update.
        let (mut db, rules) = setup(&format!("{TC} edge(a, b)."));
        let edge = db.pred_id("edge").unwrap();
        let path = db.pred_id("path").unwrap();
        // Delta with same tuple added and removed: relation unchanged.
        let input = Map::from_iter([(edge, Delta::default())]);
        let path_rules: Vec<CRule> = rules
            .iter()
            .filter(|r| r.head.pred == path)
            .cloned()
            .collect();
        let out = update_scc(&mut db.lend(&[path]), &path_rules, &[path], &input, None);
        assert!(out[&path].is_empty());
    }

    #[test]
    fn negation_insertion_removes_dependents() {
        // banned(X) appears -> allowed(X) disappears.
        let src = "allowed(X) :- user(X), !banned(X).\n\
                   user(u1). user(u2). banned(u2).";
        let (mut db, rules) = setup(src);
        assert!(db.has_fact("allowed", &["u1"]));
        assert!(!db.has_fact("allowed", &["u2"]));
        // Ban u1.
        let banned = db.pred_id("banned").unwrap();
        let allowed = db.pred_id("allowed").unwrap();
        let t = vec![db.sym("u1")];
        db.rel_mut(banned).insert(t.clone());
        let mut d = Delta::default();
        d.added.insert(t);
        let input = Map::from_iter([(banned, d)]);
        let arules: Vec<CRule> = rules
            .iter()
            .filter(|r| r.head.pred == allowed)
            .cloned()
            .collect();
        let out = update_scc(&mut db.lend(&[allowed]), &arules, &[allowed], &input, None);
        assert!(!db.has_fact("allowed", &["u1"]), "insertion through negation deletes");
        assert_eq!(out[&allowed].removed.len(), 1);
    }

    #[test]
    fn negation_deletion_adds_dependents() {
        let src = "allowed(X) :- user(X), !banned(X).\n\
                   user(u1). user(u2). banned(u2).";
        let (mut db, rules) = setup(src);
        // Unban u2.
        let banned = db.pred_id("banned").unwrap();
        let allowed = db.pred_id("allowed").unwrap();
        let t = vec![db.sym("u2")];
        db.rel_mut(banned).remove(&t);
        let mut d = Delta::default();
        d.removed.insert(t);
        let input = Map::from_iter([(banned, d)]);
        let arules: Vec<CRule> = rules
            .iter()
            .filter(|r| r.head.pred == allowed)
            .cloned()
            .collect();
        let out = update_scc(&mut db.lend(&[allowed]), &arules, &[allowed], &input, None);
        assert!(db.has_fact("allowed", &["u2"]), "deletion through negation derives");
        assert_eq!(out[&allowed].added.len(), 1);
    }

    #[test]
    fn rule_changes_compute_net_deltas() {
        let (mut db, rules) = setup(&format!("{TC} edge(a, b). edge(b, c)."));
        let path = db.pred_id("path").unwrap();
        let path_rules: Vec<CRule> = rules
            .iter()
            .filter(|r| r.head.pred == path)
            .cloned()
            .collect();
        let (single, recursive): (Vec<CRule>, Vec<CRule>) =
            path_rules.iter().cloned().partition(|r| r.body.len() == 1);
        let change = |added| RuleChange {
            rule: recursive[0].clone(),
            added,
        };
        let none = Map::default();
        // Drop the recursive rule: the closure shrinks to the base edges.
        let out = update_scc(&mut db.lend(&[path]), &single, &[path], &none, Some(&change(false)));
        assert_eq!(out[&path].removed.len(), 1, "path(a, c) lost");
        assert!(out[&path].added.is_empty());
        assert_eq!(db.rel(path).len(), 2);
        // Add it back: its output seeds the semi-naive rounds.
        let out = update_scc(&mut db.lend(&[path]), &path_rules, &[path], &none, Some(&change(true)));
        assert_eq!(out[&path].added.len(), 1, "path(a, c) back");
        assert!(out[&path].removed.is_empty());
        assert_eq!(db.rel(path).len(), 3);
    }

    #[test]
    fn double_negation_reason_overdeletes() {
        // Derivation relying on two absences, both of which appear in one
        // update — the case requiring old-state evaluation.
        let src = "ok(X) :- item(X), !flag1(X), !flag2(X).\n\
                   item(i). flag1(z). flag2(z).";
        let (mut db, rules) = setup(src);
        assert!(db.has_fact("ok", &["i"]));
        let f1 = db.pred_id("flag1").unwrap();
        let f2 = db.pred_id("flag2").unwrap();
        let ok = db.pred_id("ok").unwrap();
        let t = vec![db.sym("i")];
        db.rel_mut(f1).insert(t.clone());
        db.rel_mut(f2).insert(t.clone());
        let mut d1 = Delta::default();
        d1.added.insert(t.clone());
        let mut d2 = Delta::default();
        d2.added.insert(t);
        let input = Map::from_iter([(f1, d1), (f2, d2)]);
        let orules: Vec<CRule> = rules
            .iter()
            .filter(|r| r.head.pred == ok)
            .cloned()
            .collect();
        update_scc(&mut db.lend(&[ok]), &orules, &[ok], &input, None);
        assert!(!db.has_fact("ok", &["i"]), "both blockers appeared at once");
    }
}
