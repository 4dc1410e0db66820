//! Grounded proof search over one clique: does a tuple of the old extent
//! still hold once the inputs have changed? [`crate::incr::overdelete`]
//! asks about every candidate *before* taking it out — the backward/forward
//! step of Hu, Motik and Horrocks's B/F algorithm — so a tuple that merely
//! lost one of several derivations is never deleted, never cascades and
//! never has to be derived again.
//!
//! A clique fact is **proved** iff some instance of a rule with it as
//! head — enumerated with the head-bound plan over the task's loan,
//! inputs already new and clique extents still old — has every clique body
//! fact proved. An instance of an **exit rule** (one with no clique body
//! atom: a non-recursive rule, a program fact's empty body) proves its head
//! outright, so a fact is tried against the exit rules the moment it is
//! first seen, and one they prove is never queued.
//!
//! The search runs backward from the candidate (expanding a queued fact
//! enumerates its instances under the recursive rules and sees their body
//! facts) and proofs run forward over the instances explored so far
//! (proving a fact counts down the instances waiting for it), neither
//! recursing over facts: closures are 10⁴–10⁵ deep. The invariants:
//!
//! * **Proofs are grounded.** A fact is only proved from facts proved
//!   before it, so facts that support nothing but each other stay unproved.
//! * **`false` is final.** [`Prover::check`] gives up only when nothing is
//!   left to expand: whatever has a proof through old-extent facts is then
//!   proved, and what is explored and unproved has none.
//! * **Proved facts are never deleted**, and each fact is expanded at most
//!   once per task: nothing is forgotten between a task's candidates.
//!
//! A fact is named by its row in the clique's relation: the clique's
//! relations are not written until overdeletion is decided, so for the
//! prover's whole life a row holds one tuple and a tuple one row. A proof
//! therefore copies no tuple, and one waiter arena holds every fact's
//! waiting instances: what a proof allocates grows with the facts and
//! instances it explores, in a few vectors, never per fact.

use crate::eval::{instantiate, walk_head, CRule, Rels};
use crate::hash::Map;
use crate::rel::PredId;
use crate::value::{Key, Value};

/// A fact: an index into [`Prover::facts`].
type FactId = u32;

/// End of a waiter list.
const NIL: u32 = u32::MAX;

struct Fact {
    pred: PredId,
    /// The fact's row in its clique relation, which holds its tuple.
    row: u32,
    proved: bool,
    /// The first entry of this fact's waiter list in [`Prover::waiters`]
    /// (or [`NIL`]): explored instances with this fact in their body, one
    /// entry per occurrence; cut loose when the fact is proved.
    waiters: u32,
}

/// An explored rule instance some of whose clique body facts are unproved.
struct Instance {
    head: FactId,
    /// Body-fact occurrences not proved yet.
    unproved: u32,
}

/// `walk_head`'s caller-owned buffers.
type WalkBuffers = (Vec<Option<Value>>, Vec<u32>);

pub(crate) struct Prover<'a> {
    /// The live relations: inputs new, the clique's extents still old.
    db: &'a dyn Rels,
    /// The clique's rules with no clique body atom, tried on sight.
    exit: Vec<&'a CRule>,
    /// The others, tried on a fact the exit rules left unproved.
    recursive: Vec<&'a CRule>,
    clique: &'a [PredId],
    ids: Map<(PredId, u32), FactId>,
    facts: Vec<Fact>,
    instances: Vec<Instance>,
    /// Every waiter list: `(instance, next entry of the same list)`.
    waiters: Vec<(u32, u32)>,
    /// Facts the exit rules left unproved and not expanded yet, last in
    /// first out.
    unexpanded: Vec<FactId>,
    /// The body facts of the instance being recorded.
    body: Vec<FactId>,
    /// Proved facts whose waiters are not counted down yet.
    newly: Vec<FactId>,
    /// For the expansion walk and, inside it, the on-sight exit walks.
    expansion_walk: WalkBuffers,
    sight_walk: WalkBuffers,
    /// Facts seen so far, each tried once on sight and expanded at most
    /// once more (`datalog.dred.proof_expansions`).
    pub(crate) expansions: u64,
}

impl<'a> Prover<'a> {
    pub(crate) fn new(db: &'a dyn Rels, rules: &'a [&'a CRule], clique: &'a [PredId]) -> Self {
        let (recursive, exit) = rules.iter().partition(|r| r.reads_any(clique));
        Prover {
            db,
            exit,
            recursive,
            clique,
            ids: Map::default(),
            facts: Vec::new(),
            instances: Vec::new(),
            waiters: Vec::new(),
            unexpanded: Vec::new(),
            body: Vec::new(),
            newly: Vec::new(),
            expansion_walk: WalkBuffers::default(),
            sight_walk: WalkBuffers::default(),
            expansions: 0,
        }
    }

    /// Does the old-extent tuple `t` of clique predicate `pred` hold in
    /// the new state, by a proof through old-extent facts? Panics if `t`
    /// is not in `pred`'s extent: a candidate that is not there has
    /// nothing to lose, and answering `false` would delete it and cascade.
    #[allow(clippy::expect_used, reason = "the documented precondition")]
    pub(crate) fn check(&mut self, pred: PredId, t: &[Value]) -> bool {
        let row = self.db.relation(pred).row_of(t);
        let candidate = self.id_of(
            pred,
            row.expect("a candidate is a tuple of its clique relation"),
        );
        while !self.facts[candidate as usize].proved {
            match self.unexpanded.pop() {
                Some(f) if !self.facts[f as usize].proved => self.expand(f),
                Some(_) => {}
                None => return false,
            }
        }
        true
    }

    /// The id of a clique fact. A fact seen for the first time is tried
    /// against the exit rules and proved, or else queued for expansion.
    fn id_of(&mut self, pred: PredId, row: u32) -> FactId {
        let id = self.facts.len() as FactId;
        if let Some(&seen) = self.ids.get(&(pred, row)) {
            return seen;
        }
        self.ids.insert((pred, row), id);
        self.facts.push(Fact {
            pred,
            row,
            proved: false,
            waiters: NIL,
        });
        self.expansions += 1;
        let (db, t) = (self.db, self.db.relation(pred).tuple_at(row));
        let (bind, trail) = &mut self.sight_walk;
        let mut exits = self.exit.iter().filter(|r| r.head.pred == pred);
        if exits.any(|rule| !walk_head(db, rule, t, bind, trail, &mut |_| false)) {
            self.prove(id);
        } else {
            self.unexpanded.push(id);
        }
        id
    }

    /// Enumerate the instances of the recursive rules with `f` as head
    /// until one has no unproved body fact; the others wait for theirs.
    fn expand(&mut self, f: FactId) {
        let (db, pred, row) = (
            self.db,
            self.facts[f as usize].pred,
            self.facts[f as usize].row,
        );
        let tuple = db.relation(pred).tuple_at(row);
        let (mut bind, mut trail) = std::mem::take(&mut self.expansion_walk);
        let mut proved = false;
        for i in 0..self.recursive.len() {
            let rule = self.recursive[i];
            if rule.head.pred == pred {
                let mut leaf = |b: &[Option<Value>]| self.record(f, rule, b);
                if !walk_head(db, rule, tuple, &mut bind, &mut trail, &mut leaf) {
                    proved = true;
                    break;
                }
            }
        }
        self.expansion_walk = (bind, trail);
        if proved {
            self.prove(f);
        }
    }

    /// Record the instance of `rule` at `bind`, whose head is `f`. Returns
    /// whether to look for another: not once `f` is proved.
    #[allow(
        clippy::expect_used,
        reason = "the walk matched the atom against that relation"
    )]
    fn record(&mut self, f: FactId, rule: &CRule, bind: &[Option<Value>]) -> bool {
        // Every body fact is seen (and so maybe proved on sight) before the
        // instance waits on any: a proof on sight must not count down an
        // instance that is not recorded yet. Negation never reaches into a
        // rule's own clique (stratification), so clique literals are
        // positive.
        let clique = self.clique;
        for (atom, _) in rule.body.iter().filter(|(a, _)| clique.contains(&a.pred)) {
            let body_fact: Key = instantiate(atom, bind);
            let row = self.db.relation(atom.pred).row_of(&body_fact);
            let g = self.id_of(atom.pred, row.expect("a body fact is in its relation"));
            self.body.push(g);
        }
        let instance = self.instances.len() as u32;
        let mut unproved = 0;
        for g in self.body.drain(..) {
            let fact = &mut self.facts[g as usize];
            if !fact.proved {
                self.waiters.push((instance, fact.waiters));
                fact.waiters = (self.waiters.len() - 1) as u32;
                unproved += 1;
            }
        }
        if unproved > 0 {
            self.instances.push(Instance { head: f, unproved });
        }
        unproved > 0 && !self.facts[f as usize].proved
    }

    /// Mark `f` proved and, forward over the explored instances, every
    /// head whose last unproved body fact this settles.
    fn prove(&mut self, f: FactId) {
        self.newly.push(f);
        while let Some(g) = self.newly.pop() {
            let fact = &mut self.facts[g as usize];
            if std::mem::replace(&mut fact.proved, true) {
                continue;
            }
            let mut at = std::mem::replace(&mut fact.waiters, NIL);
            while at != NIL {
                let (i, next) = self.waiters[at as usize];
                let instance = &mut self.instances[i as usize];
                instance.unproved -= 1;
                if instance.unproved == 0 {
                    self.newly.push(instance.head);
                }
                at = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{compile_program, ensure_indices, load_facts, naive_fixpoint};
    use crate::parser::parse_program;
    use crate::rel::Database;
    use crate::value::Tuple;

    /// Materialise `src`, then take `removed` out of and put `added` into
    /// `edge` — the state a clique task finds: inputs new, its own extent
    /// old.
    fn after_edit(src: &str, removed: &[[&str; 2]], added: &[[&str; 2]]) -> (Database, Vec<CRule>) {
        let program = parse_program(src).unwrap();
        let mut db = Database::new();
        let rules = compile_program(&program, &mut db);
        load_facts(&program, &mut db);
        naive_fixpoint(&mut db, &rules);
        ensure_indices(&mut db, &rules, true);
        let edge = db.pred_id("edge").unwrap();
        for [a, b] in removed {
            let t = vec![db.sym(a), db.sym(b)];
            assert!(db.rel_mut(edge).remove(&t));
        }
        for [a, b] in added {
            let t = vec![db.sym(a), db.sym(b)];
            assert!(db.rel_mut(edge).insert(t));
        }
        (db, rules)
    }

    /// Which of `facts` (tuples of `pred`) a prover over all of `rules`
    /// proves — asked in the order given.
    fn proved(db: &mut Database, rules: &[CRule], pred: &str, facts: &[&[&str]]) -> Vec<bool> {
        let tuples: Vec<Tuple> = facts
            .iter()
            .map(|f| f.iter().map(|s| db.sym(s)).collect())
            .collect();
        let pred = db.pred_id(pred).unwrap();
        let rules: Vec<&CRule> = rules.iter().filter(|r| r.head.pred == pred).collect();
        let clique = [pred];
        let mut prover = Prover::new(db, &rules, &clique);
        let answers = tuples.iter().map(|t| prover.check(pred, t)).collect();
        assert!(
            prover.expansions <= db.rel(pred).len() as u64,
            "a fact is expanded once"
        );
        answers
    }

    #[test]
    fn facts_that_only_support_each_other_are_not_proved() {
        // b and c reach each other; only edge(a, b) grounded the pair.
        let (mut db, rules) = after_edit(
            "reach(X) :- start(X).\n\
             reach(Y) :- reach(X), edge(X, Y).\n\
             start(a). edge(a, b). edge(b, c). edge(c, b).",
            &[["a", "b"]],
            &[],
        );
        assert_eq!(
            proved(&mut db, &rules, "reach", &[&["b"], &["c"], &["a"]]),
            [false, false, true]
        );
    }

    #[test]
    fn a_proof_may_run_through_an_added_input() {
        // path(a, c) loses its derivation through b and gains edge(a, c) in
        // the same update; path(b, c) gains nothing.
        let (mut db, rules) = after_edit(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), edge(Y, Z).\n\
             edge(a, b). edge(b, c).",
            &[["b", "c"]],
            &[["a", "c"]],
        );
        assert_eq!(
            proved(
                &mut db,
                &rules,
                "path",
                &[&["a", "c"], &["b", "c"], &["a", "b"]]
            ),
            [true, false, true]
        );
    }

    #[test]
    fn an_instance_waits_for_every_body_fact() {
        // Non-linear closure of a -> b -> c -> d plus a -> c, with b -> c
        // taken out. path(a, d) is only path(a, c), path(c, d) now, both
        // unproved when the instance is found and both proved later;
        // path(b, d) was path(b, c), path(c, d), of which one is gone for
        // good, so the other being proved must not be enough.
        let (mut db, rules) = after_edit(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), path(Y, Z).\n\
             edge(a, b). edge(b, c). edge(c, d). edge(a, c).",
            &[["b", "c"]],
            &[],
        );
        assert_eq!(
            proved(
                &mut db,
                &rules,
                "path",
                &[&["a", "d"], &["b", "d"], &["b", "c"], &["c", "d"]]
            ),
            [true, false, false, true]
        );
    }

    /// A prover over the clique of `pred` alone, its rules taken from
    /// `rules`, asked about the tuple `fact`: the answer, the facts seen
    /// (`expansions`) and the facts left queued for a recursive expansion.
    fn check_one(
        db: &mut Database,
        rules: &[CRule],
        pred: &str,
        fact: &[&str],
    ) -> (bool, u64, usize) {
        let t: Tuple = fact.iter().map(|s| db.sym(s)).collect();
        let pred = db.pred_id(pred).unwrap();
        let rules: Vec<&CRule> = rules.iter().filter(|r| r.head.pred == pred).collect();
        let clique = [pred];
        let mut prover = Prover::new(db, &rules, &clique);
        let answer = prover.check(pred, &t);
        (answer, prover.expansions, prover.unexpanded.len())
    }

    #[test]
    fn an_exit_derivation_proves_a_candidate_on_sight() {
        // path(a, b) lost nothing it needs: edge(a, b) proves it the
        // moment it is seen, with no recursive rule tried and nothing
        // queued.
        let (mut db, rules) = after_edit(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), edge(Y, Z).\n\
             edge(a, b). edge(b, c). edge(c, a).",
            &[["c", "a"]],
            &[],
        );
        assert_eq!(
            check_one(&mut db, &rules, "path", &["a", "b"]),
            (true, 1, 0)
        );
    }

    #[test]
    fn body_facts_proved_on_sight_prove_their_instance_without_expansion() {
        // path(a, c) lost its edge; its one recursive instance is
        // path(a, b), path(b, c), both proved by their edges when first
        // seen. So the instance proves the candidate and neither body fact
        // is ever queued: three facts seen, nothing left to expand.
        let (mut db, rules) = after_edit(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), path(Y, Z).\n\
             edge(a, b). edge(b, c). edge(a, c).",
            &[["a", "c"]],
            &[],
        );
        assert_eq!(
            check_one(&mut db, &rules, "path", &["a", "c"]),
            (true, 3, 0)
        );
    }

    #[test]
    #[should_panic(expected = "a candidate is a tuple of its clique relation")]
    fn a_candidate_outside_the_extent_is_refused() {
        // path(b, a) never held: answering `false` would have it deleted.
        let (mut db, rules) = after_edit(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), edge(Y, Z).\n\
             edge(a, b).",
            &[],
            &[],
        );
        check_one(&mut db, &rules, "path", &["b", "a"]);
    }
}
