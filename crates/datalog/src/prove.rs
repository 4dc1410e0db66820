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
//! fact proved. An instance with no clique body fact (a non-recursive rule,
//! a program fact's empty body) proves its head outright.
//!
//! The search runs backward from the candidate (expanding a fact enumerates
//! its instances and queues their unseen body facts) and proofs run forward
//! over the instances explored so far (proving a fact counts down the
//! instances waiting for it), neither recursing over facts: closures are
//! 10⁴–10⁵ deep. The invariants:
//!
//! * **Proofs are grounded.** A fact is only proved from facts proved
//!   before it, so facts that support nothing but each other stay unproved.
//! * **`false` is final.** [`Prover::check`] gives up only when nothing is
//!   left to expand: whatever has a proof through old-extent facts is then
//!   proved, and what is explored and unproved has none.
//! * **Proved facts are never deleted**, and each fact is expanded at most
//!   once per task: nothing is forgotten between a task's candidates.

use crate::eval::{instantiate, walk_head, CRule, Rels};
use crate::hash::Map;
use crate::rel::PredId;
use crate::value::{Key, Value};
use std::rc::Rc;

struct Fact {
    pred: PredId,
    tuple: Rc<[Value]>,
    proved: bool,
    /// Explored instances with this fact in their body, one entry per
    /// occurrence; emptied when the fact is proved.
    waiting: Vec<usize>,
}

/// An explored rule instance some of whose clique body facts are unproved.
struct Instance {
    head: usize,
    /// Body-fact occurrences not proved yet.
    unproved: u32,
}

pub(crate) struct Prover<'a> {
    /// The live relations: inputs new, the clique's extents still old.
    db: &'a dyn Rels,
    rules: &'a [&'a CRule],
    clique: &'a [PredId],
    /// Fact ids (indices into `facts`), per clique predicate.
    ids: Map<PredId, Map<Rc<[Value]>, usize>>,
    facts: Vec<Fact>,
    instances: Vec<Instance>,
    /// Facts seen in a body and not expanded yet, last in first out.
    unexpanded: Vec<usize>,
    /// Facts expanded so far (`datalog.dred.proof_expansions`).
    pub(crate) expansions: u64,
}

impl<'a> Prover<'a> {
    pub(crate) fn new(db: &'a dyn Rels, rules: &'a [&'a CRule], clique: &'a [PredId]) -> Self {
        Prover {
            db,
            rules,
            clique,
            ids: Map::default(),
            facts: Vec::new(),
            instances: Vec::new(),
            unexpanded: Vec::new(),
            expansions: 0,
        }
    }

    /// Does the old-extent tuple `t` of clique predicate `pred` hold in
    /// the new state, by a proof through old-extent facts?
    pub(crate) fn check(&mut self, pred: PredId, t: &[Value]) -> bool {
        let candidate = self.id_of(pred, t);
        while !self.facts[candidate].proved {
            match self.unexpanded.pop() {
                Some(f) if !self.facts[f].proved => self.expand(f),
                Some(_) => {}
                None => return false,
            }
        }
        true
    }

    /// The id of a clique fact; a fact seen for the first time is queued
    /// for expansion.
    fn id_of(&mut self, pred: PredId, t: &[Value]) -> usize {
        let ids = self.ids.entry(pred).or_default();
        if let Some(&id) = ids.get(t) {
            return id;
        }
        let (id, tuple) = (self.facts.len(), Rc::<[Value]>::from(t));
        ids.insert(tuple.clone(), id);
        self.facts.push(Fact {
            pred,
            tuple,
            proved: false,
            waiting: Vec::new(),
        });
        self.unexpanded.push(id);
        id
    }

    /// Enumerate the instances with `f` as head until one has no unproved
    /// body fact; the others wait for theirs.
    fn expand(&mut self, f: usize) {
        self.expansions += 1;
        let (db, rules, clique) = (self.db, self.rules, self.clique);
        let (pred, tuple) = (self.facts[f].pred, self.facts[f].tuple.clone());
        for rule in rules.iter().filter(|r| r.head.pred == pred) {
            let exhausted = walk_head(db, rule, &tuple, &mut |bind| {
                let instance = self.instances.len();
                let mut unproved = 0;
                // Negation never reaches into a rule's own clique
                // (stratification), so clique literals are positive.
                for (atom, _) in rule.body.iter().filter(|(a, _)| clique.contains(&a.pred)) {
                    let body_fact: Key = instantiate(atom, bind);
                    let g = self.id_of(atom.pred, &body_fact);
                    if !self.facts[g].proved {
                        self.facts[g].waiting.push(instance);
                        unproved += 1;
                    }
                }
                if unproved > 0 {
                    self.instances.push(Instance { head: f, unproved });
                }
                unproved > 0
            });
            if !exhausted {
                self.prove(f);
                return;
            }
        }
    }

    /// Mark `f` proved and, forward over the explored instances, every
    /// head whose last unproved body fact this settles.
    fn prove(&mut self, f: usize) {
        let mut newly = vec![f];
        while let Some(g) = newly.pop() {
            let fact = &mut self.facts[g];
            if std::mem::replace(&mut fact.proved, true) {
                continue;
            }
            for i in std::mem::take(&mut fact.waiting) {
                let instance = &mut self.instances[i];
                instance.unproved -= 1;
                if instance.unproved == 0 {
                    newly.push(instance.head);
                }
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
}
