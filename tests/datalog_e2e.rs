//! End-to-end Datalog correctness: randomized sequences of edits and rule
//! changes maintained incrementally (through every scheduler) must always
//! agree with full recomputation from scratch.

use datalog_sched::datalog::{FactEdit, IncrementalEngine};
use datalog_sched::sched::{Scheduler, SchedulerKind};
use proptest::prelude::*;
use std::collections::BTreeSet;

const RULES: &str = "
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
    node(X) :- edge(X, Y).
    node(Y) :- edge(X, Y).
    reach(X) :- start(X).
    reach(Y) :- reach(X), edge(X, Y).
    cut(X) :- node(X), !reach(X).
    start(n0).
";

/// One rule set of the differential test: its rules (program facts only
/// of predicates no edit reaches), the base tables the edits go to, which
/// of them hold an integer in their last column (every other argument is a
/// vertex symbol), and the derived predicates compared with a fresh
/// engine, each with its arity.
struct RuleSet {
    name: &'static str,
    rules: &'static str,
    base: &'static [(&'static str, usize)],
    valued: &'static [&'static str],
    derived: &'static [(&'static str, usize)],
}

const RULE_SETS: &[RuleSet] = &[
    // Left-linear closure, and negation over an upstream recursive clique.
    RuleSet {
        name: "left-linear TC + negation",
        rules: RULES,
        base: &[("edge", 2)],
        valued: &[],
        derived: &[("path", 2), ("node", 1), ("reach", 1), ("cut", 1)],
    },
    RuleSet {
        name: "right-linear TC",
        rules: "path(X, Y) :- edge(X, Y).\n path(X, Z) :- edge(X, Y), path(Y, Z).\n",
        base: &[("edge", 2)],
        valued: &[],
        derived: &[("path", 2)],
    },
    RuleSet {
        name: "non-linear TC",
        rules: "path(X, Y) :- edge(X, Y).\n path(X, Z) :- path(X, Y), path(Y, Z).\n",
        base: &[("edge", 2)],
        valued: &[],
        derived: &[("path", 2)],
    },
    RuleSet {
        name: "same generation",
        rules: "sg(X, Y) :- flat(X, Y).\n sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n",
        base: &[("flat", 2), ("up", 2), ("down", 2)],
        valued: &[],
        derived: &[("sg", 2)],
    },
    // Mutual recursion: a two-predicate clique.
    RuleSet {
        name: "parity",
        rules: "even(X) :- zero(X).\n odd(Y) :- even(X), edge(X, Y).\n \
                even(Y) :- odd(X), edge(X, Y).\n",
        base: &[("edge", 2), ("zero", 1)],
        valued: &[],
        derived: &[("even", 1), ("odd", 1)],
    },
    RuleSet {
        name: "two clique atoms in one body",
        rules: "a(X, Y) :- edge(X, Y).\n b(X, Y) :- a(X, Y), mark(Y).\n \
                a(X, Z) :- a(X, Y), b(Y, Z).\n",
        base: &[("edge", 2), ("mark", 1)],
        valued: &[],
        derived: &[("a", 2), ("b", 2)],
    },
    RuleSet {
        name: "negation over a non-linear clique",
        rules: "path(X, Y) :- edge(X, Y).\n path(X, Z) :- path(X, Y), path(Y, Z).\n \
                node(X) :- edge(X, Y).\n node(Y) :- edge(X, Y).\n \
                apart(X, Y) :- node(X), node(Y), !path(X, Y).\n",
        base: &[("edge", 2)],
        valued: &[],
        derived: &[("path", 2), ("apart", 2)],
    },
    // The seed is a program fact of the derived predicate itself, and the
    // graph may run cycles through it.
    RuleSet {
        name: "reach seeded by its own program fact",
        rules: "reach(n0).\n reach(Y) :- reach(X), edge(X, Y).\n \
                reach(Y) :- reach(X), hop(X, Y).\n",
        base: &[("edge", 2), ("hop", 2)],
        valued: &[],
        derived: &[("reach", 1)],
    },
    // The MulVAL attack graph of `crates/bench/src/attack.rs`: tuples with
    // many derivations each (a host runs several vulnerable services and is
    // reached from several sources), so most deletions leave a proof
    // behind, over a small recursive clique.
    RuleSet {
        name: "attack graph",
        rules: "vulnerable(H) :- service(H, P), vuln(P).\n \
                exposed(D) :- hacl(S, D), vulnerable(D).\n \
                compromised(H) :- attacker(H).\n \
                compromised(D) :- compromised(S), hacl(S, D), vulnerable(D).\n",
        base: &[("service", 2), ("vuln", 1), ("hacl", 2), ("attacker", 1)],
        valued: &[],
        derived: &[("vulnerable", 1), ("exposed", 1), ("compromised", 1)],
    },
    // Every aggregate operator, kept group by group: over a negation
    // upstream and one in its own body, over a join, with no group columns
    // at all, and a sum over symbols only, which folds to nothing.
    RuleSet {
        name: "aggregates",
        rules: "blocked(X) :- edge(X, X).\n \
                spend(X, V) :- amount(X, V), !blocked(X).\n \
                total(X, sum(V)) :- spend(X, V).\n \
                low(X, min(V)) :- spend(X, V).\n \
                free(X, count(Y)) :- edge(X, Y), !blocked(Y).\n \
                deg(X, count(Y)) :- edge(X, Y).\n \
                peak(Y, max(V)) :- edge(X, Y), amount(X, V).\n \
                grand(sum(V)) :- amount(X, V).\n \
                labels(X, sum(Y)) :- edge(X, Y).\n",
        base: &[("edge", 2), ("amount", 2)],
        valued: &["amount"],
        derived: &[
            ("spend", 2),
            ("total", 2),
            ("low", 2),
            ("free", 2),
            ("deg", 2),
            ("peak", 2),
            ("grand", 1),
            ("labels", 2),
        ],
    },
];

const VERTS: usize = 6;

fn vname(i: usize) -> String {
    format!("n{i}")
}

/// A base fact: predicate and its arguments (vertex numbers).
type Fact = (&'static str, Vec<usize>);

/// The argument texts of `fact` in `set`: vertex symbols, but for the
/// last column of a valued table an integer, negative ones included.
fn args(set: &RuleSet, fact: &Fact) -> Vec<String> {
    let valued = set.valued.contains(&fact.0);
    let last = fact.1.len() - 1;
    let text = |(i, &v): (usize, &usize)| {
        if valued && i == last {
            (3 * v as i64 - 7).to_string()
        } else {
            vname(v)
        }
    };
    fact.1.iter().enumerate().map(text).collect()
}

/// The clauses of a rule set, each as `add_rule` and `remove_rule` take it.
fn clauses(rules: &str) -> Vec<String> {
    let clauses = rules.split('.').map(str::trim).filter(|c| !c.is_empty());
    clauses.map(|c| format!("{c}.")).collect()
}

/// Build an engine with `rules` plus the given base facts of `set`.
fn engine_with(set: &RuleSet, rules: &str, facts: &BTreeSet<Fact>) -> IncrementalEngine {
    let mut src = String::from(rules);
    for fact in facts {
        src.push_str(&format!("{}({}).\n", fact.0, args(set, fact).join(", ")));
    }
    IncrementalEngine::new(&src).expect("valid program")
}

/// The sorted rows of `pred`, as text (symbol ids differ between engines);
/// none when the engine has never heard of it — a fresh engine knows only
/// the predicates its rules and facts mention.
fn extent(e: &IncrementalEngine, (pred, arity): (&str, usize)) -> Vec<String> {
    if e.database().pred_id(pred).is_none() {
        return Vec::new();
    }
    let mut rows = e.query(&format!("{pred}({})", vec!["?"; arity].join(", "))).expect("valid pattern");
    rows.sort();
    rows
}

/// Every base and derived extent of `set`.
fn extents(e: &IncrementalEngine, set: &RuleSet) -> Vec<Vec<String>> {
    set.base
        .iter()
        .chain(set.derived)
        .map(|&pred| extent(e, pred))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Apply a random sequence of steps incrementally — each a multi-edit
    /// update, or the removal or re-adding of one clause of the rule set
    /// (a fifth of the steps re-add a clause out of force, when there is
    /// one; a fifth toggle any) — and after each one compare every base and derived extent with a
    /// fresh engine built from the clauses in force plus the base facts,
    /// for every rule set. A refused rule change (a clause that is a base
    /// row, or was made one) must leave every extent as it was.
    #[test]
    fn incremental_equals_recompute(
        initial in proptest::collection::vec((0usize..8, 0..VERTS, 0..VERTS), 0..10),
        steps in proptest::collection::vec(
            (
                0usize..5,
                0usize..16,
                proptest::collection::vec((any::<bool>(), 0usize..8, 0..VERTS, 0..VERTS), 1..5),
            ),
            1..10,
        ),
        sched_pick in 0usize..4,
    ) {
        let kind = [
            SchedulerKind::LevelBased,
            SchedulerKind::Lookahead(4),
            SchedulerKind::LogicBlox,
            SchedulerKind::Hybrid,
        ][sched_pick];
        for set in RULE_SETS {
            let clauses = clauses(set.rules);
            let mut in_force = vec![true; clauses.len()];
            let program = |in_force: &[bool]| -> String {
                let kept = clauses.iter().zip(in_force).filter(|&(_, &on)| on);
                kept.map(|(c, _)| c.as_str()).collect::<Vec<_>>().join("\n")
            };
            // The generated picks, read against this rule set's base tables.
            let fact = |pick: usize, a: usize, b: usize| -> Fact {
                let (pred, arity) = set.base[pick % set.base.len()];
                (pred, [a, b][..arity].to_vec())
            };
            // Mirror of the base tables for ground-truth reconstruction.
            let mut facts: BTreeSet<Fact> =
                initial.iter().map(|&(pick, a, b)| fact(pick, a, b)).collect();
            let mut engine = engine_with(set, set.rules, &facts);
            let mut sched: Box<dyn Scheduler> = kind.build(engine.dag().clone());
            for (step, (what, pick, update)) in steps.iter().enumerate() {
                let what = if *what < 2 {
                    let out: Vec<usize> = (0..clauses.len()).filter(|&i| !in_force[i]).collect();
                    let i = match (*what, out.is_empty()) {
                        (1, false) => out[pick % out.len()],
                        _ => pick % clauses.len(),
                    };
                    let before = extents(&engine, set);
                    let (verb, result) = if in_force[i] {
                        ("removing", engine.remove_rule(&clauses[i], |dag| kind.build(dag)))
                    } else {
                        ("adding", engine.add_rule(&clauses[i], |dag| kind.build(dag)))
                    };
                    let what = format!("{verb} {}", clauses[i]);
                    if let Err(err) = result {
                        prop_assert_eq!(
                            extents(&engine, set),
                            before,
                            "{}: refused {} ({}) moved an extent ({:?})",
                            set.name, what, err, kind
                        );
                        continue;
                    }
                    in_force[i] = !in_force[i];
                    sched = kind.build(engine.dag().clone());
                    what
                } else {
                    let mut edits = Vec::new();
                    for &(add, pick, a, b) in update {
                        let f = fact(pick, a, b);
                        let texts = args(set, &f);
                        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
                        if add {
                            edits.push(FactEdit::add(f.0, &texts));
                            facts.insert(f);
                        } else {
                            edits.push(FactEdit::remove(f.0, &texts));
                            facts.remove(&f);
                        }
                    }
                    engine.update(sched.as_mut(), &edits).expect("update applies");
                    format!("{update:?}")
                };

                let full = engine_with(set, &program(&in_force), &facts);
                for &pred in set.base.iter().chain(set.derived) {
                    prop_assert_eq!(
                        extent(&engine, pred),
                        extent(&full, pred),
                        "{}: {} after step {} ({}, {:?})",
                        set.name, pred.0, step, what, kind
                    );
                }
            }
        }
    }
}

/// The activation cascade stops where outputs stop changing: updating a
/// redundant edge re-runs the path clique but not its consumers.
#[test]
fn cascade_stops_at_unchanged_output() {
    let src = format!("{RULES} edge(n0, n1). edge(n1, n2). edge(n0, n2). consumer(X) :- cut(X).");
    let mut engine = IncrementalEngine::new(&src).expect("valid");
    let mut sched = SchedulerKind::LevelBased.build(engine.dag().clone());
    // Removing the redundant shortcut edge(n0, n2) changes `edge` and
    // re-runs `path`, but path/reach/cut outputs are unchanged, so the
    // deeper cliques must not activate.
    let rep = engine
        .update(&mut *sched, &[FactEdit::remove("edge", &["n0", "n2"])])
        .expect("update");
    // edge base + path clique + node clique + reach clique run (they all
    // read `edge` directly); path/node/reach outputs... node changes?
    // node set unchanged (n0, n1, n2 all still endpoints). cut unchanged.
    // So `cut` (reads node+reach) and `consumer` must not run.
    let executed = rep.tasks_executed;
    assert!(
        executed <= 4,
        "cascade must stop at unchanged outputs (ran {executed} tasks)"
    );
    assert!(engine.has("path", &["n0", "n2"]), "still derivable via n1");
}

/// A bigger program: same-generation (classic non-linear recursion).
#[test]
fn same_generation_program() {
    let src = "
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
        up(a, p1). up(b, p2).
        flat(p1, p2).
        down(p1, x). down(p2, y).
    ";
    let mut engine = IncrementalEngine::new(src).expect("valid");
    assert!(engine.has("sg", &["a", "y"]), "a and b are same-generation via parents");
    let mut sched = SchedulerKind::Hybrid.build(engine.dag().clone());
    engine
        .update(&mut *sched, &[FactEdit::remove("flat", &["p1", "p2"])])
        .expect("update");
    assert!(!engine.has("sg", &["a", "y"]));
    assert_eq!(engine.count("sg"), 0);
}

/// Deep stratified program exercising multi-level task graphs.
#[test]
fn deep_strata_pipeline() {
    let mut src = String::from("l0(X) :- base(X).\n");
    for i in 1..12 {
        src.push_str(&format!("l{i}(X) :- l{}(X).\n", i - 1));
    }
    src.push_str("base(seed).\n");
    let mut engine = IncrementalEngine::new(&src).expect("valid");
    assert!(engine.has("l11", &["seed"]));
    let dag = engine.dag().clone();
    assert_eq!(dag.num_levels(), 13, "base + 12 strata");
    let mut sched = SchedulerKind::LevelBased.build(dag);
    let rep = engine
        .update(&mut *sched, &[FactEdit::add("base", &["extra"])])
        .expect("update");
    assert_eq!(rep.tasks_executed, 13, "every stratum re-derives");
    assert!(engine.has("l11", &["extra"]));
}
