//! End-to-end Datalog behaviour on fixed programs: how far an update's
//! activation cascade reaches. (Every program and edit stream against
//! from-scratch evaluation is `crates/datalog/src/lattice.rs`.)

use datalog_sched::datalog::{FactEdit, IncrementalEngine};
use datalog_sched::sched::SchedulerKind;

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
