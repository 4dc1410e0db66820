//! Predicate dependency analysis: Tarjan SCCs and stratified-negation
//! checking.
//!
//! The predicate dependency graph has an edge `q → p` for every rule
//! `p :- …, [!]q, …`. Strongly connected components are the recursive
//! cliques (each becomes one fixpoint task in the scheduling DAG); a
//! negative edge inside an SCC means negation through recursion, which is
//! rejected (the program is not stratifiable).

use crate::ast::Program;
use crate::hash::Map;

/// Result of dependency analysis over a program.
#[derive(Clone, Debug)]
pub struct Stratification {
    /// Predicate names in a stable order (index = predicate number here).
    pub preds: Vec<String>,
    /// SCC id per predicate (indexes [`Stratification::sccs`]).
    pub scc_of: Vec<usize>,
    /// Predicates per SCC, in reverse-topological discovery order of
    /// Tarjan; use [`Stratification::topo`] for evaluation order.
    pub sccs: Vec<Vec<usize>>,
    /// SCC ids in dependency order (dependencies before dependents).
    pub topo: Vec<usize>,
    /// `true` for SCCs containing more than one predicate or a self-loop
    /// (i.e. genuinely recursive cliques needing fixpoint iteration).
    pub recursive: Vec<bool>,
    /// Stratum number per SCC: positive edges keep the stratum, negative
    /// edges increase it.
    pub stratum: Vec<u32>,
}

/// Errors from stratification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StratifyError {
    /// Negation through recursion: `pred` depends negatively on something
    /// in its own SCC.
    NegativeCycle { pred: String },
}

impl std::fmt::Display for StratifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StratifyError::NegativeCycle { pred } => {
                write!(f, "program is not stratifiable: {pred} negated through recursion")
            }
        }
    }
}

impl std::error::Error for StratifyError {}

/// Analyse `program`.
pub fn stratify(program: &Program) -> Result<Stratification, StratifyError> {
    // Collect predicates in stable first-mention order, then index them.
    let mut preds: Vec<String> = Vec::new();
    {
        let mut seen: Map<String, ()> = Map::default();
        let mut add = |n: &str, preds: &mut Vec<String>| {
            if seen.insert(n.to_string(), ()).is_none() {
                preds.push(n.to_string());
            }
        };
        for r in &program.rules {
            add(&r.head.pred, &mut preds);
            for l in &r.body {
                add(&l.atom.pred, &mut preds);
            }
        }
    }
    let index: Map<&str, usize> = preds
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();

    let n = preds.len();
    // edges[q] = list of (p, negated) meaning p depends on q.
    let mut out: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n];
    let mut self_loop = vec![false; n];
    for r in &program.rules {
        let h = index[r.head.pred.as_str()];
        // An aggregate head consumes the *final* extents of its body, so
        // its dependencies behave like negated ones: strictly lower
        // stratum, no recursion through the aggregation.
        let aggregated = r.head.agg().is_some();
        for l in &r.body {
            let b = index[l.atom.pred.as_str()];
            out[b].push((h, l.negated || aggregated));
            if b == h {
                self_loop[h] = true;
            }
        }
    }

    // Tarjan SCC (iterative).
    let mut ids = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut scc_of = vec![usize::MAX; n];
    let mut counter = 0usize;
    let mut call: Vec<(usize, usize)> = Vec::new(); // (node, child cursor)
    for root in 0..n {
        if ids[root] != usize::MAX {
            continue;
        }
        call.push((root, 0));
        ids[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if *ci < out[v].len() {
                let (w, _) = out[v][*ci];
                *ci += 1;
                if ids[w] == usize::MAX {
                    ids[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] && ids[w] < low[v] {
                    low[v] = ids[w];
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    if low[v] < low[parent] {
                        low[parent] = low[v];
                    }
                }
                if low[v] == ids[v] {
                    let mut comp = Vec::new();
                    loop {
                        #[allow(clippy::expect_used, reason = "a root's component is still on Tarjan's stack")]
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc_of[w] = sccs.len();
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
            }
        }
    }

    // Tarjan emits SCCs in reverse topological order: dependents before
    // dependencies when edges point dependency -> dependent. Our edges are
    // `body -> head`, so an SCC is emitted only after everything reachable
    // from it; reversing gives dependencies-first.
    let topo: Vec<usize> = (0..sccs.len()).rev().collect();

    // Recursive cliques (multi-pred SCCs or self-loops; negative
    // self-loops are rejected below) + stratified-negation check + strata.
    let recursive: Vec<bool> = sccs
        .iter()
        .map(|c| c.len() > 1 || c.iter().any(|&p| self_loop[p]))
        .collect();
    let mut stratum = vec![0u32; sccs.len()];
    for &s in &topo {
        for &p in &sccs[s] {
            for &(h, neg) in &out[p] {
                let hs = scc_of[h];
                if hs == s {
                    if neg {
                        return Err(StratifyError::NegativeCycle {
                            pred: preds[p].clone(),
                        });
                    }
                    continue;
                }
                let need = stratum[s] + u32::from(neg);
                if stratum[hs] < need {
                    stratum[hs] = need;
                }
            }
        }
    }
    Ok(Stratification {
        preds,
        scc_of,
        sccs,
        topo,
        recursive,
        stratum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn strat(src: &str) -> Stratification {
        stratify(&parse_program(src).unwrap()).unwrap()
    }

    fn pred_index(s: &Stratification, name: &str) -> usize {
        s.preds.iter().position(|p| p == name).unwrap()
    }

    #[test]
    fn transitive_closure_is_one_recursive_scc() {
        let s = strat(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), edge(Y, Z).",
        );
        let path = pred_index(&s, "path");
        let edge = pred_index(&s, "edge");
        assert_ne!(s.scc_of[path], s.scc_of[edge]);
        assert!(s.recursive[s.scc_of[path]]);
        assert!(!s.recursive[s.scc_of[edge]]);
    }

    #[test]
    fn mutual_recursion_collapses() {
        let s = strat(
            "even(X) :- zero(X).\n\
             even(X) :- succ(Y, X), odd(Y).\n\
             odd(X) :- succ(Y, X), even(Y).",
        );
        let even = pred_index(&s, "even");
        let odd = pred_index(&s, "odd");
        assert_eq!(s.scc_of[even], s.scc_of[odd]);
        assert!(s.recursive[s.scc_of[even]]);
    }

    #[test]
    fn topo_order_puts_dependencies_first() {
        let s = strat(
            "b(X) :- a(X).\n\
             c(X) :- b(X).\n\
             d(X) :- c(X), a(X).",
        );
        let pos: Map<usize, usize> = s.topo.iter().enumerate().map(|(i, &x)| (x, i)).collect();
        let idx = |n: &str| s.scc_of[pred_index(&s, n)];
        assert!(pos[&idx("a")] < pos[&idx("b")]);
        assert!(pos[&idx("b")] < pos[&idx("c")]);
        assert!(pos[&idx("c")] < pos[&idx("d")]);
    }

    #[test]
    fn negation_raises_stratum() {
        let s = strat(
            "unreachable(X) :- node(X), !reach(X).\n\
             reach(X) :- start(X).\n\
             reach(Y) :- reach(X), edge(X, Y).",
        );
        let ur = s.scc_of[pred_index(&s, "unreachable")];
        let re = s.scc_of[pred_index(&s, "reach")];
        assert!(s.stratum[ur] > s.stratum[re]);
    }

    #[test]
    fn negation_through_recursion_rejected() {
        let p = parse_program(
            "p(X) :- node(X), !q(X).\n\
             q(X) :- node(X), !p(X).",
        )
        .unwrap();
        assert!(matches!(
            stratify(&p),
            Err(StratifyError::NegativeCycle { .. })
        ));
    }

    #[test]
    fn self_loop_is_recursive() {
        let s = strat("t(X, Y) :- t(Y, X).\nt(X, Y) :- e(X, Y).");
        let t = pred_index(&s, "t");
        assert!(s.recursive[s.scc_of[t]]);
    }

    #[test]
    fn sccs_partition_predicates() {
        let s = strat(
            "p(X) :- q(X). q(X) :- r(X). r(X) :- base(X).\n\
             loop1(X) :- loop2(X). loop2(X) :- loop1(X), base(X).",
        );
        let total: usize = s.sccs.iter().map(Vec::len).sum();
        assert_eq!(total, s.preds.len());
        for (p, &scc) in s.scc_of.iter().enumerate() {
            assert!(s.sccs[scc].contains(&p));
        }
    }
}
