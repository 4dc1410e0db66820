//! Compile a Datalog program into the paper's scheduling DAG.
//!
//! Each strongly connected component of the predicate dependency graph
//! becomes one task node: base (EDB) predicates are source nodes ("the
//! data of the database", §II-A); each derived clique is a fixpoint task.
//! An edge `A → B` means some rule of `B` reads a predicate evaluated by
//! `A` — output flowing into input, the paper's precedence constraints.

use crate::eval::CRule;
use crate::hash::Map;
use crate::rel::{Database, PredId};
use crate::stratify::Stratification;
use incr_dag::{Dag, DagBuilder, NodeId};
use std::sync::Arc;

/// What a task node computes.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// A base (EDB) predicate: a source node; "executing" it means its
    /// pending base-table edits become visible.
    Base(PredId),
    /// A derived clique: fixpoint evaluation of `rules` over `preds`.
    Clique {
        preds: Vec<PredId>,
        /// The compiled rules with a head in `preds`, in program order —
        /// the one copy, shared with every execution of the task.
        rules: Arc<[CRule]>,
    },
}

/// The compiled scheduling DAG and its predicate mapping.
#[derive(Clone, Debug)]
pub struct TaskGraph {
    pub dag: Arc<Dag>,
    pub kinds: Vec<NodeKind>,
    /// Node evaluating each predicate.
    pub node_of_pred: Map<PredId, NodeId>,
    /// Per node: the external predicates its rules read (for firing
    /// decisions).
    pub reads: Vec<Vec<PredId>>,
}

impl TaskGraph {
    /// Build from a stratification + compiled rules, which the clique
    /// nodes take over. `db` must already have every predicate registered
    /// (compile_program does this).
    #[allow(clippy::expect_used, reason = "the documented precondition, and SCC condensations are acyclic")]
    pub fn build(strat: &Stratification, rules: Vec<CRule>, db: &Database) -> TaskGraph {
        // Map stratification pred indices (name order) to PredIds.
        let pred_id: Vec<PredId> = strat
            .preds
            .iter()
            .map(|n| db.pred_id(n).expect("pred registered"))
            .collect();

        // One task node per SCC, numbered by SCC id.
        let n_nodes = strat.sccs.len();
        let node_of_pred: Map<PredId, NodeId> = pred_id
            .iter()
            .zip(&strat.scc_of)
            .map(|(&p, &c)| (p, NodeId(c as u32)))
            .collect();
        // One pass over the rules: each joins its head's node, whose edges
        // and read set get the external predicates its body reads.
        let mut b = DagBuilder::new(n_nodes);
        let mut reads: Vec<Vec<PredId>> = vec![Vec::new(); n_nodes];
        let mut buckets: Vec<Vec<CRule>> = vec![Vec::new(); n_nodes];
        for rule in rules {
            let node = node_of_pred[&rule.head.pred];
            for (atom, _) in &rule.body {
                let src = node_of_pred[&atom.pred];
                if src != node {
                    b.add_edge(src, node);
                    if !reads[node.index()].contains(&atom.pred) {
                        reads[node.index()].push(atom.pred);
                    }
                }
            }
            buckets[node.index()].push(rule);
        }
        let mut kinds: Vec<NodeKind> = Vec::with_capacity(n_nodes);
        for (comp, rules) in strat.sccs.iter().zip(buckets) {
            let preds: Vec<PredId> = comp.iter().map(|&p| pred_id[p]).collect();
            if rules.is_empty() {
                assert_eq!(
                    preds.len(),
                    1,
                    "rule-less SCC with multiple preds is impossible"
                );
                kinds.push(NodeKind::Base(preds[0]));
            } else {
                kinds.push(NodeKind::Clique {
                    preds,
                    rules: rules.into(),
                });
            }
        }
        let dag = Arc::new(b.build().expect("SCC condensation is acyclic"));
        TaskGraph {
            dag,
            kinds,
            node_of_pred,
            reads,
        }
    }

    /// Every compiled rule, clique by clique.
    pub fn rules(&self) -> impl Iterator<Item = &CRule> + '_ {
        self.kinds.iter().flat_map(|k| match k {
            NodeKind::Base(_) => &[][..],
            NodeKind::Clique { rules, .. } => &rules[..],
        })
    }

    /// Human-readable node label (predicate names).
    pub fn label(&self, node: NodeId, db: &Database) -> String {
        match &self.kinds[node.index()] {
            NodeKind::Base(p) => format!("base:{}", db.pred_name(*p)),
            NodeKind::Clique { preds, .. } => {
                let names: Vec<&str> = preds.iter().map(|&p| db.pred_name(p)).collect();
                format!("clique:{}", names.join("+"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::compile_program;
    use crate::parser::parse_program;
    use crate::stratify::stratify;

    fn build(src: &str) -> (Database, TaskGraph) {
        let prog = parse_program(src).unwrap();
        let strat = stratify(&prog).unwrap();
        let mut db = Database::new();
        let rules = compile_program(&prog, &mut db);
        let tg = TaskGraph::build(&strat, rules, &db);
        (db, tg)
    }

    #[test]
    fn tc_has_base_source_and_clique_sink() {
        let (db, tg) = build(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), edge(Y, Z).",
        );
        assert_eq!(tg.dag.node_count(), 2);
        assert_eq!(tg.dag.edge_count(), 1);
        let edge_node = tg.node_of_pred[&db.pred_id("edge").unwrap()];
        let path_node = tg.node_of_pred[&db.pred_id("path").unwrap()];
        assert!(matches!(tg.kinds[edge_node.index()], NodeKind::Base(_)));
        assert!(matches!(
            tg.kinds[path_node.index()],
            NodeKind::Clique { .. }
        ));
        assert!(tg.dag.has_edge(edge_node, path_node));
        assert_eq!(tg.dag.level(path_node), 1);
    }

    #[test]
    fn mutual_recursion_is_one_node() {
        let (db, tg) = build(
            "even(X) :- zero(X).\n\
             even(X) :- succ(Y, X), odd(Y).\n\
             odd(X) :- succ(Y, X), even(Y).",
        );
        let even = tg.node_of_pred[&db.pred_id("even").unwrap()];
        let odd = tg.node_of_pred[&db.pred_id("odd").unwrap()];
        assert_eq!(even, odd);
        // zero, succ bases + 1 clique = 3 nodes.
        assert_eq!(tg.dag.node_count(), 3);
    }

    #[test]
    fn reads_list_external_preds_only() {
        let (db, tg) = build(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), edge(Y, Z).",
        );
        let path_node = tg.node_of_pred[&db.pred_id("path").unwrap()];
        let edge = db.pred_id("edge").unwrap();
        assert_eq!(tg.reads[path_node.index()], vec![edge]);
    }

    #[test]
    fn diamond_of_strata() {
        let (db, tg) = build(
            "mid1(X) :- base(X).\n\
             mid2(X) :- base(X).\n\
             top(X) :- mid1(X), mid2(X).",
        );
        let top = tg.node_of_pred[&db.pred_id("top").unwrap()];
        assert_eq!(tg.dag.level(top), 2);
        assert_eq!(tg.dag.in_degree(top), 2);
    }

    #[test]
    fn labels_are_descriptive() {
        let (db, tg) = build("p(X) :- q(X).");
        let q = tg.node_of_pred[&db.pred_id("q").unwrap()];
        let p = tg.node_of_pred[&db.pred_id("p").unwrap()];
        assert_eq!(tg.label(q, &db), "base:q");
        assert_eq!(tg.label(p, &db), "clique:p");
    }
}
