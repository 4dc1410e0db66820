//! `tc_churn`: left-linear transitive closure over a ring with chords.
//!
//! One recursive SCC does all the work: every update deletes an edge that
//! carries many paths, so DRed's overdelete/rederive inside `incr` is
//! nearly all of the wall; joins are trivial and there are no aggregates.

use super::{Arrivals, DatalogInput, EditStream, Fact, Queries};
use crate::stats::Rng;
use incr_datalog::FactEdit;
use std::collections::VecDeque;

pub const RULES: &str = "path(X, Y) :- edge(X, Y).\n\
     path(X, Z) :- path(X, Y), edge(Y, Z).\n";

pub const NODES: usize = 64;
/// Random out-edges per node beside its ring edge.
const CHORDS_PER_NODE: usize = 2;
/// An edge comes back this many updates after its deletion. Above the
/// service loop's `MAX_COALESCE`, so the queue can never cancel the pair.
pub const REINSERT_LAG: usize = 32;
pub const UPDATES_PER_S: f64 = 5.0;

struct TcStream {
    rng: Rng,
    present: Vec<Vec<String>>,
    /// Deleted edges, oldest first; always [`REINSERT_LAG`] long.
    deleted: VecDeque<Vec<String>>,
}

impl EditStream for TcStream {
    fn next_update(&mut self) -> Vec<FactEdit> {
        let victim = self.present.swap_remove(self.rng.below(self.present.len()));
        let back = self.deleted.pop_front().expect("always REINSERT_LAG long");
        let edits = vec![
            FactEdit::Remove {
                pred: "edge".into(),
                args: victim.clone(),
            },
            FactEdit::Add {
                pred: "edge".into(),
                args: back.clone(),
            },
        ];
        self.deleted.push_back(victim);
        self.present.push(back);
        edits
    }
}

pub fn input(seed: u64) -> DatalogInput {
    let mut rng = Rng::new(seed ^ 0x7c_c105);
    let node = |i: usize| format!("n{i}");
    let mut present = Vec::with_capacity(NODES * (1 + CHORDS_PER_NODE));
    for i in 0..NODES {
        let ring = (i + 1) % NODES;
        present.push(vec![node(i), node(ring)]);
        let mut targets = vec![i, ring];
        while targets.len() < 2 + CHORDS_PER_NODE {
            let t = rng.below(NODES);
            if !targets.contains(&t) {
                targets.push(t);
                present.push(vec![node(i), node(t)]);
            }
        }
    }
    // The stream starts in its steady state: a random REINSERT_LAG of the
    // 192 edges begin deleted and queued for reinsertion.
    rng.shuffle(&mut present);
    let deleted: VecDeque<Vec<String>> = present.split_off(present.len() - REINSERT_LAG).into();
    let facts: Vec<Fact> = present.iter().map(|e| ("edge", e.clone())).collect();
    DatalogInput {
        rules: RULES,
        facts,
        stream: Box::new(TcStream {
            rng,
            present,
            deleted,
        }),
        arrivals: Arrivals::Jittered {
            per_s: UPDATES_PER_S,
        },
        queries: Queries {
            point_pred: "path",
            point_args: |k| vec!["n0".into(), format!("n{}", k % NODES)],
            scan_pattern: "path(n0, ?)",
        },
        reader_thread: false,
        shard_pass: false,
    }
}
