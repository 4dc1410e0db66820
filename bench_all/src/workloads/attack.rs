//! `attack_churn`: a MulVAL-style attack graph under remediation churn.
//!
//! Copied from `crates/bench/src/attack.rs` (`AttackConfig::full()` shape)
//! so the workload cannot drift with that crate. `vulnerable`, `exposed`
//! and `wide_open` have high derivation multiplicity (a host runs many
//! services and is reachable from many sources); `compromised` is a small
//! recursive SCC.

use super::{Arrivals, DatalogInput, EditStream, Fact, Queries};
use crate::stats::Rng;
use incr_datalog::FactEdit;
use std::cmp::Ordering;

pub const RULES: &str = "vulnerable(H) :- service(H, P), vuln(P).\n\
     exposed(D) :- hacl(S, D), vulnerable(D).\n\
     two_hop(S, D) :- hacl(S, M), hacl(M, D).\n\
     wide_open(D) :- two_hop(S, D), vulnerable(D).\n\
     compromised(H) :- attacker(H).\n\
     compromised(D) :- compromised(S), hacl(S, D), vulnerable(D).\n";

pub const HOSTS: usize = 200;
const PROGRAMS: usize = 120;
const SERVICES_PER_HOST: usize = 12;
const ACL_PER_HOST: usize = 12;
const VULN_PCT: usize = 60;
/// Edits per update; half of all edits delete.
const EDITS_PER_UPDATE: usize = 10;
pub const UPDATES_PER_S: f64 = 10.0;

/// One base predicate's facts: those in the database and those that could
/// be inserted. Edits move facts between the two, so a delete always
/// targets a present fact and an insert an absent one.
struct FactPool {
    pred: &'static str,
    present: Vec<Vec<String>>,
    absent: Vec<Vec<String>>,
    /// How many facts the pool starts with, and stays within one of.
    target: usize,
}

impl FactPool {
    fn new(
        pred: &'static str,
        mut universe: Vec<Vec<String>>,
        keep: usize,
        rng: &mut Rng,
    ) -> FactPool {
        rng.shuffle(&mut universe);
        let absent = universe.split_off(keep);
        FactPool {
            pred,
            present: universe,
            absent,
            target: keep,
        }
    }
}

struct AttackStream {
    rng: Rng,
    pools: Vec<FactPool>,
}

impl EditStream for AttackStream {
    fn next_update(&mut self) -> Vec<FactEdit> {
        let mut edits = Vec::with_capacity(EDITS_PER_UPDATE);
        for _ in 0..EDITS_PER_UPDATE {
            let i = self.rng.below(self.pools.len());
            let pool = &mut self.pools[i];
            // At its starting size a pool deletes or inserts at random;
            // off it, it steps back. A pool left to wander (the 120
            // programs' `vuln` flags, say) would drift far from where it
            // started within one run, differently for every seed, and
            // take the cost of an update with it.
            let deleting = match pool.present.len().cmp(&pool.target) {
                Ordering::Greater => true,
                Ordering::Less => false,
                Ordering::Equal => self.rng.below(2) == 0,
            };
            let (from, to) = if deleting {
                (&mut pool.present, &mut pool.absent)
            } else {
                (&mut pool.absent, &mut pool.present)
            };
            let args = from.swap_remove(self.rng.below(from.len()));
            edits.push(if deleting {
                FactEdit::Remove {
                    pred: pool.pred.into(),
                    args: args.clone(),
                }
            } else {
                FactEdit::Add {
                    pred: pool.pred.into(),
                    args: args.clone(),
                }
            });
            to.push(args);
        }
        edits
    }
}

pub fn input(seed: u64) -> DatalogInput {
    let mut rng = Rng::new(seed ^ 0x00a7_7ac4);
    let host = |h: usize| format!("h{h}");
    let mut services = Vec::with_capacity(HOSTS * PROGRAMS);
    for h in 0..HOSTS {
        for p in 0..PROGRAMS {
            services.push(vec![host(h), format!("p{p}")]);
        }
    }
    let mut hacl = Vec::with_capacity(HOSTS * (HOSTS - 1));
    for s in 0..HOSTS {
        for d in (0..HOSTS).filter(|&d| d != s) {
            hacl.push(vec![host(s), host(d)]);
        }
    }
    let vulns = (0..PROGRAMS).map(|p| vec![format!("p{p}")]).collect();

    let pools = vec![
        FactPool::new("service", services, HOSTS * SERVICES_PER_HOST, &mut rng),
        FactPool::new("hacl", hacl, HOSTS * ACL_PER_HOST, &mut rng),
        FactPool::new("vuln", vulns, PROGRAMS * VULN_PCT / 100, &mut rng),
    ];
    let mut facts: Vec<Fact> = vec![("attacker", vec![host(0)])];
    for pool in &pools {
        facts.extend(pool.present.iter().map(|args| (pool.pred, args.clone())));
    }
    DatalogInput {
        rules: RULES,
        facts,
        stream: Box::new(AttackStream { rng, pools }),
        arrivals: Arrivals::Jittered {
            per_s: UPDATES_PER_S,
        },
        queries: Queries {
            point_pred: "compromised",
            point_args: |k| vec![format!("h{}", k % HOSTS)],
            scan_pattern: "exposed(?)",
        },
        reader_thread: true,
        shard_pass: true,
    }
}
