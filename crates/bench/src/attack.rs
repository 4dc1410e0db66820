//! MulVAL-style dynamic attack-graph workload: a deletion-heavy stream
//! over tuples with many derivations each.
//!
//! The program models network attack reachability the way MulVAL-class
//! analyzers do:
//!
//! ```text
//! vulnerable(H)   :- service(H, P), vuln(P).
//! exposed(D)      :- hacl(S, D), vulnerable(D).
//! compromised(H)  :- attacker(H).
//! compromised(D)  :- compromised(S), hacl(S, D), vulnerable(D).
//! ```
//!
//! `vulnerable` and `exposed` have high derivation multiplicity (a host
//! runs many services, is reachable from many sources), so most
//! *remediation* edits — patching a program (`-vuln`), flipping a
//! firewall rule (`-hacl`), decommissioning a service (`-service`) —
//! destroy one derivation of a tuple that has several others. The
//! maintenance task finds such a tuple still proved by one of the others
//! before it is taken out, so it is neither deleted nor propagated; it
//! reads the pre-update inputs through an overlay, not a copy. The
//! `compromised` SCC keeps one genuinely recursive rule, so the proof
//! search also runs through recursion.
//!
//! All randomness comes from a seeded LCG: the same config produces the
//! same program and the same edit stream on every run and machine.

use incr_datalog::FactEdit;

/// Deterministic LCG (Numerical Recipes constants) — same idiom as the
/// other bench generators; workloads must be identical across runs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound.max(1)
    }
}

/// Shape of the generated network.
#[derive(Clone, Copy, Debug)]
pub struct AttackConfig {
    /// Hosts in the network (`h0..`).
    pub hosts: u64,
    /// Distinct installable programs (`p0..`).
    pub programs: u64,
    /// Services initially running per host (multiplicity of
    /// `vulnerable`'s derivations).
    pub services_per_host: u64,
    /// Initial ACL out-edges per host (multiplicity of `exposed` and
    /// fan-out of the recursive `compromised` rule).
    pub acl_per_host: u64,
    /// Percentage of programs initially carrying a vulnerability.
    pub vuln_pct: u64,
    /// RNG seed for both the initial network and the edit stream.
    pub seed: u64,
}

impl AttackConfig {
    /// CI-sized instance: materializes and sweeps in seconds. Pools
    /// are sized so a 90%-delete stream never drains them (a drained
    /// pool degenerates batches into no-ops).
    pub fn smoke() -> AttackConfig {
        AttackConfig {
            hosts: 70,
            programs: 40,
            services_per_host: 10,
            acl_per_host: 8,
            vuln_pct: 60,
            seed: 0xa77ac4,
        }
    }
}

/// One base predicate's fact pools: what is currently in the database
/// and what could be inserted. Edits move facts between the two, so
/// deletes always target present facts and inserts absent ones.
struct FactPool {
    pred: &'static str,
    present: Vec<Vec<String>>,
    absent: Vec<Vec<String>>,
}

impl FactPool {
    /// Fisher–Yates shuffle `universe`, then split: the first `keep`
    /// entries start present, the rest are the insert reservoir.
    fn new(pred: &'static str, mut universe: Vec<Vec<String>>, keep: usize, rng: &mut Lcg) -> FactPool {
        for i in (1..universe.len()).rev() {
            universe.swap(i, rng.next(i as u64 + 1) as usize);
        }
        let absent = universe.split_off(keep.min(universe.len()));
        FactPool {
            pred,
            present: universe,
            absent,
        }
    }
}

/// Deterministic edit-stream generator over a fixed attack-graph
/// program. Construct once, render [`AttackWorkload::program`], then
/// pull [`AttackWorkload::batch`]es.
pub struct AttackWorkload {
    rng: Lcg,
    pools: Vec<FactPool>,
    program: String,
}

/// The rule set shared by every generated instance. `two_hop` /
/// `wide_open` model indirect reachability: a large non-recursive
/// extent whose tuples each have many derivations (one per relay
/// host), so most deletions leave a proof behind.
pub const ATTACK_RULES: &str = "vulnerable(H) :- service(H, P), vuln(P).\n\
     exposed(D) :- hacl(S, D), vulnerable(D).\n\
     two_hop(S, D) :- hacl(S, M), hacl(M, D).\n\
     wide_open(D) :- two_hop(S, D), vulnerable(D).\n\
     compromised(H) :- attacker(H).\n\
     compromised(D) :- compromised(S), hacl(S, D), vulnerable(D).\n";

impl AttackWorkload {
    pub fn new(cfg: &AttackConfig) -> AttackWorkload {
        let mut rng = Lcg(cfg.seed | 1);
        // Universes: every (host, program) service, every ordered host
        // pair ACL (no self-loops), every program's vulnerability.
        let mut services = Vec::new();
        for h in 0..cfg.hosts {
            for p in 0..cfg.programs {
                services.push(vec![format!("h{h}"), format!("p{p}")]);
            }
        }
        let mut hacl = Vec::new();
        for s in 0..cfg.hosts {
            for d in 0..cfg.hosts {
                if s != d {
                    hacl.push(vec![format!("h{s}"), format!("h{d}")]);
                }
            }
        }
        let vulns: Vec<Vec<String>> = (0..cfg.programs).map(|p| vec![format!("p{p}")]).collect();

        let service_pool = FactPool::new(
            "service",
            services,
            (cfg.hosts * cfg.services_per_host) as usize,
            &mut rng,
        );
        let hacl_pool = FactPool::new(
            "hacl",
            hacl,
            (cfg.hosts * cfg.acl_per_host) as usize,
            &mut rng,
        );
        let vuln_pool = FactPool::new(
            "vuln",
            vulns,
            (cfg.programs * cfg.vuln_pct / 100) as usize,
            &mut rng,
        );

        let mut program = String::from(ATTACK_RULES);
        program.push_str("attacker(h0).\n");
        for pool in [&service_pool, &hacl_pool, &vuln_pool] {
            for args in &pool.present {
                program.push_str(&format!("{}({}).\n", pool.pred, args.join(", ")));
            }
        }
        AttackWorkload {
            rng,
            pools: vec![service_pool, hacl_pool, vuln_pool],
            program,
        }
    }

    /// The full Datalog source: rules plus the initial network.
    pub fn program(&self) -> &str {
        &self.program
    }

    /// Generate one update batch of `size` edits, `delete_pct`% of
    /// which are deletions (firewall flips, patches, service
    /// decommissions); the rest re-insert previously removed or fresh
    /// facts. Pools are kept consistent so the stream never deletes an
    /// absent fact or inserts a present one.
    pub fn batch(&mut self, size: usize, delete_pct: u64) -> Vec<FactEdit> {
        let mut edits = Vec::with_capacity(size);
        for _ in 0..size {
            let deleting = self.rng.next(100) < delete_pct;
            // Pick a pool whose relevant side is non-empty, starting
            // from a random kind so edits spread across predicates.
            let start = self.rng.next(self.pools.len() as u64) as usize;
            let mut chosen = None;
            for off in 0..self.pools.len() {
                let i = (start + off) % self.pools.len();
                let side = if deleting {
                    &self.pools[i].present
                } else {
                    &self.pools[i].absent
                };
                if !side.is_empty() {
                    chosen = Some(i);
                    break;
                }
            }
            let Some(i) = chosen else { continue };
            let pool = &mut self.pools[i];
            if deleting {
                let j = self.rng.next(pool.present.len() as u64) as usize;
                let args = pool.present.swap_remove(j);
                let refs: Vec<&str> = args.iter().map(String::as_str).collect();
                edits.push(FactEdit::remove(pool.pred, &refs));
                pool.absent.push(args);
            } else {
                let j = self.rng.next(pool.absent.len() as u64) as usize;
                let args = pool.absent.swap_remove(j);
                let refs: Vec<&str> = args.iter().map(String::as_str).collect();
                edits.push(FactEdit::add(pool.pred, &refs));
                pool.present.push(args);
            }
        }
        edits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incr_datalog::IncrementalEngine;
    use incr_sched::SchedulerKind;

    #[test]
    fn same_seed_same_stream() {
        let cfg = AttackConfig::smoke();
        let mut a = AttackWorkload::new(&cfg);
        let mut b = AttackWorkload::new(&cfg);
        assert_eq!(a.program(), b.program());
        for _ in 0..5 {
            let ea = format!("{:?}", a.batch(20, 70));
            let eb = format!("{:?}", b.batch(20, 70));
            assert_eq!(ea, eb);
        }
    }

    #[test]
    fn delete_ratio_roughly_holds() {
        let cfg = AttackConfig::smoke();
        let mut w = AttackWorkload::new(&cfg);
        let edits = w.batch(400, 90);
        let dels = edits
            .iter()
            .filter(|e| matches!(e, FactEdit::Remove { .. }))
            .count();
        assert!(dels >= 320, "expected ~90% deletions, got {dels}/400");
    }

    #[test]
    fn program_materializes_and_maintains() {
        let cfg = AttackConfig {
            hosts: 12,
            programs: 8,
            services_per_host: 3,
            acl_per_host: 3,
            vuln_pct: 50,
            seed: 7,
        };
        let mut w = AttackWorkload::new(&cfg);
        let mut engine = IncrementalEngine::new(w.program()).unwrap();
        assert!(engine.count("compromised") >= 1, "attacker(h0) holds");
        let mut sched = SchedulerKind::LevelBased.build(engine.dag().clone());
        for _ in 0..4 {
            let edits = w.batch(10, 80);
            engine.update(sched.as_mut(), &edits).unwrap();
        }
        // The maintained database must match recomputation from the
        // current present pools.
        let mut src = String::from(ATTACK_RULES);
        src.push_str("attacker(h0).\n");
        for pool in &w.pools {
            for args in &pool.present {
                src.push_str(&format!("{}({}).\n", pool.pred, args.join(", ")));
            }
        }
        let fresh = IncrementalEngine::new(&src).unwrap();
        for pred in ["vulnerable", "exposed", "two_hop", "wide_open", "compromised"] {
            assert_eq!(
                engine.count(pred),
                fresh.count(pred),
                "{pred} diverged from recomputation"
            );
        }
    }
}
