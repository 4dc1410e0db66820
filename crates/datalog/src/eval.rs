//! Bottom-up evaluation: naive and semi-naive, with *delta pinning* as
//! the common primitive.
//!
//! A compiled rule's body is evaluated by nested-loop join over variable
//! bindings, driven by a join plan: for each body atom the plan records
//! which columns are bound by constants and earlier positive atoms, and
//! the evaluator probes the secondary index on exactly that column set
//! (built with the rules by [`ensure_indices`], never by a clique task)
//! instead of scanning the extent. The forward and pinned plans keep source
//! order and are fixed at compile time; the head-bound [`CheckPlan`] (and an
//! aggregate rule's group-bound one) also picks the order, most-bound atom
//! first, once the extents are materialised. One walker (`walk`) runs them
//! all; [`eval_rule`], the proof search of [`crate::prove`] and aggregate
//! maintenance differ only in the leaf they hand it (emit the head, record
//! the instance, read the aggregated value).
//!
//! Pinning body position `j` to a delta relation evaluates only the
//! derivations that use a delta tuple at `j` — the primitive behind
//! semi-naive fixpoints, incremental insertion, and DRed overdeletion
//! alike. Pinned deltas are sorted lists evaluated on the calling thread
//! ([`eval_pin_jobs`]), and their derivations are merged by a sort, so
//! every result is a pure function of the inputs.

use crate::ast::{AggOp, Program, Rule, Term};
use crate::hash::{Map, Set};
use crate::rel::{Database, Loan, PredId, Probe, Relation};
use crate::value::{Key, Tuple, Value};
use incr_obs::Counter;
use std::cmp::Reverse;
use std::sync::{Arc, OnceLock};

/// Read-only source of relation extents. [`Database`] is the live store
/// and a [`Loan`] a clique task's view of it; the incremental module's
/// `OldView` shows the pre-update state (which overdeletion must evaluate
/// against) by patching a loan's relations.
pub trait Rels {
    fn relation(&self, p: PredId) -> &Relation;

    /// How this view's extent of `p` differs from the live relation;
    /// `None` when it is the live relation.
    fn patch(&self, _p: PredId) -> Option<&Patch<'_>> {
        None
    }
}

impl Rels for Database {
    fn relation(&self, p: PredId) -> &Relation {
        self.rel(p)
    }
}

/// One predicate's extent before an update, as a difference against the
/// live relation: the tuples the update added are `hidden`, the tuples it
/// removed are read from `extra`. Building one costs the size of the
/// update's delta, never the size of the relation.
pub struct Patch<'a> {
    hidden: &'a Set<Tuple>,
    extra: Relation,
}

impl<'a> Patch<'a> {
    /// The patch that undoes a net change already applied to `live`
    /// (`added` are in it, `removed` are not). `extra` gets every index
    /// `live` has, so whatever a plan probes on `live` it can probe here.
    pub fn undoing(
        live: &Relation,
        added: &'a Set<Tuple>,
        removed: &Set<Tuple>,
    ) -> Patch<'a> {
        let mut extra = Relation::new(live.arity());
        for cols in live.index_cols() {
            extra.ensure_index(cols);
        }
        for t in removed {
            extra.insert(t.clone());
        }
        Patch {
            hidden: added,
            extra,
        }
    }
}

/// One predicate's extent as a [`Rels`] view shows it — the only way the
/// evaluator reads tuples, so a patched view is honoured by every access
/// path (scan, index probe, membership).
pub(crate) struct Extent<'a> {
    rel: &'a Relation,
    patch: Option<&'a Patch<'a>>,
}

impl<'a> Extent<'a> {
    pub(crate) fn of(db: &'a dyn Rels, p: PredId) -> Extent<'a> {
        Extent {
            rel: db.relation(p),
            patch: db.patch(p),
        }
    }

    pub(crate) fn contains(&self, t: &[Value]) -> bool {
        match self.patch {
            None => self.rel.contains(t),
            Some(p) => p.extra.contains(t) || (self.rel.contains(t) && !p.hidden.contains(t)),
        }
    }

    /// `main` without the hidden tuples, followed by `extra`.
    fn patched(
        &self,
        main: impl Iterator<Item = &'a Tuple> + 'a,
        extra: Option<impl Iterator<Item = &'a Tuple> + 'a>,
    ) -> impl Iterator<Item = &'a Tuple> + 'a {
        let hidden = self.patch.map(|p| p.hidden);
        main.filter(move |&t| hidden.is_none_or(|h| !h.contains(t)))
            .chain(extra.into_iter().flatten())
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &'a Tuple> + 'a {
        self.patched(self.rel.iter(), self.patch.map(|p| p.extra.iter()))
    }

    /// Tuples whose projection onto `cols` is `key`, counted as an index
    /// hit or miss; `None` when the relation has no such index.
    pub(crate) fn probe(
        &self,
        cols: &[usize],
        key: &[Value],
    ) -> Option<impl Iterator<Item = &'a Tuple> + 'a> {
        let main = self.rel.probe(cols, key)?;
        #[allow(clippy::expect_used, reason = "OldView::new builds each patch with its relation's indices")]
        let extra = self.patch.map(|p| {
            p.extra
                .probe(cols, key)
                .expect("a patch has every index of its relation")
        });
        let m = metrics();
        if main.is_empty() && extra.as_ref().is_none_or(Probe::is_empty) {
            m.miss.inc();
        } else {
            m.hit.inc();
        }
        Some(self.patched(main.iter(), extra.map(|e| e.iter())))
    }
}

/// A term with variables resolved to dense per-rule slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CTerm {
    Var(u32),
    Const(Value),
}

/// An atom over slot-resolved terms.
#[derive(Clone, Debug)]
pub struct CAtom {
    pub pred: PredId,
    pub terms: Vec<CTerm>,
}

/// A compiled head aggregate: head position `pos` holds `op` over the
/// body variable in slot `slot`, grouped by the remaining head terms.
#[derive(Clone, Copy, Debug)]
pub struct CAgg {
    pub pos: usize,
    pub op: AggOp,
    pub slot: u32,
}

impl CAgg {
    /// The head columns of the group key: all of an `arity`-wide head
    /// but `pos`.
    pub(crate) fn group_cols(&self, arity: usize) -> Vec<usize> {
        (0..arity).filter(|&c| c != self.pos).collect()
    }
}

/// How one body atom is accessed by the nested-loop join.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Access {
    /// No useful column bound when this atom is reached: full extent scan.
    Scan,
    /// Probe the secondary index over these columns (the greedy
    /// most-bound-columns choice: every bound position participates).
    Index(Vec<usize>),
    /// Every column bound: a single membership check.
    AllBound,
}

/// A compiled rule.
#[derive(Clone, Debug)]
pub struct CRule {
    pub head: CAtom,
    /// `(atom, negated)` in source order, but for a negated literal that
    /// would run before its variables are bound: it follows its binders.
    pub body: Vec<(CAtom, bool)>,
    pub nvars: u32,
    /// Head aggregate, if any. An aggregate rule is folded whole by
    /// [`eval_agg_rule`], or maintained group by group from the raw head
    /// bindings its delta pins find (`incr.rs`); stratification keeps its
    /// consumers above its inputs exactly as with negation.
    pub agg: Option<CAgg>,
    /// Per-body-atom access path when evaluation starts from nothing
    /// bound (the ordinary forward join).
    pub plan: Vec<Access>,
    /// `pin_plans[j]`: access paths when body literal `j` is pinned to a
    /// delta, whose tuples bind its variables before anything else runs —
    /// so the rest of the body is probed from the delta outwards instead
    /// of scanned up to it. Entry `j` of plan `j` is unused.
    pub pin_plans: Vec<Vec<Access>>,
    /// The head-bound plan ([`CRule::check_plan`]).
    check_plan: OnceLock<CheckPlan>,
    /// The group-bound plan of an aggregate rule ([`CRule::group_plan`]).
    group_plan: OnceLock<CheckPlan>,
}

/// A rule's plan when the head variables are pre-bound, under which the
/// proof search looks at a single head tuple. Unlike the forward and
/// pinned plans it picks the order the body is visited in, greedily by
/// boundness — a negated literal as soon as it is ground, else the
/// positive atom with every column bound, else the one with the most bound
/// columns; ties go to the smaller extent, then to source order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckPlan {
    /// Body positions in the order they are visited.
    pub order: Vec<usize>,
    /// Access path per body *position*.
    pub access: Vec<Access>,
}

impl CRule {
    /// Decided from the extents `db` shows the first time it is asked for —
    /// in the engine, by `ensure_indices(.., true)` after materialisation
    /// and in every `rebuild`, so a clique task only reads it.
    pub fn check_plan(&self, db: &dyn Rels) -> &CheckPlan {
        self.check_plan
            .get_or_init(|| plan_body(&self.body, &vars_of(&self.head), Some(db)))
    }

    /// The plan that visits one group of an aggregate rule: the group key's
    /// slots bound, the body ordered by boundness as in the check plan.
    /// Decided when the check plan is.
    pub(crate) fn group_plan(&self, db: &dyn Rels) -> &CheckPlan {
        self.group_plan
            .get_or_init(|| plan_body(&self.body, &vars_of(&self.group_atom()), Some(db)))
    }

    /// The head without its aggregate position: the atom a group key
    /// matches. The whole head for a rule without an aggregate.
    fn group_atom(&self) -> CAtom {
        let pos = self.agg.map(|a| a.pos);
        let terms = self.head.terms.iter().enumerate();
        CAtom {
            pred: self.head.pred,
            terms: terms.filter(|&(i, _)| Some(i) != pos).map(|(_, t)| *t).collect(),
        }
    }

    /// Does any body atom (positive or negated) read one of `preds`? Asked
    /// of the rule's own clique, this is "the rule is recursive".
    pub fn reads_any(&self, preds: &[PredId]) -> bool {
        self.body.iter().any(|(a, _)| preds.contains(&a.pred))
    }
}

/// Index hit/miss/scan/build counters, registered once and cached (the
/// registry lookup takes a lock; these sit on the hot path).
pub(crate) struct EvalMetrics {
    pub hit: Arc<Counter>,
    pub miss: Arc<Counter>,
    pub scan: Arc<Counter>,
    pub build: Arc<Counter>,
}

pub(crate) fn metrics() -> &'static EvalMetrics {
    static M: OnceLock<EvalMetrics> = OnceLock::new();
    M.get_or_init(|| EvalMetrics {
        hit: incr_obs::registry().counter("datalog.index.hit"),
        miss: incr_obs::registry().counter("datalog.index.miss"),
        scan: incr_obs::registry().counter("datalog.scan.full"),
        build: incr_obs::registry().counter("datalog.index.build"),
    })
}

/// The variable slots of `atom`.
fn vars_of(atom: &CAtom) -> Vec<u32> {
    atom.terms
        .iter()
        .filter_map(|t| match t {
            CTerm::Var(s) => Some(*s),
            CTerm::Const(_) => None,
        })
        .collect()
}

/// Plan `body` given the slots bound before its first atom runs
/// (`initially_bound` — empty for the forward plan, a pinned literal's
/// slots for a pin plan, the head slots for the check plan): probe on all
/// bound columns, and a fully-bound atom becomes a membership check.
/// Without `extents` the body keeps its source order; with them the next
/// literal is chosen by boundness ([`CheckPlan`]).
fn plan_body(
    body: &[(CAtom, bool)],
    initially_bound: &[u32],
    extents: Option<&dyn Rels>,
) -> CheckPlan {
    let mut bound: Set<u32> = initially_bound.iter().copied().collect();
    let mut left: Vec<usize> = (0..body.len()).collect();
    let mut order = Vec::with_capacity(body.len());
    let mut access = vec![Access::Scan; body.len()];
    while let Some(&first) = left.first() {
        let bound_cols = |j: usize| -> Vec<usize> {
            let is_bound = |t: &CTerm| match t {
                CTerm::Const(_) => true,
                CTerm::Var(s) => bound.contains(s),
            };
            let terms = &body[j].0.terms;
            (0..terms.len()).filter(|&i| is_bound(&terms[i])).collect()
        };
        let j = extents.map_or(first, |db| {
            let rank = |&j: &usize| {
                let (atom, negated) = &body[j];
                let n = bound_cols(j).len();
                // Ground negation, fully bound, partly bound; a negated
                // literal that is not ground yet cannot run.
                let ground = n == atom.terms.len();
                let class = if ground { u8::from(!*negated) } else { 2 + u8::from(*negated) };
                (class, Reverse(n), db.relation(atom.pred).len(), j)
            };
            left.iter().copied().min_by_key(rank).unwrap_or(first)
        });
        left.retain(|&l| l != j);
        let (atom, negated) = &body[j];
        let cols = bound_cols(j);
        // Negated literals are ground under safety: always a membership
        // check, no index needed.
        access[j] = if *negated || cols.len() == atom.terms.len() {
            Access::AllBound
        } else if cols.is_empty() {
            Access::Scan
        } else {
            Access::Index(cols)
        };
        order.push(j);
        if !*negated {
            bound.extend(vars_of(atom));
        }
    }
    CheckPlan { order, access }
}

/// Compile `rule`, registering predicates and interning constants.
pub fn compile_rule(rule: &Rule, db: &mut Database) -> CRule {
    fn catom(atom: &crate::ast::Atom, db: &mut Database) -> CAtom {
        let pred = db.pred(&atom.pred, atom.arity());
        let terms = atom
            .terms
            .iter()
            .map(|t| match t {
                // Variables and aggregated variables are slot placeholders.
                Term::Var(_) | Term::Agg(..) => CTerm::Var(0), // fixed below
                Term::Int(i) => CTerm::Const(Value::Int(*i)),
                Term::Sym(s) => CTerm::Const(db.sym(s)),
            })
            .collect::<Vec<_>>();
        CAtom { pred, terms }
    }
    // First pass creates atoms with placeholder vars; second assigns
    // variable slots (needs the original AST for the names).
    let mut head = catom(&rule.head, db);
    let mut body: Vec<(CAtom, bool)> = rule
        .body
        .iter()
        .map(|l| (catom(&l.atom, db), l.negated))
        .collect();
    let mut slots: Map<String, u32> = Map::default();
    let mut next = 0u32;
    let mut fix = |ast: &crate::ast::Atom, c: &mut CAtom| {
        for (i, t) in ast.terms.iter().enumerate() {
            if let Term::Var(name) | Term::Agg(_, name) = t {
                let slot = *slots.entry(name.clone()).or_insert_with(|| {
                    let s = next;
                    next += 1;
                    s
                });
                c.terms[i] = CTerm::Var(slot);
            }
        }
    };
    // Bind body first so evaluation binds variables before the head
    // reads them (safety guarantees head vars appear in the body).
    for (i, l) in rule.body.iter().enumerate() {
        fix(&l.atom, &mut body[i].0);
    }
    fix(&rule.head, &mut head);
    // The walker visits the body in order, and a negated literal is a
    // membership check: one written before the positive literals that
    // bind its variables waits for them (safety says they exist). Every
    // other literal keeps its place.
    let mut ordered = Vec::with_capacity(body.len());
    let mut waiting: Vec<(CAtom, bool)> = Vec::new();
    let mut bound: Set<u32> = Set::default();
    for (atom, negated) in body {
        if negated {
            waiting.push((atom, negated));
        } else {
            bound.extend(vars_of(&atom));
            ordered.push((atom, negated));
        }
        let ground = |(atom, _): &(CAtom, bool)| vars_of(atom).iter().all(|s| bound.contains(s));
        let (ready, rest): (Vec<_>, Vec<_>) = waiting.drain(..).partition(ground);
        ordered.extend(ready);
        waiting = rest;
    }
    ordered.extend(waiting);
    let body = ordered;
    let agg = rule.head.agg().map(|(pos, op, var)| CAgg {
        pos,
        op,
        slot: slots[var],
    });
    let plan = plan_body(&body, &[], None).access;
    let pin_plans = body
        .iter()
        .map(|(atom, _)| plan_body(&body, &vars_of(atom), None).access)
        .collect();
    CRule {
        head,
        body,
        nvars: next,
        agg,
        plan,
        pin_plans,
        check_plan: OnceLock::new(),
        group_plan: OnceLock::new(),
    }
}

/// Compile all rules with non-empty bodies (facts are loaded separately
/// via [`load_facts`]); also registers every predicate. A ground fact of a
/// *derived* predicate is both loaded and compiled, as a rule with an
/// empty body: the walker reaches its leaf at depth 0, so every
/// maintenance path sees a derivation with no premises, not a tuple that
/// nothing derives. Pure base tables compile to nothing and stay editable.
pub fn compile_program(program: &Program, db: &mut Database) -> Vec<CRule> {
    // Register every predicate (even fact-only ones) first.
    for r in &program.rules {
        db.pred(&r.head.pred, r.head.arity());
        for l in &r.body {
            db.pred(&l.atom.pred, l.atom.arity());
        }
    }
    let derived = program.derived_predicates();
    program
        .rules
        .iter()
        .filter(|r| !r.body.is_empty() || (r.is_fact() && derived.contains(r.head.pred.as_str())))
        .map(|r| compile_rule(r, db))
        .collect()
}

/// Build every secondary index the rules' plans probe, so a clique task,
/// which only reads its inputs, never builds one. The engine calls it
/// where rules are compiled — at construction and in `rebuild` — and
/// nowhere else; re-ensuring is a cheap no-op. `include_check_plans`
/// additionally covers the head-bound plans (only the maintenance paths
/// need those), deciding each rule's on the way from the extents `db`
/// holds — and, for an aggregate rule, its group plan and the head index
/// on the group key its maintenance reads a group's tuple through.
pub fn ensure_indices<'r>(
    db: &mut Database,
    rules: impl IntoIterator<Item = &'r CRule>,
    include_check_plans: bool,
) {
    fn ensure_plan(db: &mut Database, rule: &CRule, plan: &[Access]) {
        for ((atom, _), access) in rule.body.iter().zip(plan) {
            if let Access::Index(cols) = access {
                if db.rel_mut(atom.pred).ensure_index(cols) {
                    metrics().build.inc();
                }
            }
        }
    }
    for rule in rules {
        ensure_plan(db, rule, &rule.plan);
        for plan in &rule.pin_plans {
            ensure_plan(db, rule, plan);
        }
        if include_check_plans {
            let access = &rule.check_plan(db).access;
            ensure_plan(db, rule, access);
            if let Some(agg) = rule.agg {
                let access = &rule.group_plan(db).access;
                ensure_plan(db, rule, access);
                let key = agg.group_cols(rule.head.terms.len());
                if !key.is_empty() && db.rel_mut(rule.head.pred).ensure_index(&key) {
                    metrics().build.inc();
                }
            }
        }
    }
}

/// Insert the program's ground facts into the database.
pub fn load_facts(program: &Program, db: &mut Database) {
    for r in &program.rules {
        if r.is_fact() {
            let tuple: Tuple = r
                .head
                .terms
                .iter()
                .map(|t| match t {
                    Term::Int(i) => Value::Int(*i),
                    Term::Sym(s) => db.sym(s),
                    Term::Var(_) | Term::Agg(..) => unreachable!("facts are ground"),
                })
                .collect();
            let id = db.pred(&r.head.pred, r.head.arity());
            db.rel_mut(id).insert(tuple);
        }
    }
}

/// Match `tuple` against `atom` under `bind` (slot -> value); extends
/// `bind`, recording newly bound slots in `trail` for backtracking.
fn matches(atom: &CAtom, tuple: &[Value], bind: &mut [Option<Value>], trail: &mut Vec<u32>) -> bool {
    let start = trail.len();
    for (t, &v) in atom.terms.iter().zip(tuple) {
        let ok = match *t {
            CTerm::Const(c) => c == v,
            CTerm::Var(s) => match bind[s as usize] {
                Some(b) => b == v,
                None => {
                    bind[s as usize] = Some(v);
                    trail.push(s);
                    true
                }
            },
        };
        if !ok {
            for &s in &trail[start..] {
                bind[s as usize] = None;
            }
            trail.truncate(start);
            return false;
        }
    }
    true
}

/// The value of a term in a ground position (never an unbound variable):
/// a plan-bound column, or any column of a head or negated literal, which
/// safety grounds once the positive body is bound.
#[allow(clippy::expect_used, reason = "compile_rule orders every negated literal after the literals binding it")]
fn resolve(t: &CTerm, bind: &[Option<Value>]) -> Value {
    match *t {
        CTerm::Const(c) => c,
        CTerm::Var(s) => bind[s as usize].expect("unbound slot in ground position"),
    }
}

/// Instantiate a fully-bound atom: a head as the `Tuple` that is emitted,
/// a body literal as the stack [`Key`] one membership check reads.
pub(crate) fn instantiate<T: FromIterator<Value>>(atom: &CAtom, bind: &[Option<Value>]) -> T {
    atom.terms.iter().map(|t| resolve(t, bind)).collect()
}

/// How a pinned literal is interpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinMode {
    /// Positive literal restricted to the delta set (semi-naive /
    /// insertion / overdeletion through positive dependencies).
    Positive,
    /// Negated literal matched *positively* against tuples freshly
    /// REMOVED from its relation — derivations newly enabled because the
    /// blocker disappeared. Requires the tuple to be absent from the
    /// current relation.
    NegGained,
    /// Negated literal matched positively against tuples freshly ADDED to
    /// its relation — derivations destroyed because a blocker appeared
    /// (overdeletion through negation).
    NegLost,
}

/// A pinned body position and the delta it is restricted to.
#[derive(Clone, Copy)]
pub struct Pin<'a> {
    pub index: usize,
    pub mode: PinMode,
    pub delta: &'a [Tuple],
}

/// Immutable per-evaluation context threaded through the join recursion.
struct Ctx<'a> {
    rule: &'a CRule,
    /// Access path per body position.
    plan: &'a [Access],
    /// The body positions in visiting order.
    order: &'a [usize],
    /// The pinned body position: bound from the delta before the
    /// recursion starts, so the recursion steps over it.
    pinned: Option<usize>,
}

/// Evaluate `rule` against `db`, optionally pinning one body literal, and
/// call `out` for every derived head tuple (duplicates possible).
///
/// A pinned evaluation is driven by its delta: each delta tuple binds the
/// pinned literal's variables and the rest of the body runs under
/// `pin_plans`, so its cost follows the delta and the joins it opens, not
/// the extents of the atoms written before the pinned one.
///
/// With `PinMode::NegLost` the negated literal at the pin matches added
/// tuples and the *rest* of the rule is evaluated as usual — the caller
/// interprets the heads as lost derivations.
pub fn eval_rule(db: &dyn Rels, rule: &CRule, pin: Option<Pin<'_>>, out: &mut dyn FnMut(Tuple)) {
    assert!(
        rule.agg.is_none(),
        "an aggregate rule's heads are folds: evaluate it with eval_agg_rule"
    );
    eval_heads(db, rule, pin, out)
}

/// [`eval_rule`] for any rule: `out` gets the head instantiated at every
/// complete binding, so an aggregate head carries the raw bound variable
/// (what [`eval_agg_rule`] folds).
fn eval_heads(db: &dyn Rels, rule: &CRule, pin: Option<Pin<'_>>, out: &mut dyn FnMut(Tuple)) {
    let mut bind: Vec<Option<Value>> = vec![None; rule.nvars as usize];
    let mut trail: Vec<u32> = Vec::new();
    // The forward and pinned plans keep source order.
    let order: Vec<usize> = (0..rule.body.len()).collect();
    let mut emit = |b: &[Option<Value>]| {
        out(instantiate(&rule.head, b));
        true
    };
    let Some(pin) = pin else {
        let ctx = Ctx {
            rule,
            plan: &rule.plan,
            order: &order,
            pinned: None,
        };
        walk(db, &ctx, 0, &mut bind, &mut trail, &mut emit);
        return;
    };
    let (atom, negated) = &rule.body[pin.index];
    debug_assert_eq!(*negated, pin.mode != PinMode::Positive, "pin mode vs literal sign");
    let ctx = Ctx {
        rule,
        plan: &rule.pin_plans[pin.index],
        order: &order,
        pinned: Some(pin.index),
    };
    let ext = Extent::of(db, atom.pred);
    for tuple in pin.delta {
        // Only a *net* removal of a blocker enables a derivation.
        if pin.mode == PinMode::NegGained && ext.contains(tuple) {
            continue;
        }
        if matches(atom, tuple, &mut bind, &mut trail) {
            walk(db, &ctx, 0, &mut bind, &mut trail, &mut emit);
            for s in trail.drain(..) {
                bind[s as usize] = None;
            }
        }
    }
}

/// One evaluation of a rule: with the body position pinned to a sorted
/// delta list, or unpinned — the whole output of a rule just added or
/// removed.
pub(crate) type PinJob<'a> = (&'a CRule, Option<Pin<'a>>);

/// The distinct `(head, tuple)` derivations of `jobs` passing `keep`,
/// sorted; an aggregate rule's are its raw head bindings. The database is
/// only read — callers merge the returned list themselves.
pub(crate) fn eval_pin_jobs(
    db: &dyn Rels,
    jobs: &[PinJob<'_>],
    keep: impl Fn(PredId, &Tuple) -> bool,
) -> Vec<(PredId, Tuple)> {
    let mut out = Vec::new();
    for &(rule, pin) in jobs {
        let head = rule.head.pred;
        eval_heads(db, rule, pin, &mut |t| {
            if keep(head, &t) {
                out.push((head, t));
            }
        });
    }
    // Sorted, so what callers insert (and in which row order) does not
    // depend on the order the jobs were listed in.
    out.sort_unstable();
    out.dedup();
    out
}

/// Fold one group's raw values with `op` — distinct values for `count`
/// and `sum`, which count and add each one. `count` counts every value;
/// `sum`/`min`/`max` fold the `Int` ones and give `None` when there are
/// none (symbols have no meaningful order across interning).
///
/// `sum` wraps at the `i64` bounds in every build, debug included.
/// Wrapping addition is a group, so a sum kept up to date by adding the
/// values that join a group and subtracting the ones that leave it is
/// bit-for-bit this fold.
pub(crate) fn fold(op: AggOp, vals: &[Value]) -> Option<Value> {
    let mut ints = vals.iter().filter_map(|v| match v {
        Value::Int(i) => Some(*i),
        Value::Sym(_) => None,
    });
    let folded = match op {
        AggOp::Count => Some(vals.len() as i64),
        AggOp::Sum => ints.next().map(|first| ints.fold(first, i64::wrapping_add)),
        AggOp::Min => ints.min(),
        AggOp::Max => ints.max(),
    };
    folded.map(Value::Int)
}

/// Evaluate an aggregate rule: collect the DISTINCT raw head bindings
/// (the aggregate position carries the bound variable), group by the
/// remaining positions, and [`fold`] each group with the operator; a
/// group that folds to nothing has no tuple.
#[allow(clippy::expect_used, reason = "the documented precondition")]
pub fn eval_agg_rule(db: &dyn Rels, rule: &CRule) -> Vec<Tuple> {
    let agg = rule.agg.expect("eval_agg_rule requires an aggregate head");
    let mut raw: Set<Tuple> = Set::default();
    eval_heads(db, rule, None, &mut |t| {
        raw.insert(t);
    });
    let mut groups: Map<Vec<Value>, Vec<Value>> = Map::default();
    for t in raw {
        let mut key = t.clone();
        let v = key.remove(agg.pos);
        groups.entry(key).or_default().push(v);
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, vals) in groups {
        if let Some(v) = fold(agg.op, &vals) {
            let mut tuple = key;
            tuple.insert(agg.pos, v);
            out.push(tuple);
        }
    }
    out
}

/// The one join walker: extend `bind` over the body literals of
/// `ctx.rule` from step `depth` of `ctx.order` on, under the access paths
/// of `ctx.plan`, and call `leaf` at
/// every complete binding (safety grounds each binding in the positive
/// atoms, so bindings are in bijection with derivations). `leaf` returns
/// `false` to stop the search; so does `walk`, iff the search was stopped.
/// What happens at a complete binding is all that tells forward
/// evaluation and the proof search's instance enumeration apart.
fn walk(
    db: &dyn Rels,
    ctx: &Ctx<'_>,
    depth: usize,
    bind: &mut Vec<Option<Value>>,
    trail: &mut Vec<u32>,
    leaf: &mut dyn FnMut(&[Option<Value>]) -> bool,
) -> bool {
    if depth == ctx.rule.body.len() {
        return leaf(bind);
    }
    let pos = ctx.order[depth];
    if ctx.pinned == Some(pos) {
        return walk(db, ctx, depth + 1, bind, trail, leaf);
    }
    let (atom, negated) = &ctx.rule.body[pos];
    let ext = Extent::of(db, atom.pred);
    if *negated {
        // Safety guarantees groundness here.
        let tuple: Key = instantiate(atom, bind);
        return ext.contains(&tuple) || walk(db, ctx, depth + 1, bind, trail, leaf);
    }

    match &ctx.plan[pos] {
        Access::AllBound => {
            // Fully ground: one membership probe, no new bindings.
            let tuple: Key = instantiate(atom, bind);
            if !ext.contains(&tuple) {
                metrics().miss.inc();
                return true;
            }
            metrics().hit.inc();
            walk(db, ctx, depth + 1, bind, trail, leaf)
        }
        Access::Index(cols) => {
            let key: Key = cols.iter().map(|&c| resolve(&atom.terms[c], bind)).collect();
            match ext.probe(cols, &key) {
                Some(tuples) => walk_tuples(db, ctx, depth, bind, trail, leaf, tuples),
                None => {
                    // Index not built (e.g. evaluation through a read-only
                    // view that never saw ensure_indices): stay correct
                    // with a scan.
                    metrics().scan.inc();
                    walk_tuples(db, ctx, depth, bind, trail, leaf, ext.iter())
                }
            }
        }
        Access::Scan => {
            metrics().scan.inc();
            walk_tuples(db, ctx, depth, bind, trail, leaf, ext.iter())
        }
    }
}

/// [`walk`]'s per-tuple loop over the candidates for the body literal at
/// step `depth`, monomorphic over the access path's iterator: match, descend,
/// backtrack.
fn walk_tuples<'a>(
    db: &dyn Rels,
    ctx: &Ctx<'_>,
    depth: usize,
    bind: &mut Vec<Option<Value>>,
    trail: &mut Vec<u32>,
    leaf: &mut dyn FnMut(&[Option<Value>]) -> bool,
    tuples: impl Iterator<Item = &'a Tuple>,
) -> bool {
    let atom = &ctx.rule.body[ctx.order[depth]].0;
    for tuple in tuples {
        let mark = trail.len();
        if matches(atom, tuple, bind, trail) {
            if !walk(db, ctx, depth + 1, bind, trail, leaf) {
                return false;
            }
            for &s in &trail[mark..] {
                bind[s as usize] = None;
            }
            trail.truncate(mark);
        }
    }
    true
}

/// Walk the derivations of the ground head tuple `t`: bind the head, then
/// search the body under the head-bound check plan (far more constrained
/// than the forward plan), calling `leaf` per derivation. Returns `false`
/// iff `leaf` stopped the search.
///
/// `bind` and `trail` are the caller's: whatever they hold is discarded,
/// so a caller that walks many heads allocates them once.
pub(crate) fn walk_head(
    db: &dyn Rels,
    rule: &CRule,
    t: &[Value],
    bind: &mut Vec<Option<Value>>,
    trail: &mut Vec<u32>,
    leaf: &mut dyn FnMut(&[Option<Value>]) -> bool,
) -> bool {
    let check = rule.check_plan(db);
    let ctx = Ctx {
        rule,
        plan: &check.access,
        order: &check.order,
        pinned: None,
    };
    bind.clear();
    bind.resize(rule.nvars as usize, None);
    trail.clear();
    !matches(&rule.head, t, bind, trail) || walk(db, &ctx, 0, bind, trail, leaf)
}

/// Walk one group of an aggregate rule: bind the head's group terms to
/// `key` (a head tuple without its aggregate position), then search the
/// body under the group plan, calling `leaf` per derivation — the
/// aggregated value is in slot `agg.slot`. Returns `false` iff `leaf`
/// stopped the search.
pub(crate) fn walk_group(
    db: &dyn Rels,
    rule: &CRule,
    key: &[Value],
    leaf: &mut dyn FnMut(&[Option<Value>]) -> bool,
) -> bool {
    let plan = rule.group_plan(db);
    let ctx = Ctx {
        rule,
        plan: &plan.access,
        order: &plan.order,
        pinned: None,
    };
    let mut bind: Vec<Option<Value>> = vec![None; rule.nvars as usize];
    let mut trail: Vec<u32> = Vec::new();
    !matches(&rule.group_atom(), key, &mut bind, &mut trail)
        || walk(db, &ctx, 0, &mut bind, &mut trail, leaf)
}

/// Naive evaluation to fixpoint over ALL rules — the reference semantics
/// that semi-naive and the incremental paths are tested against.
pub fn naive_fixpoint(db: &mut Database, rules: &[CRule]) {
    ensure_indices(db, rules, false);
    loop {
        let mut grew = false;
        for (p, t) in unheld_output(db, rules) {
            grew |= db.rel_mut(p).insert(t);
        }
        if !grew {
            return;
        }
    }
}

/// Every rule's unpinned output over `db` that its head does not hold yet,
/// rule by rule; an aggregate rule's is its folded groups, valid when its
/// inputs are final (stratification guarantees it in the engine).
fn unheld_output(db: &dyn Rels, rules: &[CRule]) -> Vec<(PredId, Tuple)> {
    let mut out = Vec::new();
    for rule in rules {
        let head = rule.head.pred;
        let mut keep = |t: Tuple| {
            if !db.relation(head).contains(&t) {
                out.push((head, t));
            }
        };
        match rule.agg {
            Some(_) => eval_agg_rule(db, rule).into_iter().for_each(keep),
            None => eval_rule(db, rule, None, &mut keep),
        }
    }
    out
}

/// Semi-naive fixpoint for one recursive clique, given that everything
/// the clique depends on (outside itself) is final.
///
/// `loan` lends the clique's predicates; `rules` are exactly the rules
/// whose heads are in the clique. `seed[p]` holds the tuples of `p` that
/// are *new* relative to the last fixpoint (already inserted); for initial
/// evaluation call with `bootstrap = true`, which runs every rule unpinned
/// once to produce the first delta.
///
/// Each round pins every (rule, positive body position) pair whose
/// predicate has a pending delta to that delta's sorted list, evaluates
/// the pins against the frozen database, and inserts the sorted,
/// deduplicated derivations.
///
/// Returns all tuples newly added, per predicate.
pub fn seminaive_scc(
    loan: &mut Loan<'_>,
    rules: &[CRule],
    seed: Map<PredId, Set<Tuple>>,
    bootstrap: bool,
) -> Map<PredId, Set<Tuple>> {
    let mut added: Map<PredId, Set<Tuple>> = Map::default();
    let mut delta: Map<PredId, Set<Tuple>> = seed;
    // The derivations of the round before.
    let mut fresh = Vec::new();
    if bootstrap {
        // Unpinned full evaluation of every rule.
        fresh = unheld_output(loan, rules);
    }
    loop {
        // The strictly new tuples join the delta.
        for (p, t) in fresh {
            if loan.head_mut(p).insert(t.clone()) {
                delta.entry(p).or_default().insert(t.clone());
                added.entry(p).or_default().insert(t);
            }
        }
        // Deterministically ordered delta lists, so the derivations (and
        // the row order they are inserted in) do not depend on hash order.
        let delta_lists: Map<PredId, Vec<Tuple>> = delta
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .map(|(&p, d)| {
                let mut v: Vec<Tuple> = d.iter().cloned().collect();
                v.sort_unstable();
                (p, v)
            })
            .collect();
        let mut jobs: Vec<PinJob<'_>> = Vec::new();
        for rule in rules {
            if rule.agg.is_some() {
                // Aggregate rules never participate in delta rounds: their
                // inputs are final (stratification) and they were fully
                // evaluated at bootstrap.
                continue;
            }
            for (j, (atom, negated)) in rule.body.iter().enumerate() {
                // Pin any position whose predicate has a pending delta —
                // in the first round that includes the caller's seed
                // (possibly external input predicates); later rounds only
                // carry the clique's own new tuples.
                if *negated {
                    continue;
                }
                let Some(list) = delta_lists.get(&atom.pred) else {
                    continue;
                };
                jobs.push((
                    rule,
                    Some(Pin {
                        index: j,
                        mode: PinMode::Positive,
                        delta: list,
                    }),
                ));
            }
        }
        if jobs.is_empty() {
            return added;
        }
        fresh = eval_pin_jobs(loan, &jobs, |head, t| !loan.relation(head).contains(t));
        delta = Map::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn setup(src: &str) -> (Database, Vec<CRule>) {
        let prog = parse_program(src).unwrap();
        let mut db = Database::new();
        let rules = compile_program(&prog, &mut db);
        load_facts(&prog, &mut db);
        ensure_indices(&mut db, &rules, false);
        (db, rules)
    }

    #[test]
    fn naive_transitive_closure() {
        let (mut db, rules) = setup(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), edge(Y, Z).\n\
             edge(a, b). edge(b, c). edge(c, d).",
        );
        naive_fixpoint(&mut db, &rules);
        assert!(db.has_fact("path", &["a", "d"]));
        assert!(db.has_fact("path", &["b", "d"]));
        assert!(!db.has_fact("path", &["d", "a"]));
        let path = db.pred_id("path").unwrap();
        assert_eq!(db.rel(path).len(), 6);
    }

    #[test]
    fn join_plans_pick_bound_columns() {
        let (db, rules) = setup(
            "q(X, W) :- r(X, Y, Z), s(Y, Z, W).\n\
             r(a, b, c). r(a2, b2, c2). s(b, c, d).",
        );
        let rule = &rules[0];
        // First atom: nothing bound -> scan; second: Y and Z bound, W not
        // -> probe the two-column index.
        assert_eq!(rule.plan, [Access::Scan, Access::Index(vec![0, 1])]);
        // Head-bound, X and W are: one column of each atom, so the smaller
        // extent goes first — s on column 2 — and binds all of r.
        let check = rule.check_plan(&db);
        assert_eq!(check.order, [1, 0]);
        assert_eq!(check.access, [Access::AllBound, Access::Index(vec![2])]);
    }

    /// The check plan of the rule heading `head` with `body_len` literals,
    /// as `(order, access)`.
    fn check_plan_of(db: &Database, rules: &[CRule], head: &str, body_len: usize) -> CheckPlan {
        let head = db.pred_id(head).unwrap();
        let rule = rules.iter().find(|r| r.head.pred == head && r.body.len() == body_len);
        rule.unwrap().check_plan(db).clone()
    }

    #[test]
    fn check_plan_is_ordered_by_boundness_then_extent() {
        // Transitive closure, materialised: head-bound, `path(X, Y)` and
        // `edge(Y, Z)` have one bound column each and `edge` is the smaller
        // extent, so the plan walks Z's in-edges and checks `path`.
        let tc = "path(X, Y) :- edge(X, Y).\n\
                  path(X, Z) :- path(X, Y), edge(Y, Z).\n\
                  edge(a, b). edge(b, c). edge(c, d).";
        let (mut db, rules) = setup(tc);
        naive_fixpoint(&mut db, &rules);
        let plan = check_plan_of(&db, &rules, "path", 2);
        assert_eq!(plan.order, [1, 0]);
        assert_eq!(plan.access, [Access::AllBound, Access::Index(vec![1])]);

        // Fully bound before partially bound, whatever the extents: D
        // grounds `vulnerable(D)`, then `hacl` is probed on D and binds S
        // for a membership check of `compromised` — nothing is scanned.
        let (mut db, rules) = setup(
            "compromised(D) :- compromised(S), hacl(S, D), vulnerable(D).\n\
             compromised(D) :- attacker(D).\n\
             attacker(h0). hacl(h0, h1). hacl(h1, h2). hacl(h2, h0).\n\
             vulnerable(h0). vulnerable(h1). vulnerable(h2). vulnerable(h3).",
        );
        naive_fixpoint(&mut db, &rules);
        let plan = check_plan_of(&db, &rules, "compromised", 3);
        assert_eq!(plan.order, [2, 1, 0]);
        assert!(!plan.access.contains(&Access::Scan), "{plan:?}");

        // A negated literal runs as soon as it is ground: here right after
        // the head binds X, before either positive atom.
        let (mut db, rules) = setup(
            "ok(X, Y) :- big(X, Y), !banned(X), small(Y).\n\
             big(a, b). big(b, c). small(b). banned(b).",
        );
        naive_fixpoint(&mut db, &rules);
        assert_eq!(check_plan_of(&db, &rules, "ok", 3).order, [1, 0, 2]);
        let (a, b) = (db.sym("a"), db.sym("b"));
        assert!(derives(&db, &rules[0], &[a, b]));
        assert!(!derives(&db, &rules[0], &[b, a]));
    }

    #[test]
    fn check_plan_is_a_function_of_program_and_facts() {
        // Same program and facts, stated in another order: same plans, and
        // asking again (or asking a clone) does not change them.
        let rules_src = "same(X, Y) :- parent(X, P), parent(Y, P).\n\
                         same(X, Y) :- parent(X, P), same(P, Q), parent(Y, Q).\n";
        let facts = ["parent(a, r).", "parent(b, r).", "parent(c, a).", "parent(d, b)."];
        let plans = |facts: Vec<&str>| {
            let (mut db, rules) = setup(&format!("{rules_src}{}", facts.join(" ")));
            naive_fixpoint(&mut db, &rules);
            ensure_indices(&mut db, &rules, true);
            let plans: Vec<CheckPlan> = rules.iter().map(|r| r.check_plan(&db).clone()).collect();
            let again: Vec<CheckPlan> = rules.to_vec().iter().map(|r| r.check_plan(&db).clone()).collect();
            assert_eq!(plans, again);
            plans
        };
        let forward = plans(facts.to_vec());
        assert_eq!(forward, plans(facts.iter().rev().copied().collect()));
        assert_eq!(forward[1].order, [0, 2, 1], "both parents are bound, then same is ground");
    }

    #[test]
    fn fully_bound_atom_becomes_membership_check() {
        let (_db, rules) = setup(
            "q(X, Z) :- r(X, Y, Z), s(Y, Z).\n\
             r(a, b, c). s(b, c).",
        );
        assert_eq!(rules[0].plan[1], Access::AllBound, "both columns bound");
    }

    /// A process-wide counter's current reading.
    fn counter(name: &str) -> u64 {
        let snap = incr_obs::registry().snapshot();
        snap.get("counters")
            .and_then(|c| c.get(name))
            .and_then(incr_obs::Json::as_u64)
            .unwrap_or(0)
    }

    #[test]
    fn multi_bound_join_uses_index_not_scan() {
        // The counters are process-wide and the tests running beside this
        // one bump them too, so a reading is the true count plus noise. An
        // upper bound therefore holds if ANY attempt reads under it; the
        // neighbours finish, so retrying reaches a clean window.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let (mut db, rules) = setup(
                "joined(A, C) :- fact3(A, B, C), link(B, C).\n\
                 fact3(a, b, c). fact3(a2, b, c). fact3(a3, x, y).\n\
                 link(b, c).",
            );
            let (hits, scans) = (counter("datalog.index.hit"), counter("datalog.scan.full"));
            naive_fixpoint(&mut db, &rules);
            let hits = counter("datalog.index.hit") - hits;
            let scans = counter("datalog.scan.full") - scans;
            assert!(hits > 0, "multi-bound probe must hit the [0,1] index");
            assert_eq!(db.pred_id("joined").map(|p| db.rel(p).len()), Some(2));
            // Two rule evaluations (one productive round, one that sees the
            // fixpoint), each scanning the outer atom once: full scans
            // follow the evaluations, never the three outer rows.
            if scans <= 2 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{scans} full scans for 2 evaluations over 3 outer rows: link is scanned per row"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn failed_membership_check_counts_as_a_miss() {
        // One forward evaluation scans r and checks s(Y, Z) ground for each
        // of its three rows: one is there, two are not. As above, a reading
        // is the true count plus the neighbours' noise, so the exact split
        // shows in a clean window and retrying reaches one.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let (db, rules) = setup(
                "q(X, Z) :- r(X, Y, Z), s(Y, Z).\n\
                 r(a, b, c). r(a2, b, d). r(a3, x, y).\n\
                 s(b, c).",
            );
            assert_eq!(rules[0].plan[1], Access::AllBound);
            let (hits, misses) = (counter("datalog.index.hit"), counter("datalog.index.miss"));
            let mut derived = 0;
            eval_rule(&db, &rules[0], None, &mut |_| derived += 1);
            let hits = counter("datalog.index.hit") - hits;
            let misses = counter("datalog.index.miss") - misses;
            assert_eq!(derived, 1);
            assert!(hits >= 1 && misses >= 2, "{hits} hits, {misses} misses");
            if (hits, misses) == (1, 2) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{hits} hits and {misses} misses for one membership check that holds and two that fail"
            );
            std::thread::yield_now();
        }
    }

    /// Does the head-bound walk find a derivation of `t` through `rule`?
    /// Stops at the first one.
    fn derives(db: &Database, rule: &CRule, t: &[Value]) -> bool {
        !walk_head(db, rule, t, &mut Vec::new(), &mut Vec::new(), &mut |_| {
            false
        })
    }

    /// Every derivation of `t` the head-bound walk finds through `rule`.
    fn derivation_count(db: &Database, rule: &CRule, t: &[Value]) -> u64 {
        let mut n = 0;
        walk_head(db, rule, t, &mut Vec::new(), &mut Vec::new(), &mut |_| {
            n += 1;
            true
        });
        n
    }

    #[test]
    fn head_bound_walk_checks_single_candidates() {
        let (mut db, rules) = setup(
            "path(X, Y) :- edge(X, Y).\n\
             path(X, Z) :- path(X, Y), edge(Y, Z).\n\
             edge(a, b). edge(b, c).",
        );
        naive_fixpoint(&mut db, &rules);
        ensure_indices(&mut db, &rules, true);
        let a = Value::Sym(db.interner.get("a").unwrap());
        let b = Value::Sym(db.interner.get("b").unwrap());
        let c = Value::Sym(db.interner.get("c").unwrap());
        let base = &rules[0];
        let rec = &rules[1];
        assert!(derives(&db, base, &[a, b]));
        assert!(!derives(&db, base, &[a, c]), "no direct edge a->c");
        assert!(derives(&db, rec, &[a, c]), "via path(a,b), edge(b,c)");
        assert!(!derives(&db, rec, &[c, a]));
    }

    #[test]
    fn seminaive_matches_naive() {
        let src = "path(X, Y) :- edge(X, Y).\n\
                   path(X, Z) :- path(X, Y), edge(Y, Z).\n\
                   edge(a, b). edge(b, c). edge(c, a). edge(c, d).";
        let (mut db1, rules1) = setup(src);
        naive_fixpoint(&mut db1, &rules1);

        let (mut db2, rules2) = setup(src);
        let path = db2.pred_id("path").unwrap();
        let scc = vec![path];
        let scc_rules: Vec<CRule> = rules2
            .iter()
            .filter(|r| r.head.pred == path)
            .cloned()
            .collect();
        seminaive_scc(&mut db2.lend(&scc), &scc_rules, Map::default(), true);

        assert_eq!(db1.rel(path).sorted(), db2.rel(path).sorted());
        // Cycle a->b->c->a: 3x4 pairs reach d plus cycle pairs.
        assert!(db2.has_fact("path", &["a", "a"]));
    }

    #[test]
    fn negation_checks_absence() {
        // Negated predicate is base data here: naive_fixpoint is only a
        // valid reference within one stratum (the engine's materializer
        // runs cliques in stratification order for the general case).
        let (mut db, rules) = setup(
            "orphan(X) :- node(X), !haspar(X).\n\
             node(a). node(b). haspar(b).",
        );
        naive_fixpoint(&mut db, &rules);
        assert!(db.has_fact("orphan", &["a"]));
        assert!(!db.has_fact("orphan", &["b"]));
    }

    #[test]
    fn constants_in_rules() {
        let (mut db, rules) = setup(
            "big(X) :- size(X, 10).\n\
             size(a, 10). size(b, 3).",
        );
        naive_fixpoint(&mut db, &rules);
        assert!(db.has_fact("big", &["a"]));
        assert!(!db.has_fact("big", &["b"]));
    }

    #[test]
    fn repeated_variables_must_agree() {
        let (mut db, rules) = setup(
            "selfloop(X) :- edge(X, X).\n\
             edge(a, a). edge(a, b).",
        );
        naive_fixpoint(&mut db, &rules);
        assert!(db.has_fact("selfloop", &["a"]));
        let sl = db.pred_id("selfloop").unwrap();
        assert_eq!(db.rel(sl).len(), 1);
    }

    #[test]
    fn pinned_eval_restricts_derivations() {
        let (db, rules) = setup(
            "p(X, Y) :- e(X, Y).\n\
             e(a, b). e(b, c).",
        );
        let rule = &rules[0];
        let a = db.interner.get("a").unwrap();
        let b = db.interner.get("b").unwrap();
        let delta = vec![vec![Value::Sym(a), Value::Sym(b)]];
        let mut got = Vec::new();
        eval_rule(
            &db,
            rule,
            Some(Pin {
                index: 0,
                mode: PinMode::Positive,
                delta: &delta,
            }),
            &mut |t| got.push(t),
        );
        assert_eq!(got, vec![vec![Value::Sym(a), Value::Sym(b)]]);
    }

    #[test]
    fn seminaive_seeded_insertion() {
        // Start with materialized closure of a->b; then seed edge delta b->c.
        let src = "path(X, Y) :- edge(X, Y).\n\
                   path(X, Z) :- path(X, Y), edge(Y, Z).\n\
                   edge(a, b).";
        let (mut db, rules) = setup(src);
        let path = db.pred_id("path").unwrap();
        let edge = db.pred_id("edge").unwrap();
        let scc_rules: Vec<CRule> = rules
            .iter()
            .filter(|r| r.head.pred == path)
            .cloned()
            .collect();
        seminaive_scc(&mut db.lend(&[path]), &scc_rules, Map::default(), true);
        assert_eq!(db.rel(path).len(), 1);

        // Incremental: add edge(b, c); seed = the edge delta.
        let b = db.interner.get("b").unwrap();
        let c = db.sym("c");
        let new_edge = vec![Value::Sym(b), c];
        db.rel_mut(edge).insert(new_edge.clone());
        let mut seed = Map::default();
        seed.insert(edge, Set::from_iter([new_edge]));
        let added = seminaive_scc(&mut db.lend(&[path]), &scc_rules, seed, false);
        // New paths: b->c and a->c.
        assert_eq!(added[&path].len(), 2);
        assert!(db.has_fact("path", &["a", "c"]));
    }

    /// Every tuple of length `n` over `domain`.
    fn tuples_over(domain: &[Value], n: usize) -> impl Iterator<Item = Tuple> + '_ {
        let d = domain.len();
        (0..d.pow(n as u32)).map(move |code| (0..n).map(|i| domain[code / d.pow(i as u32) % d]).collect())
    }

    /// Every assignment of `rule`'s variables over `domain` that satisfies
    /// the body — with literal `pin.0` drawn from `pin.1` when given — as
    /// head tuples with multiplicity. The walker's reference: no plans, no
    /// indices, no backtracking.
    fn brute_force(
        db: &Database,
        rule: &CRule,
        domain: &[Value],
        pin: Option<(usize, &[Tuple])>,
    ) -> Map<Tuple, u64> {
        let mut heads = Map::default();
        for assignment in tuples_over(domain, rule.nvars as usize) {
            let bind: Vec<Option<Value>> = assignment.into_iter().map(Some).collect();
            let holds = rule.body.iter().enumerate().all(|(j, (atom, negated))| {
                let t = instantiate(atom, &bind);
                match pin {
                    Some((pinned, delta)) if pinned == j => delta.contains(&t),
                    _ => db.rel(atom.pred).contains(&t) != *negated,
                }
            });
            if holds {
                *heads.entry(instantiate(&rule.head, &bind)).or_insert(0) += 1;
            }
        }
        heads
    }

    #[test]
    fn walker_leaves_agree_with_brute_force() {
        let (mut db, rules) = setup(
            "two(X, Z) :- e(X, Y), e(Y, Z).\n\
             lone(X) :- n(X), !e(X, X).\n\
             loops(X) :- e(X, X).\n\
             froma(Y) :- e(a, Y), n(Y).\n\
             joined(A, D) :- f(A, B, C), l(D, B, C).\n\
             e(a, a). e(a, b). e(a, c). e(b, d). e(c, d). e(d, d).\n\
             n(a). n(b). n(d).\n\
             f(a, b, c). f(b, b, c). f(c, d, d).\n\
             l(a, b, c). l(d, b, c). l(b, a, a).",
        );
        ensure_indices(&mut db, &rules, true);
        let domain: Vec<Value> = ["a", "b", "c", "d"].iter().map(|s| db.sym(s)).collect();
        let emitted = |rule: &CRule, pin: Option<Pin<'_>>| {
            let mut heads: Map<Tuple, u64> = Map::default();
            eval_rule(&db, rule, pin, &mut |t| *heads.entry(t).or_insert(0) += 1);
            heads
        };
        for rule in &rules {
            let reference = brute_force(&db, rule, &domain, None);
            assert!(!reference.is_empty(), "every rule derives something");
            assert_eq!(emitted(rule, None), reference, "forward join");
            for t in tuples_over(&domain, rule.head.terms.len()) {
                let want = reference.get(&t).copied().unwrap_or(0);
                assert_eq!(derivation_count(&db, rule, &t), want, "count of {t:?}");
                assert_eq!(derives(&db, rule, &t), want > 0, "existence of {t:?}");
            }
            for (j, (atom, negated)) in rule.body.iter().enumerate() {
                if *negated {
                    continue;
                }
                // Every other tuple of the literal's extent: a non-empty,
                // proper subset, so both using and not using it shows.
                let delta: Vec<Tuple> = db.rel(atom.pred).sorted().into_iter().step_by(2).collect();
                let pin = Pin {
                    index: j,
                    mode: PinMode::Positive,
                    delta: &delta,
                };
                assert_eq!(
                    emitted(rule, Some(pin)),
                    brute_force(&db, rule, &domain, Some((j, &delta))),
                    "literal {j} pinned"
                );
            }
        }
    }
}
