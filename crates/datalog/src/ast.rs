//! Abstract syntax of Datalog programs.
//!
//! Conventional syntax: `path(X, Z) :- path(X, Y), edge(Y, Z).` — variables
//! start uppercase, symbols lowercase, integers are literals, and `!`
//! negates a body literal (stratified negation only, enforced by
//! [`crate::stratify`]).

use crate::hash::Map;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Aggregate operator (head-only; see [`Term::Agg`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Distinct bindings of the aggregated variable per group.
    Count,
    /// Sum of integer bindings.
    Sum,
    /// Minimum integer binding.
    Min,
    /// Maximum integer binding.
    Max,
}

impl AggOp {
    pub fn name(self) -> &'static str {
        match self {
            AggOp::Count => "count",
            AggOp::Sum => "sum",
            AggOp::Min => "min",
            AggOp::Max => "max",
        }
    }

    /// Parse an operator name.
    pub fn from_name(s: &str) -> Option<AggOp> {
        Some(match s {
            "count" => AggOp::Count,
            "sum" => AggOp::Sum,
            "min" => AggOp::Min,
            "max" => AggOp::Max,
            _ => return None,
        })
    }
}

/// A term in an atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Term {
    /// Variable (uppercase-initial identifier).
    Var(String),
    /// Integer constant.
    Int(i64),
    /// Symbolic constant (lowercase identifier or quoted string).
    Sym(String),
    /// Head-only aggregate over a body variable, e.g.
    /// `revenue(C, sum(P)) :- sale(X, C), price(X, P).`
    /// The remaining head variables form the group key; evaluation
    /// aggregates over the *distinct* bindings of (group key, variable).
    Agg(AggOp, String),
}

impl Term {
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    pub fn is_agg(&self) -> bool {
        matches!(self, Term::Agg(..))
    }
}

/// A predicate applied to terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Atom {
    pub pred: String,
    pub terms: Vec<Term>,
}

impl Atom {
    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Variables appearing in the atom, in order of first occurrence
    /// (aggregated variables included: they must be body-bound too).
    pub fn vars(&self) -> Vec<&str> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) | Term::Agg(_, v) = t {
                if seen.insert(v.as_str()) {
                    out.push(v.as_str());
                }
            }
        }
        out
    }

    /// The aggregate term's (position, op, variable), if any.
    pub fn agg(&self) -> Option<(usize, AggOp, &str)> {
        self.terms.iter().enumerate().find_map(|(i, t)| match t {
            Term::Agg(op, v) => Some((i, *op, v.as_str())),
            _ => None,
        })
    }
}

/// A possibly negated body atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Literal {
    pub atom: Atom,
    pub negated: bool,
}

/// `head :- body.` — a body-less rule is a fact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    pub head: Atom,
    pub body: Vec<Literal>,
}

impl Rule {
    /// True for ground facts (`p(a, b).`).
    pub fn is_fact(&self) -> bool {
        self.body.is_empty() && self.head.vars().is_empty()
    }

    /// Range restriction (safety): every head variable and every variable
    /// of a negated literal must occur in some positive body literal.
    /// Aggregates may appear only in the head, at most once per rule.
    pub fn check_safety(&self) -> Result<(), String> {
        for l in &self.body {
            if l.atom.terms.iter().any(Term::is_agg) {
                return Err(format!(
                    "aggregate in rule body of {} (aggregates are head-only)",
                    self.head.pred
                ));
            }
        }
        if self.head.terms.iter().filter(|t| t.is_agg()).count() > 1 {
            return Err(format!(
                "multiple aggregates in the head of {} (at most one supported)",
                self.head.pred
            ));
        }
        let positive: BTreeSet<&str> = self
            .body
            .iter()
            .filter(|l| !l.negated)
            .flat_map(|l| l.atom.vars())
            .collect();
        for v in self.head.vars() {
            if !positive.contains(v) {
                return Err(format!(
                    "unsafe rule for {}: head variable {v} not bound by a positive body literal",
                    self.head.pred
                ));
            }
        }
        for l in self.body.iter().filter(|l| l.negated) {
            for v in l.atom.vars() {
                if !positive.contains(v) {
                    return Err(format!(
                        "unsafe rule for {}: negated variable {v} not bound positively",
                        self.head.pred
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A whole program: rules (including facts).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    pub rules: Vec<Rule>,
}

impl Program {
    /// All predicates with at least one rule having a non-empty body or a
    /// variable head — i.e. *derived* (IDB) predicates; the rest are base
    /// (EDB) predicates.
    pub fn derived_predicates(&self) -> BTreeSet<&str> {
        self.rules
            .iter()
            .filter(|r| !r.is_fact())
            .map(|r| r.head.pred.as_str())
            .collect()
    }

    /// Every predicate name mentioned anywhere, with its arity, in
    /// first-seen order; errors on inconsistent arities. Linear: each atom
    /// finds its predicate through a map from name to position.
    pub fn predicate_arities(&self) -> Result<Vec<(String, usize)>, String> {
        let mut arities: Vec<(String, usize)> = Vec::new();
        let mut position: Map<&str, usize> = Map::default();
        let atoms = self
            .rules
            .iter()
            .flat_map(|r| std::iter::once(&r.head).chain(r.body.iter().map(|l| &l.atom)));
        for atom in atoms {
            match position.get(atom.pred.as_str()) {
                Some(&i) if arities[i].1 != atom.arity() => {
                    return Err(format!(
                        "predicate {} used with arities {} and {}",
                        atom.pred,
                        arities[i].1,
                        atom.arity()
                    ))
                }
                Some(_) => {}
                None => {
                    position.insert(&atom.pred, arities.len());
                    arities.push((atom.pred.clone(), atom.arity()));
                }
            }
        }
        Ok(arities)
    }

    /// A predicate that has an aggregate rule and any other rule or fact
    /// besides it, if there is one: such a program states a group's value
    /// more than once.
    pub(crate) fn shared_aggregate(&self) -> Option<&str> {
        let mut rules_of: BTreeMap<&str, usize> = BTreeMap::new();
        for r in &self.rules {
            *rules_of.entry(r.head.pred.as_str()).or_default() += 1;
        }
        self.rules
            .iter()
            .map(|r| (r.head.pred.as_str(), r.head.agg().is_some()))
            .find(|&(p, aggregate)| aggregate && rules_of[p] > 1)
            .map(|(p, _)| p)
    }

    /// Safety check over all rules.
    pub fn check_safety(&self) -> Result<(), String> {
        for r in &self.rules {
            r.check_safety()?;
        }
        Ok(())
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Int(i) => write!(f, "{i}"),
            Term::Sym(s) => write!(f, "{s}"),
            Term::Agg(op, v) => write!(f, "{}({v})", op.name()),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                if l.negated {
                    write!(f, "!")?;
                }
                write!(f, "{}", l.atom)?;
            }
        }
        write!(f, ".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(pred: &str, terms: Vec<Term>) -> Atom {
        Atom {
            pred: pred.into(),
            terms,
        }
    }

    #[test]
    fn vars_in_first_occurrence_order() {
        let a = atom(
            "p",
            vec![
                Term::Var("X".into()),
                Term::Var("Y".into()),
                Term::Var("X".into()),
            ],
        );
        assert_eq!(a.vars(), vec!["X", "Y"]);
    }

    #[test]
    fn fact_detection() {
        let f = Rule {
            head: atom("p", vec![Term::Sym("a".into())]),
            body: vec![],
        };
        assert!(f.is_fact());
        let r = Rule {
            head: atom("p", vec![Term::Var("X".into())]),
            body: vec![],
        };
        assert!(!r.is_fact(), "variable head is not a ground fact");
    }

    #[test]
    fn unsafe_head_variable_rejected() {
        let r = Rule {
            head: atom("p", vec![Term::Var("X".into())]),
            body: vec![Literal {
                atom: atom("q", vec![Term::Var("Y".into())]),
                negated: false,
            }],
        };
        assert!(r.check_safety().is_err());
    }

    #[test]
    fn unsafe_negated_variable_rejected() {
        let r = Rule {
            head: atom("p", vec![Term::Var("X".into())]),
            body: vec![
                Literal {
                    atom: atom("q", vec![Term::Var("X".into())]),
                    negated: false,
                },
                Literal {
                    atom: atom("r", vec![Term::Var("Z".into())]),
                    negated: true,
                },
            ],
        };
        assert!(r.check_safety().is_err());
    }

    #[test]
    fn arity_conflict_detected() {
        let p = Program {
            rules: vec![
                Rule {
                    head: atom("p", vec![Term::Int(1)]),
                    body: vec![],
                },
                Rule {
                    head: atom("p", vec![Term::Int(1), Term::Int(2)]),
                    body: vec![],
                },
            ],
        };
        assert!(p.predicate_arities().is_err());
    }

    #[test]
    fn display_roundtrips_shape() {
        let r = Rule {
            head: atom("p", vec![Term::Var("X".into())]),
            body: vec![
                Literal {
                    atom: atom("q", vec![Term::Var("X".into()), Term::Int(3)]),
                    negated: false,
                },
                Literal {
                    atom: atom("r", vec![Term::Var("X".into())]),
                    negated: true,
                },
            ],
        };
        assert_eq!(r.to_string(), "p(X) :- q(X, 3), !r(X).");
    }
}
