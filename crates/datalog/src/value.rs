//! The constant domain: integers and interned symbols.
//!
//! Symbols are interned per [`Interner`] so tuples are small `Copy` data
//! and joins compare in one instruction — the same trick production
//! Datalog engines (LogicBlox, Soufflé) use.

use std::collections::HashMap;
use std::fmt;

/// Interned symbol handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(pub u32);

/// A constant value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    Int(i64),
    Sym(SymId),
}

/// A fact's constant vector.
pub type Tuple = Vec<Value>;

/// A ground tuple or index key that lives for one lookup, collected on the
/// stack: a join step builds one per membership check and per probe, and
/// an index one per row it files. Only past [`Key::INLINE`] columns does it
/// spill to the heap.
pub(crate) struct Key {
    inline: [Value; Key::INLINE],
    len: usize,
    spill: Vec<Value>,
}

impl Key {
    const INLINE: usize = 8;
}

impl FromIterator<Value> for Key {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Key {
        let mut key = Key {
            inline: [Value::Int(0); Key::INLINE],
            len: 0,
            spill: Vec::new(),
        };
        for v in iter {
            if let Some(cell) = key.inline.get_mut(key.len) {
                *cell = v;
            } else {
                if key.spill.is_empty() {
                    key.spill.extend_from_slice(&key.inline);
                }
                key.spill.push(v);
            }
            key.len += 1;
        }
        key
    }
}

impl std::ops::Deref for Key {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        if self.len <= Key::INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// String interner: symbol text ↔ [`SymId`].
#[derive(Clone, Debug, Default)]
pub struct Interner {
    map: HashMap<String, SymId>,
    names: Vec<String>,
}

impl Interner {
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern `s`, returning its stable id.
    pub fn intern(&mut self, s: &str) -> SymId {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = SymId(u32::try_from(self.names.len()).expect("too many symbols"));
        self.map.insert(s.to_string(), id);
        self.names.push(s.to_string());
        id
    }

    /// Look up without interning.
    pub fn get(&self, s: &str) -> Option<SymId> {
        self.map.get(s).copied()
    }

    /// The text of `id`.
    pub fn name(&self, id: SymId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Render a value for display.
    pub fn display(&self, v: Value) -> String {
        match v {
            Value::Int(i) => i.to_string(),
            Value::Sym(s) => self.name(s).to_string(),
        }
    }

    /// Render a tuple for display.
    pub fn display_tuple(&self, t: &[Value]) -> String {
        let cells: Vec<String> = t.iter().map(|&v| self.display(v)).collect();
        format!("({})", cells.join(", "))
    }
}

impl fmt::Display for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("alice");
        let b = i.intern("bob");
        assert_ne!(a, b);
        assert_eq!(i.intern("alice"), a);
        assert_eq!(i.name(a), "alice");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let x = i.intern("x");
        assert_eq!(i.get("x"), Some(x));
    }

    #[test]
    fn key_holds_what_it_was_given_inline_or_spilled() {
        for n in [0, 1, Key::INLINE, Key::INLINE + 1, 3 * Key::INLINE] {
            let vals: Vec<Value> = (0..n as i64).map(Value::Int).collect();
            let key: Key = vals.iter().copied().collect();
            assert_eq!(&*key, vals.as_slice(), "{n} columns");
        }
    }

    #[test]
    fn values_order_and_compare() {
        let mut i = Interner::new();
        let s = i.intern("s");
        assert!(Value::Int(1) < Value::Int(2));
        assert_eq!(Value::Sym(s), Value::Sym(s));
        assert_ne!(Value::Int(0), Value::Sym(s));
    }

    #[test]
    fn display_forms() {
        let mut i = Interner::new();
        let s = i.intern("bob");
        assert_eq!(i.display(Value::Int(7)), "7");
        assert_eq!(i.display(Value::Sym(s)), "bob");
        assert_eq!(
            i.display_tuple(&[Value::Int(1), Value::Sym(s)]),
            "(1, bob)"
        );
    }
}
