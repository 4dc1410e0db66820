//! The constant domain: integers and interned symbols.
//!
//! Symbols are interned per [`Interner`] so tuples are small `Copy` data
//! and joins compare in one instruction — the same trick production
//! Datalog engines (LogicBlox, Soufflé) use.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

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
///
/// Each symbol's text is stored once: all of them back to back in `text`,
/// symbol `i` ending at `ends[i]` (and starting where `i - 1` ends). The
/// lookup side is an open-addressing table of ids — a `u32` per slot, no
/// copy of any text — probed linearly from the text's hash and kept at
/// most half full. The hash is the standard library's keyed one: symbol
/// texts come from outside the program, so a crafted set of them must not
/// pile into one probe run (the crate's fixed hasher, `hash.rs`, keys
/// only what the program mints).
#[derive(Clone, Debug, Default)]
pub struct Interner {
    text: String,
    ends: Vec<u32>,
    /// `id + 1` per occupied slot, `0` when empty; the length is zero or
    /// a power of two.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl Interner {
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern `s`, returning its stable id.
    #[allow(clippy::expect_used, reason = "ids and offsets are u32 by design; 2^32 symbols is out of scope")]
    pub fn intern(&mut self, s: &str) -> SymId {
        let slot = match self.probe(s) {
            Ok(slot) => return SymId(self.slots[slot] - 1),
            Err(slot) => slot,
        };
        let id = SymId(u32::try_from(self.ends.len()).expect("too many symbols"));
        self.text.push_str(s);
        self.ends
            .push(u32::try_from(self.text.len()).expect("symbol text over 4 GiB"));
        if 2 * self.ends.len() > self.slots.len() {
            self.grow();
        } else {
            self.slots[slot] = id.0 + 1;
        }
        id
    }

    /// Look up without interning.
    pub fn get(&self, s: &str) -> Option<SymId> {
        self.probe(s).ok().map(|slot| SymId(self.slots[slot] - 1))
    }

    /// `Ok(slot)` holding `s`, or `Err(slot)`: the empty slot its probe
    /// run ends at (meaningless while the table is empty).
    fn probe(&self, s: &str) -> Result<usize, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = self.hasher.hash_one(s) as usize & mask;
        loop {
            match self.slots.get(at) {
                None | Some(0) => return Err(at),
                Some(&id) if self.name(SymId(id - 1)) == s => return Ok(at),
                Some(_) => at = (at + 1) & mask,
            }
        }
    }

    /// Double the table (from 8 slots) and re-file every id, the one just
    /// interned included.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(8);
        self.slots = vec![0; len];
        for id in 0..self.ends.len() as u32 {
            let Err(slot) = self.probe(self.name(SymId(id))) else {
                unreachable!("interned texts are distinct");
            };
            self.slots[slot] = id + 1;
        }
    }

    /// The text of `id`.
    pub fn name(&self, id: SymId) -> &str {
        let i = id.0 as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
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
    fn interned_texts_survive_growth_and_cloning() {
        let mut i = Interner::new();
        let mut names: Vec<String> = (0..5_000).map(|k| format!("t{k}")).collect();
        names.extend(["".into(), "ü".into()]);
        let ids: Vec<SymId> = names.iter().map(|n| i.intern(n)).collect();
        let c = i.clone();
        for (n, &id) in names.iter().zip(&ids) {
            for interner in [&i, &c] {
                assert_eq!(interner.get(n), Some(id));
                assert_eq!(interner.name(id), n);
            }
            assert_eq!(i.intern(n), id, "a second intern of {n:?}");
        }
        assert_eq!((i.len(), i.get("t5000")), (names.len(), None));
        // The texts are stored once, back to back.
        assert_eq!(i.text.len(), names.iter().map(String::len).sum::<usize>());
        assert!(2 * i.len() <= i.slots.len());
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
