//! The crate's one hasher: fixed-key, a multiply and a rotate per word.
//!
//! Every hash container on the evaluation and maintenance path — tuple
//! membership, index buckets, delta sets, per-predicate maps — is a
//! [`Map`] or a [`Set`]. The keys are tuples of small integers and
//! interned symbol ids minted by this program, so nothing is bought by a
//! keyed hash, and a hash that is a fixed function makes every
//! container's iteration order a pure function of what was put in it: two
//! runs, or a relation and its clone, lay their rows out alike.
//!
//! Given up: the standard hasher's defence against keys crafted to
//! collide. The interner's symbol table (`value.rs`) keeps it; `DeltaQueue`
//! and the predicate-name maps hash text with this one, sound while edits
//! come from the embedding program (a network front door would differ).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` under [`WordHasher`]. Built with `Map::default()`.
pub type Map<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;
/// `HashSet` under [`WordHasher`]. Built with `Set::default()`.
pub type Set<T> = HashSet<T, BuildHasherDefault<WordHasher>>;

/// A table keyed by a hash [`WordHasher`] already produced (a relation's
/// membership table, keyed by tuple hash): nothing is hashed twice.
pub(crate) type ByHash<V> = HashMap<u64, V, BuildHasherDefault<IdentityHasher>>;

/// Odd multiplier (2⁶⁴ / φ): spreads each input bit over the bits above it.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// FxHash-style word-at-a-time hasher: `state = (rotl(state, 5) ^ word) * K`.
#[derive(Clone, Copy, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    /// A multiplication only carries upwards, so the low bits of the state
    /// depend on the low bits of the input alone — integers that are
    /// multiples of 2³² would all end with 32 zero bits, and the table
    /// picks its bucket from the low bits. Folding the high half down
    /// makes every output bit depend on every input bit.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for c in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            // A short last chunk carries its length in the byte it leaves
            // empty, which keeps "ab" and "ab\0" apart.
            self.word(u64::from_le_bytes(w) ^ ((c.len() as u64 % 8) << 56));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }
}

/// Pass-through hasher behind [`ByHash`].
#[derive(Clone, Copy, Default)]
pub(crate) struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("identity hasher only takes u64 keys")
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::Relation;
    use crate::value::{SymId, Value};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<WordHasher>::default().hash_one(t)
    }

    #[test]
    fn the_hash_is_a_fixed_function() {
        // Two relations built from the same operations — insertions,
        // removals, a vacuum and reuse of the freed rows — hold their rows
        // in the same order; a clone shares it and keeps it under the same
        // further operations.
        let build = || {
            let mut r = Relation::new(2);
            r.ensure_index(&[0]);
            for i in 0..500i64 {
                r.insert(vec![Value::Int(i % 37), Value::Sym(SymId((i * 7 % 101) as u32))]);
            }
            for i in (0..500i64).step_by(3) {
                r.remove(&[Value::Int(i % 37), Value::Sym(SymId((i * 7 % 101) as u32))]);
            }
            r.vacuum(u64::MAX);
            for i in 0..50i64 {
                r.insert(vec![Value::Int(-i), Value::Int(i << 32)]);
            }
            r
        };
        let rows = |r: &Relation| r.iter().cloned().collect::<Vec<_>>();
        let (a, b) = (build(), build());
        assert_eq!(rows(&a), rows(&b));
        let (mut c, mut a) = (a.clone(), a);
        assert_eq!(rows(&a), rows(&c));
        for r in [&mut a, &mut c] {
            r.remove(&[Value::Int(-3), Value::Int(3 << 32)]);
            r.vacuum(u64::MAX);
            r.insert(vec![Value::Int(1), Value::Int(1)]);
        }
        assert_eq!(rows(&a), rows(&c));
        // And so do the containers themselves.
        let set = || (0..200i64).map(|i| vec![Value::Int(i * i)]).collect::<Set<_>>();
        assert!(set().iter().eq(set().iter()));
    }

    #[test]
    fn finish_folds_the_high_bits_down() {
        // Multiples of 2³² differ only above bit 31; without the fold their
        // hashes would agree in the low 32 bits, the ones a table indexes by.
        let low: Set<u64> = (0..1024u64).map(|i| hash_of(&(i << 32)) & 0xffff).collect();
        assert!(low.len() > 900, "{} distinct low halves of 1024", low.len());
        let top: Set<u64> = (0..1024u64).map(|i| hash_of(&i) >> 57).collect();
        assert_eq!(top.len(), 128, "sequential keys use every control-byte tag");
    }

    #[test]
    fn byte_strings_hash_by_content_and_length() {
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
        assert_ne!(hash_of(&"abcdefgh"), hash_of(&"abcdefgh\0"));
        assert_eq!(hash_of(&"compromised"), hash_of(&String::from("compromised")));
    }
}
