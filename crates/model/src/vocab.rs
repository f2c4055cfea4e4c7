//! Feature-string interning: the dense integer vocabulary behind the
//! compiled retrieval index.
//!
//! Mirrors the simulator's signal interning (`rtlb_sim::compile`): every
//! feature string the model saw at finetune time gets a dense [`FeatureId`],
//! so the retrieval hot path works over `u32`s and `Vec` lookups instead of
//! `String`-keyed hash sets.
//!
//! The vocabulary is **one table**: names live back to back in a single
//! `String` arena, and an open-addressing slot array of ids is probed by the
//! name's hash and compared against the arena slice. Looking up or
//! re-interning a known name allocates nothing; only a new name grows the
//! arena. There is no per-name `String`, and no second copy of a name as a
//! hash-map key.

use std::hash::{BuildHasher, RandomState};

/// Dense id of an interned feature string.
///
/// Ids are assigned in first-interned order. `SimLlm::finetune` interns
/// features in token order, samples in dataset order (see
/// `FeatureExtractor::extract`), so the id of every feature — and with it
/// the index's canonical summation order — is a pure function of the
/// dataset: two fine-tunes of one corpus score bit-identically. The fit
/// interns each contiguous chunk of the dataset into its own vocabulary and
/// then re-interns the chunks' names into the first chunk's vocabulary, in
/// chunk order and, within a chunk, in id order. Both orders are orders of
/// first occurrence, so every name gets the id of its first occurrence in
/// the whole dataset, whatever the chunking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FeatureId(pub u32);

impl FeatureId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned feature vocabulary: bijection between feature strings and
/// dense [`FeatureId`]s.
#[derive(Debug, Clone, Default)]
pub struct FeatureVocab {
    /// Every interned name, concatenated in id order.
    arena: String,
    /// End offset in `arena` of each id's name.
    ends: Vec<u32>,
    /// Open-addressing table: `0` is empty, otherwise `id + 1`. Its length
    /// is zero or a power of two, and it is kept at most half full.
    slots: Vec<u32>,
    /// Keyed per vocabulary, like `HashMap`'s, because training text comes
    /// from outside the program and must not be able to force collisions.
    hasher: RandomState,
}

impl FeatureVocab {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot holding `name`, or the empty slot where it would go. The
    /// table must be non-empty.
    fn probe(&self, name: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = (self.hasher.hash_one(name) as usize) & mask;
        loop {
            match self.slots[slot] {
                0 => return slot,
                id if self.name(FeatureId(id - 1)) == name => return slot,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Interns `name`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, name: &str) -> FeatureId {
        if (self.ends.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let slot = self.probe(name);
        if self.slots[slot] != 0 {
            return FeatureId(self.slots[slot] - 1);
        }
        let id = u32::try_from(self.ends.len()).expect("vocabulary fits in u32");
        self.arena.push_str(name);
        self.ends
            .push(u32::try_from(self.arena.len()).expect("vocabulary arena fits in u32"));
        self.slots[slot] = id + 1;
        FeatureId(id)
    }

    /// Doubles the slot table and re-inserts every id.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(64);
        self.slots = vec![0; len];
        for id in 0..self.ends.len() {
            let id = FeatureId(id as u32);
            let slot = self.probe(self.name(id));
            self.slots[slot] = id.0 + 1;
        }
    }

    /// The id of `name`, if it was interned.
    pub fn get(&self, name: &str) -> Option<FeatureId> {
        if self.slots.is_empty() {
            return None;
        }
        match self.slots[self.probe(name)] {
            0 => None,
            id => Some(FeatureId(id - 1)),
        }
    }

    /// The string of an interned id.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not produced by this vocabulary.
    pub fn name(&self, id: FeatureId) -> &str {
        let start = match id.index() {
            0 => 0,
            i => self.ends[i - 1] as usize,
        };
        &self.arena[start..self.ends[id.index()] as usize]
    }

    /// Number of interned features.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut v = FeatureVocab::new();
        let a = v.intern("w:adder");
        let b = v.intern("w:carry");
        let a2 = v.intern("w:adder");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(v.len(), 2);
        assert_eq!(v.name(a), "w:adder");
        assert_eq!(v.get("w:carry"), Some(b));
        assert_eq!(v.get("w:unseen"), None);
    }

    #[test]
    fn empty_vocab() {
        let v = FeatureVocab::new();
        assert!(v.is_empty());
        assert_eq!(v.get("anything"), None);
    }

    #[test]
    fn survives_growth_and_keeps_first_interned_order() {
        let mut v = FeatureVocab::new();
        let names: Vec<String> = (0..5000).map(|i| format!("w:f{i}")).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(v.intern(name), FeatureId(i as u32));
        }
        // The empty string is a name like any other.
        assert_eq!(v.intern(""), FeatureId(5000));
        for (i, name) in names.iter().enumerate() {
            assert_eq!(v.get(name), Some(FeatureId(i as u32)), "{name}");
            assert_eq!(v.name(FeatureId(i as u32)), name);
        }
        assert_eq!(v.get(""), Some(FeatureId(5000)));
        assert_eq!(v.name(FeatureId(5000)), "");
        assert_eq!(v.get("w:f5000"), None);
        assert_eq!(v.len(), 5001);
    }
}
