//! Identifier interning: the dense integer symbols behind the arena'd AST.
//!
//! Every identifier in the AST — module names, ports, nets, parameters,
//! instance names, hierarchical elaboration names — is interned into a
//! process-wide [`SymbolTable`] and carried as a [`SymbolId`] (`u32`). This
//! is the same pattern the simulator's `SignalId` and the model's
//! `FeatureId` already prove out, applied to the last tree that still paid
//! per-name `String` costs: AST clones copy `u32`s, downstream maps hash
//! `u32`s, and elaboration's hierarchical renames intern once per *distinct*
//! name instead of allocating once per instance.
//!
//! Name bytes live in a chunked arena inside the table. Chunks are leaked
//! (`Box::leak`) 64 KiB at a time and never freed or moved, so every interned
//! name is a true `&'static str`; the table itself only stores those
//! references. The table is append-only and shared process-wide behind a
//! `RwLock` — the read-path (`as_str`, duplicate interns) takes the lock
//! shared and never blocks other readers.
//!
//! Growth is bounded in practice by the same budgets that bound elaboration:
//! a hostile completion can only mint new hierarchical names up to the
//! `elab_signals`/`elab_fragments` fuel of its own scoring pass, and
//! problem-suite names are shared across the whole grid (interning the same
//! suite twice adds zero bytes — the bench's `arena_bytes_per_round` records
//! exactly this).

use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Dense id of an interned identifier. Two `SymbolId`s are equal iff their
/// strings are equal (one table per process), so symbol-for-symbol AST
/// equality is integer equality.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymbolId(u32);

impl SymbolId {
    /// Interns `name` in the process-wide table and returns its id.
    #[inline]
    pub fn intern(name: &str) -> Self {
        SymbolTable::global().intern(name)
    }

    /// The id of `name` if it is already interned, without interning it.
    pub fn lookup(name: &str) -> Option<Self> {
        let table = SymbolTable::global().read();
        table.map.get(name).copied()
    }

    /// The interned string. Name bytes are arena-allocated and never freed,
    /// so the borrow is `'static`.
    #[inline]
    pub fn as_str(self) -> &'static str {
        let table = SymbolTable::global().read();
        table.names[self.0 as usize]
    }

    /// The raw dense index (for tests and diagnostics).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for SymbolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for SymbolId {
    fn from(name: &str) -> Self {
        SymbolId::intern(name)
    }
}

impl From<&String> for SymbolId {
    fn from(name: &String) -> Self {
        SymbolId::intern(name)
    }
}

impl From<String> for SymbolId {
    fn from(name: String) -> Self {
        SymbolId::intern(&name)
    }
}

impl From<&SymbolId> for SymbolId {
    fn from(id: &SymbolId) -> Self {
        *id
    }
}

// String-shaped comparisons so call sites that match names against `&str`
// (library lookups, tests) read the same as before the interning refactor.
impl PartialEq<str> for SymbolId {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for SymbolId {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for SymbolId {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<SymbolId> for &str {
    fn eq(&self, other: &SymbolId) -> bool {
        *self == other.as_str()
    }
}

impl Serialize for SymbolId {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }
}

impl Deserialize for SymbolId {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Str(s) => Ok(SymbolId::intern(s)),
            other => Err(serde::Error::custom(format!(
                "expected symbol string, found {}",
                other.kind()
            ))),
        }
    }
}

/// Point-in-time size of the process-wide symbol table, reported by the
/// frontend bench as the interned-AST metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct SymbolStats {
    /// Distinct interned identifiers.
    pub symbols: usize,
    /// Name bytes resident in the arena (payload bytes, not chunk capacity).
    pub arena_bytes: usize,
}

/// The process-wide identifier interner: a bijection between identifier
/// strings and dense [`SymbolId`]s, with name bytes held in a chunked,
/// never-moved arena.
pub struct SymbolTable {
    inner: RwLock<Interner>,
}

struct Interner {
    map: HashMap<&'static str, SymbolId>,
    names: Vec<&'static str>,
    /// Unused tail of the most recently leaked chunk.
    spare: &'static mut [u8],
    arena_bytes: usize,
}

/// Chunk granularity of the name arena. Big enough that a whole problem
/// suite's identifiers fit in a handful of chunks; small enough that the
/// final partially-used chunk wastes little.
const CHUNK_BYTES: usize = 64 * 1024;

impl SymbolTable {
    /// The process-wide table every [`SymbolId`] resolves against.
    pub fn global() -> &'static SymbolTable {
        static GLOBAL: OnceLock<SymbolTable> = OnceLock::new();
        GLOBAL.get_or_init(SymbolTable::empty)
    }

    fn empty() -> SymbolTable {
        SymbolTable {
            inner: RwLock::new(Interner {
                map: HashMap::new(),
                names: Vec::new(),
                spare: &mut [],
                arena_bytes: 0,
            }),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Interner> {
        // A poisoned lock only means another thread panicked mid-intern; the
        // table is append-only, so the data is still coherent.
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Interner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Interns `name`, returning its id (existing or freshly assigned).
    pub fn intern(&self, name: &str) -> SymbolId {
        if let Some(&id) = self.read().map.get(name) {
            return id;
        }
        let mut w = self.write();
        if let Some(&id) = w.map.get(name) {
            // Raced with another writer between the read probe and here.
            return id;
        }
        let stored = w.alloc(name);
        let id = SymbolId(u32::try_from(w.names.len()).expect("symbol table fits in u32"));
        w.names.push(stored);
        w.map.insert(stored, id);
        id
    }

    /// Interns the concatenation of `parts` without materializing an
    /// intermediate `String` on the repeat path: the joined name is built in
    /// a thread-local scratch buffer, and a name already interned costs one
    /// hash lookup and zero allocation. This is the elaborator's
    /// hierarchical-rename primitive (`prefix` + `name`).
    pub fn intern_concat(&self, parts: &[&str]) -> SymbolId {
        std::thread_local! {
            static SCRATCH: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
        }
        SCRATCH.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.clear();
            for part in parts {
                buf.push_str(part);
            }
            self.intern(&buf)
        })
    }

    /// Current table size.
    pub fn stats(&self) -> SymbolStats {
        let r = self.read();
        SymbolStats {
            symbols: r.names.len(),
            arena_bytes: r.arena_bytes,
        }
    }
}

impl Interner {
    /// Copies `name` into the arena and returns the stable slice. Chunks are
    /// leaked and never moved, so the reference really is `'static`.
    fn alloc(&mut self, name: &str) -> &'static str {
        if self.spare.len() < name.len() {
            self.spare = Box::leak(vec![0u8; CHUNK_BYTES.max(name.len())].into_boxed_slice());
        }
        let spare = std::mem::take(&mut self.spare);
        let (dst, rest) = spare.split_at_mut(name.len());
        self.spare = rest;
        dst.copy_from_slice(name.as_bytes());
        self.arena_bytes += name.len();
        let dst: &'static [u8] = dst;
        std::str::from_utf8(dst).expect("arena copy of a str is utf-8")
    }
}

/// Convenience free function: [`SymbolId::intern`].
#[inline]
pub fn intern(name: &str) -> SymbolId {
    SymbolId::intern(name)
}

/// Current size of the process-wide table ([`SymbolTable::stats`]).
pub fn symbol_stats() -> SymbolStats {
    SymbolTable::global().stats()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_string_equal() {
        let a = SymbolId::intern("sym_test_adder");
        let b = SymbolId::intern("sym_test_carry");
        let a2 = SymbolId::intern("sym_test_adder");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "sym_test_adder");
        assert_eq!(a, "sym_test_adder");
        assert_eq!("sym_test_carry", b);
        assert_eq!(SymbolId::lookup("sym_test_adder"), Some(a));
        assert_eq!(SymbolId::lookup("sym_test_never_interned_xyzzy"), None);
    }

    #[test]
    fn repeat_interning_adds_no_arena_bytes() {
        // A private table: tests running concurrently in this binary keep
        // interning fresh names into the global one. Its ids are only
        // compared here, never resolved.
        let table = SymbolTable::empty();
        let first = table.intern("sym_test_repeat");
        let before = table.stats();
        assert_eq!(before.symbols, 1);
        for _ in 0..100 {
            assert_eq!(table.intern("sym_test_repeat"), first);
        }
        let after = table.stats();
        assert_eq!(before, after, "duplicate interns must be free");
    }

    #[test]
    fn concat_matches_plain_intern() {
        let joined = SymbolTable::global().intern_concat(&["u0", ".", "sum"]);
        assert_eq!(joined, SymbolId::intern("u0.sum"));
        assert_eq!(joined.as_str(), "u0.sum");
    }

    #[test]
    fn names_longer_than_a_chunk_survive() {
        let long = "x".repeat(CHUNK_BYTES + 17);
        let id = SymbolId::intern(&long);
        assert_eq!(id.as_str(), long);
    }

    #[test]
    fn serde_round_trips_as_string() {
        let id = SymbolId::intern("sym_test_serde");
        let v = id.to_value();
        assert_eq!(v, Value::Str("sym_test_serde".to_owned()));
        assert_eq!(SymbolId::from_value(&v).unwrap(), id);
        assert!(SymbolId::from_value(&Value::UInt(3)).is_err());
    }

    #[test]
    fn parallel_interning_is_consistent() {
        let ids: Vec<SymbolId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| SymbolId::intern("sym_test_race")))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
