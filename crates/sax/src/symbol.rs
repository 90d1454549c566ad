//! Tag-name interning: a dense `u32` symbol per distinct tag name.
//!
//! Streaming engines see the same handful of tag names millions of times,
//! and hashing the `&str` once per machine node per event is pure hot-path
//! waste. A [`SymbolTable`] is built once — query compile time interns
//! every name test — and the stream driver then performs **one** hash
//! lookup per event, after which all dispatch is dense array indexing on
//! [`Symbol`]s.
//!
//! The table is deliberately *frozen at runtime*: [`SymbolTable::lookup`]
//! never inserts, and a tag the queries don't mention maps to
//! [`Symbol::UNKNOWN`]. That keeps the stream path allocation-free (no
//! owned `String` per new tag) and means unknown tags dispatch straight
//! to the wildcard list without touching any per-name table.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A dense interned tag identifier. Valid symbols index the table's
/// `names` vector; [`Symbol::UNKNOWN`] marks a name the table has never
/// seen (and therefore no query mentions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The sentinel for "not interned": a tag no query name-test uses.
    pub const UNKNOWN: Symbol = Symbol(u32::MAX);

    /// The dense index of this symbol, or `None` for [`Symbol::UNKNOWN`].
    pub fn index(self) -> Option<usize> {
        if self == Symbol::UNKNOWN {
            None
        } else {
            Some(self.0 as usize)
        }
    }

    /// Whether this is a real interned symbol (not the sentinel).
    pub fn is_known(self) -> bool {
        self != Symbol::UNKNOWN
    }
}

/// FxHash (the rustc hasher): one rotate + xor + multiply per word. Tag
/// names are short ASCII, so this beats SipHash by a wide margin, and
/// hash-flooding is a non-concern for a table built from the query text.
/// (Private copy: the sax crate is dependency-free by design.)
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
        self.add(bytes.len() as u64);
    }
}

/// An interner mapping tag names to dense [`Symbol`]s.
///
/// Built at query-compile time (see `Machine::from_path` in the core
/// crate) and shared with the stream driver; once streaming starts it is
/// only read, via [`SymbolTable::lookup`].
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    names: Vec<String>,
    map: HashMap<String, u32, BuildHasherDefault<FxHasher>>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Interns `name`, returning its symbol (existing or freshly
    /// assigned). Build-time only — the hot path uses [`lookup`].
    ///
    /// [`lookup`]: SymbolTable::lookup
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.map.get(name) {
            return Symbol(sym);
        }
        let sym = u32::try_from(self.names.len()).expect("symbol table overflow");
        assert!(sym != u32::MAX, "symbol table overflow");
        self.names.push(name.to_string());
        self.map.insert(name.to_string(), sym);
        Symbol(sym)
    }

    /// The symbol for `name`, or [`Symbol::UNKNOWN`] if it was never
    /// interned. One FxHash of the string — the single per-event hash
    /// the symbol hot path performs. Never allocates, never inserts.
    #[inline]
    pub fn lookup(&self, name: &str) -> Symbol {
        match self.map.get(name) {
            Some(&sym) => Symbol(sym),
            None => Symbol::UNKNOWN,
        }
    }

    /// The name a symbol was interned from. `None` for
    /// [`Symbol::UNKNOWN`] or foreign symbols.
    pub fn resolve(&self, sym: Symbol) -> Option<&str> {
        sym.index()
            .and_then(|i| self.names.get(i))
            .map(String::as_str)
    }

    /// Number of interned names (also: one past the largest valid
    /// symbol index, for sizing dense dispatch tables).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Iterates every interned `(symbol, name)` pair in dense index
    /// order — for building per-symbol side tables (attribute-need
    /// flags, relevance bitmaps) outside the crate that owns the table.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, name)| (Symbol(i as u32), name.as_str()))
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The symbol each of this table's names has in `to`, indexed by
    /// [`Symbol::index`] here; a name `to` lacks maps to
    /// [`Symbol::UNKNOWN`]. A dense array that converts symbols between
    /// two tables with one load instead of one hash per name.
    pub fn translation(&self, to: &SymbolTable) -> Vec<Symbol> {
        self.names.iter().map(|name| to.lookup(name)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = SymbolTable::new();
        let a = t.intern("book");
        let b = t.intern("author");
        let a2 = t.intern("book");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), Some(0));
        assert_eq!(b.index(), Some(1));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn lookup_never_inserts() {
        let mut t = SymbolTable::new();
        t.intern("a");
        assert_eq!(t.lookup("zzz"), Symbol::UNKNOWN);
        assert_eq!(t.len(), 1);
        assert!(!Symbol::UNKNOWN.is_known());
        assert_eq!(Symbol::UNKNOWN.index(), None);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut t = SymbolTable::new();
        let s = t.intern("title");
        assert_eq!(t.resolve(s), Some("title"));
        assert_eq!(t.resolve(Symbol::UNKNOWN), None);
        assert_eq!(t.lookup("title"), s);
    }

    #[test]
    fn clone_shares_assignments() {
        let mut t = SymbolTable::new();
        let s = t.intern("x");
        let snapshot = t.clone();
        assert_eq!(snapshot.lookup("x"), s);
    }

    #[test]
    fn translation_maps_by_name() {
        let mut from = SymbolTable::new();
        for name in ["a", "b", "c"] {
            from.intern(name);
        }
        let mut to = SymbolTable::new();
        let c = to.intern("c");
        let a = to.intern("a");
        assert_eq!(from.translation(&to), [a, Symbol::UNKNOWN, c]);
        assert!(from
            .translation(&SymbolTable::new())
            .iter()
            .all(|s| !s.is_known()));
    }
}
