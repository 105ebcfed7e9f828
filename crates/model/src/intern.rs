//! A small string interner.
//!
//! Router names, template keys and location names repeat millions of times
//! across a syslog batch; the mining pipeline interns them once and works
//! with dense `u32` ids thereafter (hashable, copyable, and usable as
//! vector indices).

use crate::fxhash::FxHashMap;
use serde::{Deserialize, Serialize};

/// Bidirectional `String <-> u32` mapping with dense, insertion-ordered ids.
///
/// The reverse map is Fx-hashed: interners hold knowledge-base names
/// (routers, codes), which the feed only looks up.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Interner {
    names: Vec<String>,
    #[serde(skip)]
    map: FxHashMap<String, u32>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its existing id if already present.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.map.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("interner overflow");
        self.names.push(name.to_owned());
        self.map.insert(name.to_owned(), id);
        id
    }

    /// Look up an id without inserting.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.map.get(name).copied()
    }

    /// The string for `id`. Panics on a foreign id — ids are only minted by
    /// this interner, so that is a logic error, not input-dependent.
    pub fn resolve(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_str()))
    }

    /// Rebuild the reverse map after deserialization (serde skips it).
    pub fn rebuild_index(&mut self) {
        self.map = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut it = Interner::new();
        let a = it.intern("r1");
        let b = it.intern("r2");
        let a2 = it.intern("r1");
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a, a2);
        assert_eq!(it.resolve(a), "r1");
        assert_eq!(it.get("r2"), Some(1));
        assert_eq!(it.get("r3"), None);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn serde_roundtrip_restores_lookup() {
        let mut it = Interner::new();
        it.intern("alpha");
        it.intern("beta");
        let json = serde_json::to_string(&it).unwrap();
        let mut back: Interner = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert_eq!(back.get("beta"), Some(1));
        assert_eq!(back.resolve(0), "alpha");
    }

    #[test]
    fn iter_follows_id_order() {
        let mut it = Interner::new();
        for n in ["z", "y", "x"] {
            it.intern(n);
        }
        let order: Vec<&str> = it.iter().map(|(_, n)| n).collect();
        assert_eq!(order, vec!["z", "y", "x"]);
    }
}
