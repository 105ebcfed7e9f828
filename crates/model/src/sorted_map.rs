//! A hash map whose serialized form is independent of hash order.
//!
//! Live state that is checkpointed (the stream digester's open messages
//! and groups, the grouping stages' lookback) is looked up by key on
//! every message, so it stays a `HashMap`. But `HashMap` iteration order
//! differs between processes, and a checkpoint must encode equal states
//! as equal bytes. [`SortedMap`] is that `HashMap` behind a newtype whose
//! `Serialize` writes the entries in ascending key order: the one place
//! where checkpointed maps are ordered.

use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::{Deref, DerefMut};

/// A `HashMap` (reached through `Deref`) that serializes as `[key, value]`
/// pairs in ascending key order, so equal maps give equal bytes.
#[derive(Debug, Clone)]
pub struct SortedMap<K, V>(pub HashMap<K, V>);

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        SortedMap(HashMap::new())
    }
}

impl<K, V> Deref for SortedMap<K, V> {
    type Target = HashMap<K, V>;
    fn deref(&self) -> &HashMap<K, V> {
        &self.0
    }
}

impl<K, V> DerefMut for SortedMap<K, V> {
    fn deref_mut(&mut self) -> &mut HashMap<K, V> {
        &mut self.0
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for SortedMap<K, V> {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(&K, &V)> = self.0.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries.to_value()
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for SortedMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        HashMap::from_value(v).map(SortedMap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_in_key_order_whatever_the_insertion_order() {
        let mut a: SortedMap<u32, &str> = SortedMap::default();
        let mut b: SortedMap<u32, &str> = SortedMap::default();
        for k in 0..64 {
            a.insert(k, "x");
            b.insert(63 - k, "x");
        }
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(json, serde_json::to_string(&b).unwrap());
        assert!(json.starts_with("[[0,\"x\"],[1,\"x\"],"));
        let back: SortedMap<u32, String> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 64);
    }
}
