//! Union-find over message indices.
//!
//! §4.2.3: "If any two messages in two different groups have been grouped
//! together, then these two groups will be merged. Thus the changes of
//! orders of these three parts have no impact on the final grouping
//! results." — a disjoint-set forest is exactly that merge semantics.

/// Disjoint-set forest with path halving and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub(crate) fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Merge the sets containing `a` and `b`; returns true if they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Compact group labels: `(group index per element, group count)`,
    /// groups numbered by first appearance.
    pub fn groups(&mut self) -> (Vec<usize>, usize) {
        let n = self.len();
        let mut label = vec![usize::MAX; n];
        let mut out = Vec::with_capacity(n);
        let mut next = 0usize;
        for i in 0..n {
            let r = self.find(i);
            if label[r] == usize::MAX {
                label[r] = next;
                next += 1;
            }
            out.push(label[r]);
        }
        (out, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_and_is_idempotent() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(1, 2));
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
        let (labels, n) = uf.groups();
        assert_eq!(n, 3);
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[3], 1 + labels[0].min(1)); // distinct labels exist
    }

    #[test]
    fn merge_order_does_not_matter() {
        let pairs = [(0usize, 1usize), (2, 3), (1, 2), (4, 5), (5, 0)];
        let mut a = UnionFind::new(6);
        for &(x, y) in &pairs {
            a.union(x, y);
        }
        let mut b = UnionFind::new(6);
        for &(x, y) in pairs.iter().rev() {
            b.union(y, x);
        }
        let (ga, na) = a.groups();
        let (gb, nb) = b.groups();
        assert_eq!(na, nb);
        // Same partition (labels may differ, membership must not).
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(ga[i] == ga[j], gb[i] == gb[j], "{i},{j}");
            }
        }
    }

    #[test]
    fn empty_and_singletons() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.groups().1, 0);
        let mut one = UnionFind::new(1);
        assert_eq!(one.groups().1, 1);
    }
}
