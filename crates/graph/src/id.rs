//! Process identifiers and the compact process-set representation.

use std::cmp::Ordering;
use std::fmt;

/// A unique process identifier.
///
/// The system model (Section II-A of the paper) assumes each process has a
/// unique ID, that IDs are *not necessarily consecutive*, and that faulty
/// processes cannot mint additional IDs (no Sybil attacks). `ProcessId` is a
/// newtype over `u64` so sparse ID spaces are representable, and the
/// simulation registry is the Sybil guard.
///
/// # Example
///
/// ```
/// use cupft_graph::ProcessId;
///
/// let a = ProcessId::new(7);
/// let b = ProcessId::new(1_000_003);
/// assert!(a < b);
/// assert_eq!(a.raw(), 7);
/// assert_eq!(format!("{a}"), "p7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(u64);

impl ProcessId {
    /// Creates a process identifier from a raw integer.
    pub const fn new(raw: u64) -> Self {
        ProcessId(raw)
    }

    /// Returns the raw integer value of this identifier.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u64> for ProcessId {
    fn from(raw: u64) -> Self {
        ProcessId(raw)
    }
}

impl From<ProcessId> for u64 {
    fn from(id: ProcessId) -> Self {
        id.0
    }
}

/// An ordered set of process identifiers.
///
/// Stored as a sorted, deduplicated `Vec<ProcessId>` — compact and
/// cache-friendly compared to a `BTreeSet`. Equality, hashing and the
/// (lexicographic) order are the `Vec`'s own.
///
/// Iteration is in ascending ID order, so every protocol decision derived
/// from iteration stays deterministic across runs (the property the old
/// `BTreeSet` alias provided).
///
/// # Example
///
/// ```
/// use cupft_graph::{process_set, ProcessId, ProcessSet};
///
/// let mut s = ProcessSet::new();
/// assert!(s.insert(ProcessId::new(3)));
/// assert!(s.insert(ProcessId::new(1)));
/// assert!(!s.insert(ProcessId::new(3))); // already present
/// assert_eq!(s, process_set([3, 1]));
/// ```
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessSet {
    items: Vec<ProcessId>,
}

impl ProcessSet {
    /// Creates an empty set.
    pub const fn new() -> Self {
        ProcessSet { items: Vec::new() }
    }

    /// Creates an empty set with room for `capacity` members.
    pub fn with_capacity(capacity: usize) -> Self {
        ProcessSet {
            items: Vec::with_capacity(capacity),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `p` is a member (binary search).
    pub fn contains(&self, p: &ProcessId) -> bool {
        self.items.binary_search(p).is_ok()
    }

    /// Inserts `p`; returns `true` if it was not already present.
    ///
    /// Appending in ascending order is O(1); arbitrary-position inserts
    /// shift the tail (the sets this crate builds are either collected in
    /// one pass or grown near their maximum, so this stays cheap in
    /// practice).
    pub fn insert(&mut self, p: ProcessId) -> bool {
        // Fast path: ascending append (the overwhelmingly common pattern).
        if self.items.last().is_none_or(|&last| last < p) {
            self.items.push(p);
        } else {
            match self.items.binary_search(&p) {
                Ok(_) => return false,
                Err(at) => self.items.insert(at, p),
            }
        }
        true
    }

    /// Removes `p`; returns `true` if it was present.
    pub fn remove(&mut self, p: &ProcessId) -> bool {
        match self.items.binary_search(p) {
            Ok(at) => {
                self.items.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Keeps only the members for which `keep` returns `true`.
    pub fn retain(&mut self, keep: impl FnMut(&ProcessId) -> bool) {
        self.items.retain(keep);
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, ProcessId> {
        self.items.iter()
    }

    /// The members as a sorted slice.
    pub fn as_slice(&self) -> &[ProcessId] {
        &self.items
    }

    /// The smallest member.
    pub fn first(&self) -> Option<&ProcessId> {
        self.items.first()
    }

    /// The largest member.
    pub fn last(&self) -> Option<&ProcessId> {
        self.items.last()
    }

    /// Members of `self` ∪ `other`, ascending (like `BTreeSet::union`).
    pub fn union<'a>(&'a self, other: &'a ProcessSet) -> impl Iterator<Item = &'a ProcessId> {
        MergeIter {
            a: self.items.as_slice(),
            b: other.items.as_slice(),
            keep: |in_a: bool, in_b: bool| in_a || in_b,
        }
    }

    /// Members of `self` ∖ `other`, ascending.
    pub fn difference<'a>(&'a self, other: &'a ProcessSet) -> impl Iterator<Item = &'a ProcessId> {
        MergeIter {
            a: self.items.as_slice(),
            b: other.items.as_slice(),
            keep: |in_a: bool, in_b: bool| in_a && !in_b,
        }
    }

    /// Members of `self` ∩ `other`, ascending.
    pub fn intersection<'a>(
        &'a self,
        other: &'a ProcessSet,
    ) -> impl Iterator<Item = &'a ProcessId> {
        MergeIter {
            a: self.items.as_slice(),
            b: other.items.as_slice(),
            keep: |in_a: bool, in_b: bool| in_a && in_b,
        }
    }

    /// Whether every member of `self` is in `other`.
    pub fn is_subset(&self, other: &ProcessSet) -> bool {
        if self.len() > other.len() {
            return false;
        }
        self.items.iter().all(|p| other.contains(p))
    }
}

/// Two-pointer merge over two sorted slices, yielding elements selected by
/// `keep(in_a, in_b)` — the shared engine behind union / difference /
/// intersection.
struct MergeIter<'a, F> {
    a: &'a [ProcessId],
    b: &'a [ProcessId],
    keep: F,
}

impl<'a, F: Fn(bool, bool) -> bool> Iterator for MergeIter<'a, F> {
    type Item = &'a ProcessId;

    fn next(&mut self) -> Option<&'a ProcessId> {
        loop {
            let (item, in_a, in_b) = match (self.a.first(), self.b.first()) {
                (None, None) => return None,
                (Some(x), None) => {
                    self.a = &self.a[1..];
                    (x, true, false)
                }
                (None, Some(y)) => {
                    self.b = &self.b[1..];
                    (y, false, true)
                }
                (Some(x), Some(y)) => match x.cmp(y) {
                    Ordering::Less => {
                        self.a = &self.a[1..];
                        (x, true, false)
                    }
                    Ordering::Greater => {
                        self.b = &self.b[1..];
                        (y, false, true)
                    }
                    Ordering::Equal => {
                        self.a = &self.a[1..];
                        self.b = &self.b[1..];
                        (x, true, true)
                    }
                },
            };
            if (self.keep)(in_a, in_b) {
                return Some(item);
            }
        }
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.items.iter()).finish()
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut items: Vec<ProcessId> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        ProcessSet { items }
    }
}

impl<'a> FromIterator<&'a ProcessId> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = &'a ProcessId>>(iter: I) -> Self {
        iter.into_iter().copied().collect()
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<I: IntoIterator<Item = ProcessId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl<'a> Extend<&'a ProcessId> for ProcessSet {
    fn extend<I: IntoIterator<Item = &'a ProcessId>>(&mut self, iter: I) {
        self.extend(iter.into_iter().copied());
    }
}

impl IntoIterator for ProcessSet {
    type Item = ProcessId;
    type IntoIter = std::vec::IntoIter<ProcessId>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a> IntoIterator for &'a ProcessSet {
    type Item = &'a ProcessId;
    type IntoIter = std::slice::Iter<'a, ProcessId>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl From<Vec<ProcessId>> for ProcessSet {
    fn from(items: Vec<ProcessId>) -> Self {
        items.into_iter().collect()
    }
}

/// Convenience constructor for a [`ProcessSet`] from raw integers.
///
/// # Example
///
/// ```
/// use cupft_graph::{ProcessId, process_set};
///
/// let s = process_set([1, 2, 3]);
/// assert!(s.contains(&ProcessId::new(2)));
/// ```
pub fn process_set<I: IntoIterator<Item = u64>>(raw: I) -> ProcessSet {
    raw.into_iter().map(ProcessId::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(s: &ProcessSet) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(ProcessId::new(42).to_string(), "p42");
    }

    #[test]
    fn ordering_matches_raw() {
        let mut ids = [ProcessId::new(9), ProcessId::new(1), ProcessId::new(5)];
        ids.sort();
        assert_eq!(
            ids.iter().map(|p| p.raw()).collect::<Vec<_>>(),
            vec![1, 5, 9]
        );
    }

    #[test]
    fn roundtrip_from_u64() {
        let id: ProcessId = 17u64.into();
        let raw: u64 = id.into();
        assert_eq!(raw, 17);
    }

    #[test]
    fn process_set_dedups_and_sorts() {
        let s = process_set([3, 1, 3, 2]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().next().copied(), Some(ProcessId::new(1)));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(ProcessId::default().raw(), 0);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcessSet::new();
        assert!(s.insert(ProcessId::new(5)));
        assert!(s.insert(ProcessId::new(2)));
        assert!(!s.insert(ProcessId::new(5)));
        assert!(s.contains(&ProcessId::new(2)));
        assert!(!s.contains(&ProcessId::new(3)));
        assert!(s.remove(&ProcessId::new(5)));
        assert!(!s.remove(&ProcessId::new(5)));
        assert_eq!(s, process_set([2]));
        // Grown in any order equals collected; remove + reinsert returns.
        let collected = process_set([7, 1, 9, 4]);
        let mut grown = ProcessSet::new();
        for raw in [9, 4, 7, 1] {
            grown.insert(ProcessId::new(raw));
        }
        assert_eq!(collected, grown);
        grown.remove(&ProcessId::new(4));
        assert_ne!(collected, grown);
        grown.insert(ProcessId::new(4));
        assert_eq!(collected, grown);
        let mut odd = process_set([1, 2, 3, 4, 5]);
        odd.retain(|p| p.raw() % 2 == 1);
        assert_eq!(odd, process_set([1, 3, 5]));
        odd.clear();
        assert!(odd.is_empty());
        assert_eq!(odd, ProcessSet::new());
    }

    #[test]
    fn equal_sets_hash_equal() {
        let a = process_set([10, 20, 30]);
        let b = process_set([30, 10, 20]);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(hash_of(&a), hash_of(&process_set([10, 20])));
    }

    #[test]
    fn set_algebra_matches_btreeset_semantics() {
        let a = process_set([1, 2, 3, 5]);
        let b = process_set([2, 4, 5]);
        let union: ProcessSet = a.union(&b).copied().collect();
        assert_eq!(union, process_set([1, 2, 3, 4, 5]));
        let diff: ProcessSet = a.difference(&b).copied().collect();
        assert_eq!(diff, process_set([1, 3]));
        let inter: ProcessSet = a.intersection(&b).copied().collect();
        assert_eq!(inter, process_set([2, 5]));
        assert!(process_set([2, 5]).is_subset(&b));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn ord_is_lexicographic_like_btreeset() {
        assert!(process_set([1, 2]) < process_set([1, 3]));
        assert!(process_set([1]) < process_set([1, 2]));
        assert!(process_set([2]) > process_set([1, 9, 10]));
    }

    #[test]
    fn iteration_is_ascending() {
        let s = process_set([9, 1, 5]);
        let order: Vec<u64> = s.iter().map(|p| p.raw()).collect();
        assert_eq!(order, vec![1, 5, 9]);
        let owned: Vec<u64> = s.clone().into_iter().map(|p| p.raw()).collect();
        assert_eq!(owned, vec![1, 5, 9]);
        let by_ref: Vec<u64> = (&s).into_iter().map(|p| p.raw()).collect();
        assert_eq!(by_ref, vec![1, 5, 9]);
        assert_eq!(s.first(), Some(&ProcessId::new(1)));
        assert_eq!(s.last(), Some(&ProcessId::new(9)));
    }
}
