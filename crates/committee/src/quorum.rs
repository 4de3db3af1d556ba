//! Committee membership and sink quorums.

use cupft_graph::{ProcessId, ProcessSet};

/// A fixed consensus committee: the discovered sink/core members plus the
/// fault threshold the quorums must tolerate.
///
/// # Example
///
/// ```
/// use cupft_committee::Committee;
/// use cupft_graph::process_set;
///
/// // A minimal sink: 2f+1 correct members + f Byzantine, f = 1.
/// let c = Committee::new(process_set([1, 2, 3, 4]), 1);
/// assert_eq!(c.quorum_size(), 3); // ceil((4 + 1 + 1) / 2)
/// assert_eq!(c.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Committee {
    members: Vec<ProcessId>,
    fault_threshold: usize,
}

impl Committee {
    /// Creates a committee from its member set and fault threshold.
    ///
    /// # Panics
    ///
    /// Panics if the committee is empty.
    pub fn new(members: ProcessSet, fault_threshold: usize) -> Self {
        assert!(!members.is_empty(), "committee cannot be empty");
        Committee {
            members: members.into_iter().collect(),
            fault_threshold,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the committee is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The fault threshold `f` the quorums tolerate.
    pub fn fault_threshold(&self) -> usize {
        self.fault_threshold
    }

    /// The sink quorum size `⌈(|S| + f + 1) / 2⌉` of \[11\].
    pub fn quorum_size(&self) -> usize {
        (self.len() + self.fault_threshold + 1).div_ceil(2)
    }

    /// The leader of `view` (round-robin over the sorted member list).
    pub fn leader_of(&self, view: u64) -> ProcessId {
        self.members[(view % self.members.len() as u64) as usize]
    }

    /// Whether `p` is a member.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.members.binary_search(&p).is_ok()
    }

    /// The members in ascending ID order.
    pub fn members(&self) -> &[ProcessId] {
        &self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_graph::process_set;

    fn p(n: u64) -> ProcessId {
        ProcessId::new(n)
    }

    #[test]
    fn quorum_sizes_match_paper() {
        // |S| = 4, f = 1 -> q = 3 (PBFT shape n = 3f+1: q = 2f+1)
        assert_eq!(Committee::new(process_set(1..=4), 1).quorum_size(), 3);
        // |S| = 3, f = 1 -> q = ceil(5/2) = 3 (all-correct minimal sink)
        assert_eq!(Committee::new(process_set(1..=3), 1).quorum_size(), 3);
        // |S| = 7, f = 2 -> q = 5
        assert_eq!(Committee::new(process_set(1..=7), 2).quorum_size(), 5);
    }

    #[test]
    fn quorums_intersect_in_correct_process() {
        // 2q - |S| >= f + 1 for all committee shapes the model allows.
        for f in 0..4usize {
            for extra in 0..=f {
                let n = 2 * f + 1 + extra; // correct sink + some Byzantine
                let c = Committee::new(process_set(1..=(n as u64)), f);
                let q = c.quorum_size();
                assert!(2 * q > n + f, "f={f} n={n}: quorums must intersect in f+1");
            }
        }
    }

    #[test]
    fn leader_rotation() {
        let c = Committee::new(process_set([5, 2, 9]), 1);
        assert_eq!(c.leader_of(0), p(2));
        assert_eq!(c.leader_of(1), p(5));
        assert_eq!(c.leader_of(2), p(9));
        assert_eq!(c.leader_of(3), p(2));
    }

    #[test]
    fn membership() {
        let c = Committee::new(process_set([1, 3]), 0);
        assert!(c.contains(p(1)));
        assert!(!c.contains(p(2)));
    }

    #[test]
    #[should_panic(expected = "committee cannot be empty")]
    fn empty_committee_panics() {
        Committee::new(ProcessSet::new(), 1);
    }
}
