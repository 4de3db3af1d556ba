//! The extended `k`-OSR recognizer (Definition 2, BFT-CUPFT).

use std::collections::BTreeMap;

use crate::connectivity::DisjointPaths;
use crate::digraph::DiGraph;
use crate::error::GraphError;
use crate::id::{ProcessId, ProcessSet};
use crate::osr::{osr_report, OsrReport};
use crate::predicates::{max_threshold_at, subset_masks};
use crate::snapshot::{select, ViewSnapshot};
use crate::view::KnowledgeView;

/// The core of an extended `k`-OSR graph, with its detected parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreWitness {
    /// The core members `V_core`.
    pub members: ProcessSet,
    /// `f_Gdi(V_core)`: the maximum threshold over decompositions.
    pub threshold: usize,
    /// `k_Gdi(V_core) = f_Gdi + 1`.
    pub connectivity: usize,
}

/// The result of checking Definition 2 exhaustively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtendedOsrReport {
    /// The `k` the graph was checked against.
    pub k: usize,
    /// The underlying `k`-OSR report (first requirement of Definition 2).
    pub base: OsrReport,
    /// The maximum-connectivity sink, i.e. the core candidate.
    pub core: Option<CoreWitness>,
    /// Every sink found (member set, `k_Gdi`), for diagnostics.
    pub sinks: Vec<(ProcessSet, usize)>,
    /// Property C1: the core's connectivity strictly exceeds every other
    /// sink's.
    pub c1_unique_maximum: bool,
    /// Property C2: every non-core process has at least `k_Gdi(V_core)`
    /// node-disjoint paths to every core member.
    pub c2_paths: bool,
}

impl ExtendedOsrReport {
    /// Whether the graph belongs to extended `k`-OSR.
    pub fn holds(&self) -> bool {
        self.base.is_k_osr() && self.core.is_some() && self.c1_unique_maximum && self.c2_paths
    }
}

/// Exhaustively checks whether `g` belongs to the extended `k`-OSR family
/// (Definition 2), enumerating every sink via `isSink*`.
///
/// # Errors
///
/// Returns [`GraphError::TooLargeForExactCheck`] if the graph has more than
/// `cutoff` (or 63) vertices (the sink enumeration is exponential).
pub fn is_extended_k_osr(
    g: &DiGraph,
    k: usize,
    cutoff: usize,
) -> Result<ExtendedOsrReport, GraphError> {
    let masks = subset_masks(g.vertex_count(), cutoff)?;
    let base = osr_report(g, k);
    let mut snap = ViewSnapshot::new(&KnowledgeView::omniscient(g));
    // Every vertex's PD is received, so these are all the vertices.
    let vertices = snap.received();

    // Enumerate every S1 once; fold into (member set -> max threshold).
    let mut sink_thresholds: BTreeMap<ProcessSet, usize> = BTreeMap::new();
    let mut s1 = Vec::new();
    for mask in masks {
        select(&vertices, mask, &mut s1);
        if let Some(dec) = max_threshold_at(&mut snap, &s1) {
            let members = dec.members();
            let entry = sink_thresholds.entry(members).or_insert(dec.threshold);
            *entry = (*entry).max(dec.threshold);
        }
    }

    let sinks: Vec<(ProcessSet, usize)> = sink_thresholds
        .iter()
        .map(|(s, &t)| (s.clone(), t + 1))
        .collect();

    // The core: maximum k_Gdi; C1 demands the maximum be unique.
    let core = sinks
        .iter()
        .max_by_key(|(s, conn)| (*conn, s.len()))
        .map(|(s, conn)| CoreWitness {
            members: s.clone(),
            threshold: conn - 1,
            connectivity: *conn,
        });

    let c1_unique_maximum = match &core {
        Some(core) => sinks
            .iter()
            .all(|(s, conn)| *s == core.members || *conn < core.connectivity),
        None => false,
    };

    let c2_paths = match &core {
        Some(core) => {
            let dp = DisjointPaths::new(g);
            let outsiders: Vec<ProcessId> =
                g.vertices().filter(|v| !core.members.contains(v)).collect();
            outsiders.iter().all(|&o| {
                core.members
                    .iter()
                    .all(|&c| dp.at_least(o, c, core.connectivity))
            })
        }
        None => false,
    };

    Ok(ExtendedOsrReport {
        k,
        base,
        core,
        sinks,
        c1_unique_maximum,
        c2_paths,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{fig2c, fig4a, fig4b};
    use crate::id::process_set;

    #[test]
    fn fig4a_is_extended_2_osr_with_core_inside_sink() {
        let f = fig4a();
        let report = is_extended_k_osr(f.graph(), 2, 12).unwrap();
        assert!(report.holds(), "{report:?}");
        let core = report.core.unwrap();
        assert_eq!(core.members, process_set([1, 2, 3, 4, 5]));
        assert_eq!(core.connectivity, 3);
        // the sink component (whole graph) strictly contains the core
        assert_eq!(report.base.sink_members().map(|s| s.len()), Some(9));
    }

    #[test]
    fn fig4b_is_extended_2_osr_with_core_56789() {
        let f = fig4b();
        let report = is_extended_k_osr(f.graph(), 2, 12).unwrap();
        assert!(report.holds(), "{report:?}");
        let core = report.core.unwrap();
        assert_eq!(core.members, process_set([5, 6, 7, 8, 9]));
        assert_eq!(core.connectivity, 3);
    }

    #[test]
    fn fig2c_fails_extended_check() {
        // The impossibility witness: two sinks with equal connectivity
        // ({1,2,3,4} and {5,6,7,8}) violate C1.
        let f = fig2c();
        let report = is_extended_k_osr(f.graph(), 1, 12).unwrap();
        assert!(!report.holds(), "{report:?}");
        assert!(!report.c1_unique_maximum);
        // Both K4s appear among the sinks with connectivity 2.
        let find = |s: &ProcessSet| report.sinks.iter().find(|(m, _)| m == s).map(|(_, c)| *c);
        assert_eq!(find(&process_set([1, 2, 3, 4])), Some(2));
        assert_eq!(find(&process_set([5, 6, 7, 8])), Some(2));
    }

    #[test]
    fn cutoff_enforced() {
        let g = DiGraph::complete(&process_set(1..=15));
        assert!(matches!(
            is_extended_k_osr(&g, 2, 12),
            Err(GraphError::TooLargeForExactCheck { .. })
        ));
    }

    #[test]
    fn complete_graph_is_extended_osr() {
        // K5 alone: single sink (itself), trivially unique, no outsiders.
        let g = DiGraph::complete(&process_set(1..=5));
        let report = is_extended_k_osr(&g, 2, 12).unwrap();
        assert!(report.holds(), "{report:?}");
        assert_eq!(report.core.unwrap().connectivity, 3);
    }
}
