//! What the discovery-only tests share: Algorithm 1's discovery actors,
//! without identification or a committee, over one graph on the
//! simulator, and the final states read back out.
//!
//! [`DiscoverySim`] builds the simulation; each caller runs it with its
//! own stop rule and keeps its own assertions. Each test that includes
//! it uses only part of it.

#![allow(dead_code)]

use std::collections::BTreeMap;

use bft_cupft::adversary::TamperSpec;
use bft_cupft::detector::SystemSetup;
use bft_cupft::discovery::{DiscoveryActor, DiscoveryMsg, DiscoveryState, GossipMode};
use bft_cupft::graph::{process_set, DiGraph, KnowledgeView, ProcessId, ProcessSet};
use bft_cupft::net::sim::Simulation;
use bft_cupft::net::{Actor, DelayPolicy, SimConfig, Tamper};

/// The scenario runner's default partial synchrony: GST 200, `δ` = 10,
/// pre-GST delays up to 120.
pub fn psync() -> DelayPolicy {
    DelayPolicy::PartialSynchrony {
        gst: 200,
        delta: 10,
        pre_gst_max: 120,
    }
}

/// The discovery period of every [`DiscoverySim`] actor.
pub const PERIOD: u64 = 20;

/// Discovery actors over one graph, ticking every [`PERIOD`], under
/// [`psync`], delta gossip and private verification unless told
/// otherwise.
pub struct DiscoverySim<'g> {
    graph: &'g DiGraph,
    config: SimConfig,
    gossip: GossipMode,
    tamper: Option<Box<dyn Tamper<DiscoveryMsg>>>,
    shared_pool: bool,
    only: Option<ProcessSet>,
    wrap: fn(DiscoveryActor) -> Box<dyn Actor<DiscoveryMsg>>,
}

impl<'g> DiscoverySim<'g> {
    /// One actor per vertex of `graph`; the simulator stops at `horizon`.
    pub fn new(graph: &'g DiGraph, seed: u64, horizon: u64) -> Self {
        DiscoverySim {
            graph,
            config: SimConfig {
                seed,
                max_time: horizon,
                policy: psync(),
            },
            gossip: GossipMode::Delta,
            tamper: None,
            shared_pool: false,
            only: None,
            wrap: |actor| Box::new(actor),
        }
    }

    /// Sets the delay policy.
    pub fn with_policy(mut self, policy: DelayPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets every state's gossip mode.
    pub fn with_gossip(mut self, mode: GossipMode) -> Self {
        self.gossip = mode;
        self
    }

    /// Installs a network adversary, if any.
    pub fn with_tamper(mut self, tamper: Option<Box<dyn Tamper<DiscoveryMsg>>>) -> Self {
        self.tamper = tamper;
        self
    }

    /// Verifies through the setup's shared pool when `shared` holds.
    pub fn with_shared_pool(mut self, shared: bool) -> Self {
        self.shared_pool = shared;
        self
    }

    /// Runs actors for `processes` only; the setup still signs every
    /// vertex's PD.
    pub fn only(mut self, processes: ProcessSet) -> Self {
        self.only = Some(processes);
        self
    }

    /// Wraps every actor before it is added (its `as_any` must still
    /// reach the [`DiscoveryActor`]).
    pub fn with_wrapper(
        mut self,
        wrap: fn(DiscoveryActor) -> Box<dyn Actor<DiscoveryMsg>>,
    ) -> Self {
        self.wrap = wrap;
        self
    }

    /// The simulation, actors added, not yet run.
    pub fn build(self) -> Simulation<DiscoveryMsg> {
        let setup = SystemSetup::new(self.graph);
        let mut sim = Simulation::new(self.config);
        if let Some(tamper) = self.tamper {
            sim.set_tamper(tamper);
        }
        for v in self.graph.vertices() {
            if self.only.as_ref().is_some_and(|only| !only.contains(&v)) {
                continue;
            }
            let mut state = DiscoveryState::from_setup(&setup, v)
                .expect("vertex registered")
                .with_gossip(self.gossip);
            if self.shared_pool {
                state = state.with_shared_pool(setup.pool().clone());
            }
            sim.add_actor((self.wrap)(DiscoveryActor::new(state, PERIOD)));
        }
        sim
    }
}

/// `tamper` with the sends of `silenced` dropped on top, as one chain.
pub fn silencing(
    tamper: &Option<TamperSpec>,
    silenced: Option<ProcessId>,
) -> Option<Box<dyn Tamper<DiscoveryMsg>>> {
    let mut parts: Vec<TamperSpec> = tamper.iter().cloned().collect();
    if let Some(victim) = silenced {
        parts.push(TamperSpec::DropFrom {
            senders: process_set([victim.raw()]),
        });
    }
    (!parts.is_empty()).then(|| TamperSpec::Chain(parts).build())
}

/// `read` applied to every process's final discovery state.
pub fn final_states<T>(
    sim: Simulation<DiscoveryMsg>,
    mut read: impl FnMut(&DiscoveryState) -> T,
) -> BTreeMap<ProcessId, T> {
    sim.into_actors()
        .into_iter()
        .map(|(id, actor)| {
            let discovery = actor
                .as_any()
                .downcast_ref::<DiscoveryActor>()
                .expect("discovery actor");
            (id, read(discovery.state()))
        })
        .collect()
}

/// Every process's final view.
pub fn final_views(sim: Simulation<DiscoveryMsg>) -> BTreeMap<ProcessId, KnowledgeView> {
    final_states(sim, |state| state.view().clone())
}
