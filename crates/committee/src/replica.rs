//! The replica state machine for single-shot committee consensus.

use std::collections::{BTreeMap, BTreeSet};

use cupft_crypto::sha256::{digest, Digest};
use cupft_crypto::{KeyRegistry, Signature, SigningKey};
use cupft_graph::ProcessId;

use crate::msgs::{CommitteeMsg, QuorumCert, Value, ViewChangeRecord, Vote};
use crate::quorum::Committee;

/// Base for view-timeout timer kinds: the timer for view `v` has kind
/// `VIEW_TIMER_BASE + v`, so a firing timer identifies which view it
/// belongs to. Without this, timers armed for superseded views would fire
/// as premature timeouts of the current view and drive a perpetual
/// view-change carousel.
pub const VIEW_TIMER_BASE: u64 = 0xC0 << 32;

/// The timer kind for a given view's timeout.
pub fn view_timer_kind(view: u64) -> u64 {
    VIEW_TIMER_BASE + view
}

/// Recovers the view from a view-timeout timer kind, if it is one.
pub fn view_of_timer(kind: u64) -> Option<u64> {
    kind.checked_sub(VIEW_TIMER_BASE)
}

/// Replica tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaConfig {
    /// View-0 timeout; view `v` waits `base · 2^min(v,8)`.
    pub timeout_base: u64,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig { timeout_base: 400 }
    }
}

/// Effects produced by one replica step: messages to send, a timer to arm,
/// and possibly a decision with its proof.
#[derive(Debug, Default)]
pub struct Effects {
    /// Outgoing messages.
    pub msgs: Vec<(ProcessId, CommitteeMsg)>,
    /// Timer to arm: `(kind, delay)`.
    pub timer: Option<(u64, u64)>,
    /// The commit certificate of the decision, the first time the
    /// replica decides.
    pub decided: Option<QuorumCert>,
}

impl Effects {
    fn broadcast(&mut self, committee: &Committee, msg: CommitteeMsg) {
        for &m in committee.members() {
            self.msgs.push((m, msg.clone()));
        }
    }
}

/// A correct committee member running the signed three-phase protocol.
///
/// The replica is runtime-agnostic: callers feed it messages and timer
/// expirations and apply the returned [`Effects`]. `cupft-core` embeds it
/// in full protocol nodes; the tests here drive it through the simulator.
///
/// # Example
///
/// ```
/// use cupft_committee::{Committee, Replica, ReplicaConfig, Value};
/// use cupft_crypto::KeyRegistry;
/// use cupft_graph::process_set;
///
/// // A singleton committee decides its own proposal immediately after
/// // hearing its own (self-addressed) protocol messages.
/// let mut registry = KeyRegistry::new();
/// let key = registry.register(1);
/// let committee = Committee::new(process_set([1]), 0);
/// let mut replica = Replica::new(
///     key,
///     registry,
///     committee,
///     Value::from_static(b"solo"),
///     ReplicaConfig::default(),
/// );
/// let me = replica.id();
/// let mut inbox: Vec<_> = replica.start().msgs;
/// while let Some((_, msg)) = inbox.pop() {
///     let fx = replica.handle(me, msg);
///     inbox.extend(fx.msgs);
/// }
/// assert_eq!(replica.decision().map(|v| v.as_ref()), Some(&b"solo"[..]));
/// ```
#[derive(Debug)]
pub struct Replica {
    id: ProcessId,
    key: SigningKey,
    registry: KeyRegistry,
    committee: Committee,
    config: ReplicaConfig,
    my_value: Value,

    view: u64,
    /// Leader proposal accepted per view (equivocation guard).
    accepted: BTreeMap<u64, Digest>,
    /// Values learned from valid pre-prepares, for commit-time lookup.
    values: BTreeMap<(u64, Digest), Value>,
    /// Vote signatures per `(vote, view, digest)`, one per member.
    votes: BTreeMap<(Vote, u64, Digest), BTreeMap<ProcessId, Signature>>,
    sent_commit: BTreeSet<u64>,
    sent_view_change: BTreeSet<u64>,
    proposed_in: BTreeSet<u64>,
    view_changes: BTreeMap<u64, BTreeMap<ProcessId, ViewChangeRecord>>,
    prepared_cert: Option<QuorumCert>,
    decided: Option<QuorumCert>,
}

impl Replica {
    /// Creates a replica proposing `my_value`.
    ///
    /// # Panics
    ///
    /// Panics if the key's ID is not a committee member.
    pub fn new(
        key: SigningKey,
        registry: KeyRegistry,
        committee: Committee,
        my_value: Value,
        config: ReplicaConfig,
    ) -> Self {
        let id = ProcessId::new(key.id());
        assert!(committee.contains(id), "replica must be a committee member");
        Replica {
            id,
            key,
            registry,
            committee,
            config,
            my_value,
            view: 0,
            accepted: BTreeMap::new(),
            values: BTreeMap::new(),
            votes: BTreeMap::new(),
            sent_commit: BTreeSet::new(),
            sent_view_change: BTreeSet::new(),
            proposed_in: BTreeSet::new(),
            view_changes: BTreeMap::new(),
            prepared_cert: None,
            decided: None,
        }
    }

    /// This replica's ID.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The decided value, if any (Integrity: set at most once).
    pub fn decision(&self) -> Option<&Value> {
        self.decided.as_ref().map(|cert| &cert.value)
    }

    /// The current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// The committee this replica serves.
    pub fn committee(&self) -> &Committee {
        &self.committee
    }

    fn timeout_for(&self, view: u64) -> u64 {
        self.config.timeout_base.saturating_mul(1 << view.min(8))
    }

    /// Begins the protocol: leader of view 0 proposes; everyone arms the
    /// view timer.
    pub fn start(&mut self) -> Effects {
        let mut fx = Effects::default();
        if self.committee.leader_of(0) == self.id {
            let msg = CommitteeMsg::pre_prepare(&self.key, 0, self.my_value.clone(), vec![]);
            fx.broadcast(&self.committee, msg);
            self.proposed_in.insert(0);
        }
        fx.timer = Some((view_timer_kind(0), self.timeout_for(0)));
        fx
    }

    /// Handles one protocol message.
    pub fn handle(&mut self, _from: ProcessId, msg: CommitteeMsg) -> Effects {
        let mut fx = Effects::default();
        if self.decided.is_some() {
            return fx;
        }
        if !msg.verify(&self.registry, &self.committee) {
            return fx;
        }
        let signer = msg.signer();
        match msg {
            CommitteeMsg::PrePrepare {
                view,
                value,
                justification,
                ..
            } => self.on_pre_prepare(view, value, signer, justification, &mut fx),
            CommitteeMsg::Vote {
                kind,
                view,
                digest,
                signature,
            } => {
                self.votes
                    .entry((kind, view, digest))
                    .or_default()
                    .insert(signer, signature);
                match kind {
                    Vote::Prepare => self.try_prepare(view, digest, &mut fx),
                    Vote::Commit => self.try_decide(view, digest, &mut fx),
                }
            }
            CommitteeMsg::ViewChange(vc) => self.on_view_change(vc, &mut fx),
        }
        fx
    }

    fn on_pre_prepare(
        &mut self,
        view: u64,
        value: Value,
        signer: ProcessId,
        justification: Vec<ViewChangeRecord>,
        fx: &mut Effects,
    ) {
        if signer != self.committee.leader_of(view) {
            return;
        }
        // A proposal for a superseded view carries no voting weight, but
        // its VALUE must still be recorded: commit quorums reference values
        // by digest, and a replica that advanced past the deciding view
        // before the pre-prepare arrived would otherwise hold a full
        // commit certificate it can never resolve (slow-replica catch-up,
        // the role checkpoints play in full PBFT). Recording is safe: a
        // decision still requires a commit quorum over the same digest.
        if view < self.view {
            let d = digest(&value);
            self.values.insert((view, d), value);
            self.try_decide(view, d, fx);
            return;
        }
        // Views > 0 need a quorum of view-change votes and a value choice
        // consistent with the highest prepared certificate among them.
        if view > 0 {
            let mut signers = BTreeSet::new();
            for vc in &justification {
                if vc.new_view == view {
                    signers.insert(vc.signer());
                }
            }
            if signers.len() < self.committee.quorum_size() {
                return;
            }
            if let Some(best) = justification
                .iter()
                .filter(|vc| vc.new_view == view)
                .filter_map(|vc| vc.prepared.as_ref())
                .max_by_key(|cert| cert.view)
            {
                if best.value != value {
                    return;
                }
            }
        }
        let d = digest(&value);
        if self.accepted.contains_key(&view) {
            return; // a duplicate or an equivocation
        }
        self.accepted.insert(view, d);
        self.values.insert((view, d), value);
        if view > self.view {
            self.enter_view(view, fx);
        }
        let msg = CommitteeMsg::prepare(&self.key, view, d);
        fx.broadcast(&self.committee, msg);
    }

    /// We are "prepared" for (view, d) once a quorum prepared a value we
    /// know: keep the highest prepared certificate and commit, once.
    fn try_prepare(&mut self, view: u64, d: Digest, fx: &mut Effects) {
        let Some(cert) = self.quorum_cert(Vote::Prepare, view, d) else {
            return;
        };
        if self.prepared_cert.as_ref().is_none_or(|c| view > c.view) {
            self.prepared_cert = Some(cert);
        }
        if self.sent_commit.insert(view) {
            let msg = CommitteeMsg::commit(&self.key, view, d);
            fx.broadcast(&self.committee, msg);
        }
    }

    /// Decides once a quorum committed a value we know, keeping the
    /// commit certificate as the decision's proof.
    fn try_decide(&mut self, view: u64, d: Digest, fx: &mut Effects) {
        if let Some(cert) = self.quorum_cert(Vote::Commit, view, d) {
            self.decided = Some(cert.clone());
            fx.decided = Some(cert);
        }
    }

    /// The certificate of a quorum's `vote`s for `(view, d)`, once a
    /// quorum has voted and the value is known.
    fn quorum_cert(&self, vote: Vote, view: u64, d: Digest) -> Option<QuorumCert> {
        let signatures = self.votes.get(&(vote, view, d))?;
        if signatures.len() < self.committee.quorum_size() {
            return None;
        }
        Some(QuorumCert {
            view,
            value: self.values.get(&(view, d))?.clone(),
            signatures: signatures.values().copied().collect(),
        })
    }

    fn on_view_change(&mut self, vc: ViewChangeRecord, fx: &mut Effects) {
        let nv = vc.new_view;
        self.view_changes
            .entry(nv)
            .or_default()
            .insert(vc.signer(), vc);
        let count = self.view_changes[&nv].len();
        let f = self.committee.fault_threshold();
        // Join a view change once f+1 members demand it (at least one is
        // correct), even if our own timer has not fired.
        if count > f && nv > self.view && !self.sent_view_change.contains(&nv) {
            self.send_view_change(nv, fx);
            self.enter_view(nv, fx);
        }
        // As the new leader, propose once a quorum backs the view.
        if count >= self.committee.quorum_size()
            && self.committee.leader_of(nv) == self.id
            && self.proposed_in.insert(nv)
        {
            let vcs: Vec<ViewChangeRecord> = self.view_changes[&nv].values().cloned().collect();
            let value = vcs
                .iter()
                .filter_map(|vc| vc.prepared.as_ref())
                .max_by_key(|cert| cert.view)
                .map(|cert| cert.value.clone())
                .unwrap_or_else(|| self.my_value.clone());
            if nv > self.view {
                self.enter_view(nv, fx);
            }
            let msg = CommitteeMsg::pre_prepare(&self.key, nv, value, vcs);
            fx.broadcast(&self.committee, msg);
        }
    }

    /// Handles the timeout of `timed_out_view`: if the replica is still
    /// undecided *in that view*, vote to move to the next one. Timeouts of
    /// superseded views are ignored — every `enter_view` arms a fresh
    /// timer for its view, so the current view always has a live timer.
    pub fn on_timeout(&mut self, timed_out_view: u64) -> Effects {
        let mut fx = Effects::default();
        if self.decided.is_some() || timed_out_view != self.view {
            return fx;
        }
        let nv = self.view + 1;
        if !self.sent_view_change.contains(&nv) {
            self.send_view_change(nv, &mut fx);
        }
        self.enter_view(nv, &mut fx);
        fx
    }

    fn send_view_change(&mut self, nv: u64, fx: &mut Effects) {
        self.sent_view_change.insert(nv);
        let vc = ViewChangeRecord::sign(&self.key, nv, self.prepared_cert.clone());
        fx.broadcast(&self.committee, CommitteeMsg::ViewChange(vc));
    }

    fn enter_view(&mut self, view: u64, fx: &mut Effects) {
        if view > self.view {
            self.view = view;
        }
        fx.timer = Some((view_timer_kind(self.view), self.timeout_for(self.view)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use cupft_graph::process_set;

    fn make_replicas(n: u64, f: usize) -> (Vec<Replica>, KeyRegistry, Committee) {
        let mut registry = KeyRegistry::new();
        let committee = Committee::new(process_set(1..=n), f);
        let replicas = (1..=n)
            .map(|i| {
                let key = registry.register(i);
                Replica::new(
                    key,
                    registry.clone(),
                    committee.clone(),
                    Bytes::from(format!("value-{i}")),
                    ReplicaConfig::default(),
                )
            })
            .collect();
        (replicas, registry, committee)
    }

    /// Synchronous lock-step delivery loop: applies every effect message
    /// immediately. Good enough for logic tests; timing behavior is tested
    /// through the simulator in cupft-core.
    fn run_lockstep(replicas: &mut [Replica], drop_from: &[u64]) -> Vec<Option<Value>> {
        let mut queue: Vec<(ProcessId, ProcessId, CommitteeMsg)> = Vec::new();
        for r in replicas.iter_mut() {
            let fx = r.start();
            for (to, m) in fx.msgs {
                queue.push((r.id(), to, m));
            }
        }
        let mut steps = 0;
        while let Some((from, to, msg)) = queue.pop() {
            steps += 1;
            assert!(steps < 100_000, "lockstep did not converge");
            if drop_from.contains(&from.raw()) {
                continue;
            }
            let Some(r) = replicas.iter_mut().find(|r| r.id() == to) else {
                continue;
            };
            let fx = r.handle(from, msg);
            if let Some(cert) = &fx.decided {
                // A decision's proof is a quorum of commits, not prepares.
                assert!(cert.verify(&r.registry, &r.committee, Vote::Commit));
                assert!(!cert.verify(&r.registry, &r.committee, Vote::Prepare));
            }
            for (to2, m2) in fx.msgs {
                queue.push((r.id(), to2, m2));
            }
        }
        replicas.iter().map(|r| r.decision().cloned()).collect()
    }

    #[test]
    fn four_replicas_decide_leader_value() {
        let (mut replicas, _, _) = make_replicas(4, 1);
        let decisions = run_lockstep(&mut replicas, &[]);
        for d in &decisions {
            assert_eq!(d.as_deref(), Some(&b"value-1"[..]));
        }
    }

    #[test]
    fn three_replicas_f1_all_correct() {
        // minimal sink: 2f+1 = 3 members, all correct; quorum = 3
        let (mut replicas, _, _) = make_replicas(3, 1);
        let decisions = run_lockstep(&mut replicas, &[]);
        for d in &decisions {
            assert_eq!(d.as_deref(), Some(&b"value-1"[..]));
        }
    }

    #[test]
    fn singleton_committee() {
        let (mut replicas, _, _) = make_replicas(1, 0);
        let decisions = run_lockstep(&mut replicas, &[]);
        assert_eq!(decisions[0].as_deref(), Some(&b"value-1"[..]));
    }

    #[test]
    fn silent_follower_does_not_block() {
        // 4 members, f=1, quorum 3: replica 4 silent (messages dropped).
        let (mut replicas, _, _) = make_replicas(4, 1);
        let decisions = run_lockstep(&mut replicas, &[4]);
        for (i, d) in decisions.iter().enumerate() {
            if i == 3 {
                continue; // the silent one may or may not decide
            }
            assert_eq!(d.as_deref(), Some(&b"value-1"[..]), "replica {}", i + 1);
        }
    }

    #[test]
    fn silent_leader_triggers_view_change_and_decision() {
        let (mut replicas, _, _) = make_replicas(4, 1);
        // Leader (1) never sends anything; followers time out.
        // Simulate: start all, drop leader messages, then fire timeouts.
        let mut queue: Vec<(ProcessId, ProcessId, CommitteeMsg)> = Vec::new();
        for r in replicas.iter_mut() {
            let fx = r.start();
            for (to, m) in fx.msgs {
                if r.id().raw() != 1 {
                    queue.push((r.id(), to, m));
                }
            }
        }
        // all followers time out view 0
        for r in replicas.iter_mut() {
            if r.id().raw() == 1 {
                continue;
            }
            let fx = r.on_timeout(r.view());
            for (to, m) in fx.msgs {
                queue.push((r.id(), to, m));
            }
        }
        let mut steps = 0;
        while let Some((from, to, msg)) = queue.pop() {
            steps += 1;
            assert!(steps < 100_000);
            if from.raw() == 1 {
                continue;
            }
            let Some(r) = replicas.iter_mut().find(|r| r.id() == to) else {
                continue;
            };
            let fx = r.handle(from, msg);
            for (to2, m2) in fx.msgs {
                queue.push((r.id(), to2, m2));
            }
        }
        // replica 2 is leader of view 1; followers 2,3,4 decide value-2
        for r in &replicas {
            if r.id().raw() == 1 {
                continue;
            }
            assert_eq!(
                r.decision().map(|v| v.as_ref()),
                Some(&b"value-2"[..]),
                "replica {} must decide in view 1",
                r.id()
            );
        }
    }

    #[test]
    fn equivocating_leader_cannot_split_decision() {
        // Leader 1 sends value A to replicas 2,3 and value B to 4 (f=1,
        // n=4, quorum 3): no quorum forms for either in view 0; after view
        // change all correct decide the same value.
        let (mut replicas, registry, committee) = make_replicas(4, 1);
        let mut fake_registry = registry.clone();
        let leader_key = fake_registry.register(1);
        let a = CommitteeMsg::pre_prepare(&leader_key, 0, Bytes::from_static(b"A"), vec![]);
        let b = CommitteeMsg::pre_prepare(&leader_key, 0, Bytes::from_static(b"B"), vec![]);
        let _ = committee;

        let mut queue: Vec<(ProcessId, ProcessId, CommitteeMsg)> = Vec::new();
        for r in replicas.iter_mut() {
            let _ = r.start(); // discard leader 1's honest proposal
        }
        queue.push((ProcessId::new(1), ProcessId::new(2), a.clone()));
        queue.push((ProcessId::new(1), ProcessId::new(3), a));
        queue.push((ProcessId::new(1), ProcessId::new(4), b));

        let mut steps = 0;
        loop {
            while let Some((from, to, msg)) = queue.pop() {
                steps += 1;
                assert!(steps < 200_000);
                if from.raw() == 1 {
                    if let Some(r) = replicas.iter_mut().find(|r| r.id() == to) {
                        let fx = r.handle(from, msg);
                        for (to2, m2) in fx.msgs {
                            queue.push((r.id(), to2, m2));
                        }
                    }
                    continue;
                }
                let Some(r) = replicas.iter_mut().find(|r| r.id() == to) else {
                    continue;
                };
                let fx = r.handle(from, msg);
                for (to2, m2) in fx.msgs {
                    queue.push((r.id(), to2, m2));
                }
            }
            // nobody can progress in view 0: fire timeouts on correct
            let undecided: Vec<u64> = replicas
                .iter()
                .filter(|r| r.id().raw() != 1 && r.decision().is_none())
                .map(|r| r.id().raw())
                .collect();
            if undecided.is_empty() {
                break;
            }
            let mut produced = false;
            for r in replicas.iter_mut() {
                if r.id().raw() == 1 || r.decision().is_some() {
                    continue;
                }
                let fx = r.on_timeout(r.view());
                for (to, m) in fx.msgs {
                    queue.push((r.id(), to, m));
                    produced = true;
                }
            }
            assert!(produced, "no progress possible: {undecided:?}");
        }

        let decisions: BTreeSet<Vec<u8>> = replicas
            .iter()
            .filter(|r| r.id().raw() != 1)
            .filter_map(|r| r.decision().map(|v| v.to_vec()))
            .collect();
        assert_eq!(decisions.len(), 1, "agreement violated: {decisions:?}");
    }

    #[test]
    fn decides_at_most_once() {
        let (mut replicas, _, _) = make_replicas(4, 1);
        let _ = run_lockstep(&mut replicas, &[]);
        // feed a stale commit quorum again: decision must not change and
        // no new decided effect may fire
        let r = &mut replicas[1];
        assert!(r.decision().is_some());
        let fx = r.on_timeout(r.view());
        assert!(fx.decided.is_none());
        assert!(fx.msgs.is_empty());
    }

    #[test]
    fn non_leader_preprepare_ignored() {
        let (mut replicas, registry, _) = make_replicas(4, 1);
        let mut reg = registry.clone();
        let key2 = reg.register(2); // member but not leader of view 0
        let msg = CommitteeMsg::pre_prepare(&key2, 0, Bytes::from_static(b"evil"), vec![]);
        let fx = replicas[2].handle(ProcessId::new(2), msg);
        assert!(fx.msgs.is_empty());
    }

    #[test]
    fn unjustified_view_jump_ignored() {
        let (mut replicas, registry, _) = make_replicas(4, 1);
        let mut reg = registry.clone();
        let key2 = reg.register(2); // leader of view 1
        let msg = CommitteeMsg::pre_prepare(&key2, 1, Bytes::from_static(b"evil"), vec![]);
        let fx = replicas[2].handle(ProcessId::new(2), msg);
        assert!(fx.msgs.is_empty(), "view-1 proposal needs justification");
    }
}
