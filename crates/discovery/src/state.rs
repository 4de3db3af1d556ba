//! Runtime-agnostic Discovery state machine.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use cupft_crypto::{KeyRegistry, SigningKey};
use cupft_detector::{CertPool, PdCertificate};
use cupft_graph::{KnowledgeView, ProcessId, ProcessSet};
use cupft_wire::{put_len, Decode, Encode, Reader};

use crate::gate::PollGate;
use crate::msgs::{DiscoveryMsg, SyncState};

/// Timer kind used by discovery actors for the periodic round.
pub const DISCOVERY_TICK: u64 = 0xD15C;

/// Magic bytes opening every [`DiscoveryState`] snapshot.
const SNAPSHOT_MAGIC: &[u8; 7] = b"CUPFTSS";

/// Snapshot layout version (the byte after the magic). Bump when the
/// layout changes; [`DiscoveryState::from_bytes`] rejects versions it does
/// not speak.
const SNAPSHOT_VERSION: u8 = 1;

/// How a [`DiscoveryState`] disseminates its certificate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GossipMode {
    /// Answer `GETPDS` with only the certificates the requester's have-set
    /// is missing, skip `GETPDS` rounds toward peers whose last reported
    /// [`SyncState`] matches ours, and keep at most one `GETPDS` in flight
    /// per peer ([`PollGate`]: a silent peer is re-polled after 1, 2, 4 …
    /// skipped rounds). Observationally equivalent to [`GossipMode::Full`]
    /// (see the [crate docs](crate) for the invariant argument) at a
    /// fraction of the delivered payload.
    #[default]
    Delta,
    /// The literal Algorithm 1: every `GETPDS` is answered with the whole
    /// `S_PD` and every round polls every known peer. Kept as the
    /// baseline the equivalence sweep and the payload benches compare
    /// against.
    Full,
}

/// The per-process state of Algorithm 1.
///
/// Holds the three sets of the paper — `S_PD` (as verified certificates),
/// `S_known`, `S_received` (both inside the [`KnowledgeView`]) — and
/// produces outgoing messages as plain values, so the same state machine
/// runs inside the simulator, the threaded runtime, and the full protocol
/// nodes.
///
/// Certificates are held as `Arc<PdCertificate>` in one table sorted by
/// author and re-shipped by reference. A shipped record is looked up by
/// one binary search of that table, so a held duplicate costs a search
/// and an equality check; a `GETPDS` delta reply is one merge walk of the
/// table against the requester's sorted have-set. Signature verification
/// goes through the state's [`CertPool`] verdict memo (private to the
/// process, or the run's shared one), so each distinct record pays for at
/// most one HMAC check no matter how often the network re-delivers it.
///
/// # Example
///
/// ```
/// use cupft_detector::SystemSetup;
/// use cupft_discovery::DiscoveryState;
/// use cupft_graph::{DiGraph, ProcessId};
///
/// let g = DiGraph::from_edges([(1, 2), (2, 1)]);
/// let setup = SystemSetup::new(&g);
/// let mut s = DiscoveryState::from_setup(&setup, ProcessId::new(1)).unwrap();
/// let round = s.tick();
/// assert_eq!(round.len(), 1); // GETPDS to process 2
/// // 2 has not answered yet: the next round withholds the request, and
/// // the one after that polls 2 again.
/// assert!(s.tick().is_empty());
/// assert_eq!(s.tick().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DiscoveryState {
    id: ProcessId,
    registry: KeyRegistry,
    view: KnowledgeView,
    /// `S_PD`: one verified certificate per author, sorted by author.
    certs: Vec<(ProcessId, Arc<PdCertificate>)>,
    /// Cached snapshot of the held certificate authors (== `S_received`),
    /// shipped inside `GETPDS` as a shared `Arc`.
    have: Arc<ProcessSet>,
    /// Summary of the held certificate set.
    sync: SyncState,
    /// The one verification verdict memo: a private pool by default, the
    /// run's system-wide pool after [`Self::with_shared_pool`].
    pool: Arc<CertPool>,
    /// Fingerprints of the forged records this process rejected, so
    /// [`Self::rejected_forgeries`] counts each distinct forgery once.
    forged: HashSet<u128>,
    /// The last [`SyncState`] each peer reported (via either message
    /// kind). Delta mode skips `GETPDS` toward peers whose report matches
    /// our own state.
    peer_state: BTreeMap<ProcessId, SyncState>,
    /// The peers with an unanswered `GETPDS` (delta mode only).
    gate: PollGate,
    mode: GossipMode,
    changed: bool,
    /// Certificates that failed signature verification (forgery attempts),
    /// counted once per distinct record.
    pub rejected_forgeries: u64,
    /// Verified certificates conflicting with an earlier one from the same
    /// author (only a Byzantine author can produce these; first record
    /// wins).
    pub conflicting_records: u64,
}

impl DiscoveryState {
    /// Initializes the state per Algorithm 1 line 1: the view starts from
    /// the process's own PD and `S_PD = {⟨i, PDᵢ⟩ᵢ}`. Dissemination
    /// defaults to [`GossipMode::Delta`].
    pub fn new(key: &SigningKey, registry: KeyRegistry, pd: ProcessSet) -> Self {
        DiscoveryState::with_own_cert(registry, Arc::new(PdCertificate::sign(key, &pd)))
    }

    /// The state of a process whose own record is `own_cert`, verifying
    /// through a fresh private [`CertPool`].
    fn with_own_cert(registry: KeyRegistry, own_cert: Arc<PdCertificate>) -> Self {
        let id = own_cert.author();
        let mut sync = SyncState::default();
        sync.add(own_cert.fingerprint());
        DiscoveryState {
            id,
            registry,
            view: KnowledgeView::new(id, own_cert.pd().clone()),
            certs: vec![(id, own_cert)],
            have: Arc::new([id].into_iter().collect()),
            sync,
            pool: Arc::new(CertPool::new()),
            forged: HashSet::new(),
            peer_state: BTreeMap::new(),
            gate: PollGate::default(),
            mode: GossipMode::default(),
            changed: true,
            rejected_forgeries: 0,
            conflicting_records: 0,
        }
    }

    /// Convenience constructor from a [`cupft_detector::SystemSetup`]: the
    /// process's own certificate is the one the setup signed, so every
    /// actor of a simulation holds the same allocation.
    ///
    /// Returns `None` if `id` is not part of the setup.
    pub fn from_setup(setup: &cupft_detector::SystemSetup, id: ProcessId) -> Option<Self> {
        let own_cert = setup.shared_certificate_for(id)?;
        Some(DiscoveryState::with_own_cert(
            setup.registry().clone(),
            own_cert,
        ))
    }

    /// Switches the dissemination mode (builder style; use before the
    /// first round).
    pub fn with_gossip(mut self, mode: GossipMode) -> Self {
        self.mode = mode;
        self
    }

    /// Replaces the private verification memo with a system-wide one
    /// (builder style). With a shared pool, a fingerprint verified by
    /// *any* process is settled for all of them — verification is a pure
    /// function of the record bytes against the one shared registry, so
    /// whoever checks first checks for everyone. Decisions are unchanged:
    /// only *who pays* for the HMAC moves, never the verdict.
    pub fn with_shared_pool(mut self, pool: Arc<CertPool>) -> Self {
        self.pool = pool;
        self
    }

    /// The dissemination mode in effect.
    pub fn gossip_mode(&self) -> GossipMode {
        self.mode
    }

    /// This process's ID.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The accumulated knowledge view (`S_known`, `S_received`, PDs).
    pub fn view(&self) -> &KnowledgeView {
        &self.view
    }

    /// The verified certificates held (`S_PD`).
    pub fn certificates(&self) -> impl Iterator<Item = &PdCertificate> + '_ {
        self.certs.iter().map(|(_, c)| c.as_ref())
    }

    /// The summary of the held certificate set (what peers receive in
    /// every message).
    pub fn sync_state(&self) -> SyncState {
        self.sync
    }

    /// Whether the view changed since the last [`Self::take_changed`].
    pub fn take_changed(&mut self) -> bool {
        std::mem::take(&mut self.changed)
    }

    /// Whether a round would currently skip `GETPDS` toward `peer`
    /// (delta mode only: the peer's last reported state matches ours).
    pub fn peer_in_sync(&self, peer: ProcessId) -> bool {
        self.mode == GossipMode::Delta && self.peer_state.get(&peer) == Some(&self.sync)
    }

    /// One periodic round (Algorithm 1 line 2): `GETPDS` to every known
    /// process except ourselves — minus, in delta mode, the peers whose
    /// certificate set provably matches ours already (they have nothing we
    /// lack, and the moment either side changes the states stop matching
    /// and polling resumes), and the peers whose last `GETPDS` is still
    /// unanswered and not yet due for a re-poll ([`PollGate`]).
    pub fn tick(&mut self) -> Vec<(ProcessId, DiscoveryMsg)> {
        let mut round = Vec::new();
        for &p in self.view.known() {
            if p == self.id || self.peer_in_sync(p) {
                continue;
            }
            if self.mode == GossipMode::Delta && !self.gate.poll(p) {
                continue;
            }
            round.push((
                p,
                DiscoveryMsg::GetPds {
                    have: self.have.clone(),
                    state: self.sync,
                },
            ));
        }
        round
    }

    /// The `GETPDS` rounds' withheld polls since the last call (see
    /// [`PollGate::take_deferred`]).
    pub fn take_polls_deferred(&mut self) -> u64 {
        self.gate.take_deferred()
    }

    /// Handles an incoming message, returning the responses to send.
    pub fn handle(&mut self, from: ProcessId, msg: DiscoveryMsg) -> Vec<(ProcessId, DiscoveryMsg)> {
        match msg {
            DiscoveryMsg::GetPds { have, state } => {
                self.peer_state.insert(from, state);
                // Line 3: send S_PD to the requester — all of it, or (delta
                // mode) only the certificates the requester's have-set is
                // missing. The delta is computed statelessly from the
                // request itself, so a lost reply is simply recomputed on
                // the requester's next round: nothing is ever marked
                // "already sent" without the requester proving it.
                let certs: Vec<Arc<PdCertificate>> = match self.mode {
                    GossipMode::Full => self.certs.iter().map(|(_, c)| c.clone()).collect(),
                    GossipMode::Delta => self.missing_from(&have),
                };
                vec![(
                    from,
                    DiscoveryMsg::SetPds {
                        certs: certs.into(),
                        state: self.sync,
                    },
                )]
            }
            DiscoveryMsg::SetPds { certs, state } => {
                // Any `SETPDS` from `from` answers our `GETPDS` to it.
                self.gate.answered(from);
                self.peer_state.insert(from, state);
                self.absorb_batch(&certs);
                Vec::new()
            }
        }
    }

    /// Absorbs one signed PD record (Algorithm 1 lines 4–6); see
    /// [`Self::absorb_batch`].
    pub fn absorb(&mut self, record: Arc<PdCertificate>) {
        self.absorb_batch(&[record]);
    }

    /// Absorbs a `SETPDS` bundle (Algorithm 1 lines 4–6 for each record).
    /// Records equal to the one held for their author are dropped first,
    /// by exact equality, so a decoded copy of a held record is never
    /// hashed or verified. The rest are settled by one
    /// [`CertPool::verify_batch`] call, which pays at most one HMAC per
    /// distinct record, and then admitted in bundle order: a forgery is
    /// counted once per distinct record, a verified record from an author
    /// already held is a conflict (first wins), and any other verified
    /// record joins `S_PD` and the view.
    pub fn absorb_batch(&mut self, certs: &[Arc<PdCertificate>]) {
        let fresh: Vec<Arc<PdCertificate>> =
            certs.iter().filter(|c| !self.holds(c)).cloned().collect();
        if fresh.is_empty() {
            return;
        }
        let verdicts = self.pool.verify_batch(&fresh, &self.registry);
        for (record, ok) in fresh.into_iter().zip(verdicts) {
            self.admit(record, ok);
        }
    }

    /// Admits one record with its verification verdict.
    fn admit(&mut self, record: Arc<PdCertificate>, ok: bool) {
        let author = record.author();
        let slot = self.slot(author);
        if slot.is_ok_and(|i| same_record(&self.certs[i].1, &record)) {
            return; // an earlier copy in the same bundle was just admitted
        }
        if !ok {
            if self.forged.insert(record.fingerprint()) {
                self.rejected_forgeries += 1;
            }
            return;
        }
        let Err(i) = slot else {
            // Equivocating author (necessarily Byzantine): first wins.
            self.conflicting_records += 1;
            return;
        };
        self.sync.add(record.fingerprint());
        Arc::make_mut(&mut self.have).insert(author);
        let pd = record.pd().clone();
        self.certs.insert(i, (author, record));
        if self.view.record_pd(author, pd) {
            self.changed = true;
        }
    }

    /// Where `author`'s certificate sits in the table (`Ok`), or where it
    /// would be inserted (`Err`).
    fn slot(&self, author: ProcessId) -> Result<usize, usize> {
        self.certs.binary_search_by_key(&author, |(a, _)| *a)
    }

    /// Whether `record` is exactly the certificate held for its author.
    fn holds(&self, record: &Arc<PdCertificate>) -> bool {
        self.slot(record.author())
            .is_ok_and(|i| same_record(&self.certs[i].1, record))
    }

    /// The held certificates whose author is not in `have`, in author
    /// order: one merge walk of the table against the sorted have-set.
    fn missing_from(&self, have: &ProcessSet) -> Vec<Arc<PdCertificate>> {
        let have = have.as_slice();
        let mut next = 0;
        let mut missing = Vec::new();
        for (author, cert) in &self.certs {
            while next < have.len() && have[next] < *author {
                next += 1;
            }
            if have.get(next) != Some(author) {
                missing.push(cert.clone());
            }
        }
        missing
    }

    /// The verification memo in use — exposed so a crash-recovering node
    /// can re-attach the run's pool to a state rebuilt from a snapshot
    /// (the pool itself is never serialized).
    pub fn pool(&self) -> &Arc<CertPool> {
        &self.pool
    }

    /// Seeds `S_known` with extra identifiers without recording PDs: the
    /// bootstrap hint handed to a late joiner (its oracle PD may be empty,
    /// but it was told about a few live peers out of band). Subsequent
    /// rounds poll the seeds like any known process.
    pub fn seed_known(&mut self, peers: &ProcessSet) {
        for &p in peers {
            if p != self.id && self.view.learn(p) {
                self.changed = true;
            }
        }
    }

    /// Advances the membership incarnation after a crash-recovery.
    ///
    /// The bumped epoch makes this process's reported [`SyncState`] unequal
    /// to anything peers recorded about its previous incarnation (and vice
    /// versa), so the delta-gossip sync-skip re-arms on both sides — a
    /// rejoiner with a restored-but-stale `S_PD` can never be skipped
    /// forever. Stale per-peer reports and the poll gate's unanswered
    /// requests from before the crash are dropped for the same reason.
    pub fn bump_epoch(&mut self) {
        self.sync.epoch = self.sync.epoch.wrapping_add(1);
        self.peer_state.clear();
        self.gate.clear();
        self.changed = true;
    }

    /// Serializes the durable core of the state — identity, gossip mode,
    /// membership epoch, `S_known`, and the verified certificate set — as a
    /// versioned, length-prefixed byte string built from the
    /// [`cupft_wire::Encode`] codecs (hand-rolled; no serde).
    ///
    /// Volatile fields (per-peer sync reports, the poll gate, the verdict
    /// pool, forgery counters) are deliberately excluded: a
    /// rejoining node must re-learn the world's state, and memo/counter
    /// contents are observability, not protocol state. The encoding is
    /// canonical (sorted sets, certificates in author order), so
    /// `to_bytes ∘ from_bytes` is the identity on byte strings.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.certs.len() * 96);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.push(SNAPSHOT_VERSION);
        self.id.encode(&mut out);
        out.push(match self.mode {
            GossipMode::Delta => 0,
            GossipMode::Full => 1,
        });
        self.sync.epoch.encode(&mut out);
        self.view.known().encode(&mut out);
        put_len(&mut out, self.certs.len());
        for (_, cert) in &self.certs {
            cert.encode(&mut out);
        }
        out
    }

    /// Rebuilds a state from a [`Self::to_bytes`] snapshot.
    ///
    /// Every serialized certificate is re-absorbed through the ordinary
    /// verification path against `registry` (the snapshot carries raw
    /// signature bytes, not trust), so a tampered snapshot degrades to
    /// rejected records rather than poisoned state. Returns `None` on a
    /// malformed or truncated snapshot, or when the snapshot lacks the
    /// owner's own certificate.
    ///
    /// The rebuilt state has fresh volatile fields (empty peer reports, an
    /// empty poll gate, a private pool); callers re-attach the run's pool via
    /// [`Self::with_shared_pool`] and bump the incarnation via
    /// [`Self::bump_epoch`] as the *recovery* — distinct from mere
    /// deserialization, which round-trips byte-identically.
    pub fn from_bytes(bytes: &[u8], registry: KeyRegistry) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.take(SNAPSHOT_MAGIC.len()).ok()? != SNAPSHOT_MAGIC {
            return None;
        }
        if r.u8().ok()? != SNAPSHOT_VERSION {
            return None;
        }
        let id = ProcessId::decode(&mut r).ok()?;
        let mode = match r.u8().ok()? {
            0 => GossipMode::Delta,
            1 => GossipMode::Full,
            _ => return None,
        };
        let epoch = r.u32().ok()?;
        let known = ProcessSet::decode(&mut r).ok()?;
        let cert_count = r.len_prefix().ok()?;
        let mut certs = Vec::with_capacity(cert_count);
        for _ in 0..cert_count {
            certs.push(Arc::new(PdCertificate::decode(&mut r).ok()?));
        }
        // Trailing garbage: not our snapshot.
        r.finish().ok()?;
        let own = certs.iter().find(|c| c.author() == id)?.clone();
        let mut state = DiscoveryState::with_own_cert(registry, own).with_gossip(mode);
        certs.retain(|c| c.author() != id);
        state.absorb_batch(&certs);
        // Re-seed identifiers that were known without a received PD (seed
        // peers, members learned only transitively) so S_known — and hence
        // the polling horizon and the re-serialized bytes — match exactly.
        state.seed_known(&known);
        state.sync.epoch = epoch;
        state.changed = true;
        Some(state)
    }
}

/// Whether `held` and `record` are the same record: the same allocation,
/// or equal bytes (e.g. a decoded copy). Equality never computes a
/// fingerprint.
fn same_record(held: &Arc<PdCertificate>, record: &Arc<PdCertificate>) -> bool {
    Arc::ptr_eq(held, record) || **held == **record
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_detector::SystemSetup;
    use cupft_graph::{process_set, DiGraph};

    fn p(n: u64) -> ProcessId {
        ProcessId::new(n)
    }

    fn line_setup() -> SystemSetup {
        // 1 -> 2 -> 3 (plus reverse edges so everything is reachable)
        SystemSetup::new(&DiGraph::from_edges([(1, 2), (2, 1), (2, 3), (3, 2)]))
    }

    fn set_pds(certs: Vec<PdCertificate>) -> DiscoveryMsg {
        DiscoveryMsg::SetPds {
            certs: certs.into_iter().map(Arc::new).collect(),
            state: SyncState::default(),
        }
    }

    fn get_pds_from(state: &DiscoveryState) -> DiscoveryMsg {
        DiscoveryMsg::GetPds {
            have: Arc::new(state.view().received()),
            state: state.sync_state(),
        }
    }

    #[test]
    fn initial_state_matches_line_1() {
        let setup = line_setup();
        let s = DiscoveryState::from_setup(&setup, p(1)).unwrap();
        assert_eq!(*s.view().known(), process_set([1, 2]));
        assert_eq!(s.view().received(), process_set([1]));
        assert_eq!(s.certificates().count(), 1);
        assert_eq!(s.sync_state().count, 1);
        assert_eq!(s.gossip_mode(), GossipMode::Delta);
    }

    #[test]
    fn tick_targets_known_processes() {
        let setup = line_setup();
        let mut s = DiscoveryState::from_setup(&setup, p(2)).unwrap();
        let out = s.tick();
        let targets: ProcessSet = out.iter().map(|(t, _)| *t).collect();
        assert_eq!(targets, process_set([1, 3]));
        assert!(out
            .iter()
            .all(|(_, m)| matches!(m, DiscoveryMsg::GetPds { .. })));
    }

    #[test]
    fn getpds_answered_with_certificates() {
        let setup = line_setup();
        let mut s = DiscoveryState::from_setup(&setup, p(1)).unwrap();
        let out = s.handle(
            p(2),
            DiscoveryMsg::GetPds {
                have: Arc::new(process_set([2])),
                state: SyncState::default(),
            },
        );
        assert_eq!(out.len(), 1);
        let (to, msg) = &out[0];
        assert_eq!(*to, p(2));
        match msg {
            DiscoveryMsg::SetPds { certs, state } => {
                assert_eq!(certs.len(), 1);
                assert_eq!(*state, s.sync_state());
            }
            _ => panic!("expected SetPds"),
        }
    }

    #[test]
    fn delta_reply_omits_certs_the_requester_has() {
        let setup = line_setup();
        let mut s2 = DiscoveryState::from_setup(&setup, p(2)).unwrap();
        s2.absorb(setup.shared_certificate_for(p(1)).unwrap());
        s2.absorb(setup.shared_certificate_for(p(3)).unwrap());
        // Requester already has 1's and its own cert: only 2, 3 remain.
        let out = s2.handle(
            p(1),
            DiscoveryMsg::GetPds {
                have: Arc::new(process_set([1])),
                state: SyncState::default(),
            },
        );
        match &out[0].1 {
            DiscoveryMsg::SetPds { certs, .. } => {
                let authors: ProcessSet = certs.iter().map(|c| c.author()).collect();
                assert_eq!(authors, process_set([2, 3]));
            }
            _ => panic!("expected SetPds"),
        }
        // Full mode ships everything regardless.
        let mut full = DiscoveryState::from_setup(&setup, p(2))
            .unwrap()
            .with_gossip(GossipMode::Full);
        full.absorb(setup.shared_certificate_for(p(1)).unwrap());
        let out = full.handle(
            p(1),
            DiscoveryMsg::GetPds {
                have: Arc::new(process_set([1, 2])),
                state: SyncState::default(),
            },
        );
        match &out[0].1 {
            DiscoveryMsg::SetPds { certs, .. } => assert_eq!(certs.len(), 2),
            _ => panic!("expected SetPds"),
        }
    }

    #[test]
    fn tick_suppressed_only_while_peer_matches() {
        let setup = line_setup();
        let mut s1 = DiscoveryState::from_setup(&setup, p(1)).unwrap();
        let mut s2 = DiscoveryState::from_setup(&setup, p(2)).unwrap();
        // Exchange until both hold {1, 2}'s certs.
        s1.absorb(setup.shared_certificate_for(p(2)).unwrap());
        s2.absorb(setup.shared_certificate_for(p(1)).unwrap());
        // 1 learns 2's (matching) state from a GETPDS.
        s1.handle(p(2), get_pds_from(&s2));
        assert!(s1.peer_in_sync(p(2)));
        assert!(
            s1.tick().iter().all(|(to, _)| *to != p(2)),
            "matched peer must be skipped"
        );
        // 1's own set changes (3's cert arrives): suppression lifts.
        s1.absorb(setup.shared_certificate_for(p(3)).unwrap());
        assert!(!s1.peer_in_sync(p(2)));
        assert!(s1.tick().iter().any(|(to, _)| *to == p(2)));
        // Full mode never suppresses.
        let full = s2.clone().with_gossip(GossipMode::Full);
        assert!(!full.peer_in_sync(p(1)));
    }

    /// The rounds among the next `rounds` in which `s` polls `peer`.
    fn polled_rounds(s: &mut DiscoveryState, peer: ProcessId, rounds: usize) -> Vec<usize> {
        (0..rounds)
            .filter(|_| s.tick().iter().any(|(to, _)| *to == peer))
            .collect()
    }

    #[test]
    fn unanswered_peer_is_repolled_after_1_2_4_rounds() {
        let setup = line_setup();
        let mut s2 = DiscoveryState::from_setup(&setup, p(2)).unwrap();
        // Neither peer answers: each is polled, then skipped 1, 2, 4 rounds.
        assert_eq!(polled_rounds(&mut s2, p(1), 11), [0, 2, 5, 10]);
        assert_eq!(s2.take_polls_deferred(), 2 * 7);
        // Any SETPDS from 1 answers it: 1 is polled on the next round, and
        // its wait starts again from one skipped round; 3 keeps its wait.
        s2.handle(p(1), set_pds(Vec::new()));
        let round: ProcessSet = s2.tick().iter().map(|(to, _)| *to).collect();
        assert_eq!(round, process_set([1]));
        assert_eq!(polled_rounds(&mut s2, p(1), 5), [1, 4]);
        // A new incarnation forgets every unanswered request.
        s2.bump_epoch();
        let round: ProcessSet = s2.tick().iter().map(|(to, _)| *to).collect();
        assert_eq!(round, process_set([1, 3]));
    }

    #[test]
    fn full_mode_polls_every_round() {
        let setup = line_setup();
        let mut full = DiscoveryState::from_setup(&setup, p(2))
            .unwrap()
            .with_gossip(GossipMode::Full);
        assert_eq!(polled_rounds(&mut full, p(1), 6), [0, 1, 2, 3, 4, 5]);
        assert_eq!(full.take_polls_deferred(), 0);
    }

    #[test]
    fn setpds_expands_knowledge_transitively() {
        let setup = line_setup();
        let mut s1 = DiscoveryState::from_setup(&setup, p(1)).unwrap();
        let cert2 = setup.shared_certificate_for(p(2)).unwrap();
        s1.handle(p(2), set_pds(vec![(*cert2).clone()]));
        // 2's PD = {1,3}: process 1 now knows 3.
        assert_eq!(*s1.view().known(), process_set([1, 2, 3]));
        assert_eq!(s1.view().received(), process_set([1, 2]));
        assert!(s1.take_changed());
        assert!(!s1.take_changed());
    }

    #[test]
    fn forged_records_rejected_and_counted_once() {
        let setup = line_setup();
        let mut s1 = DiscoveryState::from_setup(&setup, p(1)).unwrap();
        let forged = PdCertificate::forge(p(2), &process_set([999]));
        s1.handle(p(2), set_pds(vec![forged.clone()]));
        assert_eq!(s1.rejected_forgeries, 1);
        assert!(!s1.view().knows(p(999)));
        assert!(!s1.view().has_pd_of(p(2)));
        // A replay of the same forged record is discarded without
        // re-verifying and without double-counting.
        s1.handle(p(2), set_pds(vec![forged]));
        assert_eq!(s1.rejected_forgeries, 1);
        // A *different* forgery is a new record and counts again.
        s1.absorb(Arc::new(PdCertificate::forge(p(2), &process_set([998]))));
        assert_eq!(s1.rejected_forgeries, 2);
    }

    #[test]
    fn equivocating_pd_keeps_first() {
        let setup = line_setup();
        let mut s1 = DiscoveryState::from_setup(&setup, p(1)).unwrap();
        let key2 = setup.key_of(p(2)).unwrap();
        let a = PdCertificate::sign(key2, &process_set([1, 3]));
        let b = PdCertificate::sign(key2, &process_set([42]));
        s1.absorb(Arc::new(a));
        s1.absorb(Arc::new(b));
        assert_eq!(s1.conflicting_records, 1);
        assert_eq!(s1.view().pd_of(p(2)), Some(&process_set([1, 3])));
        assert!(!s1.view().knows(p(42)));
    }

    #[test]
    fn duplicate_record_is_noop() {
        let setup = line_setup();
        let mut s1 = DiscoveryState::from_setup(&setup, p(1)).unwrap();
        let cert2 = setup.shared_certificate_for(p(2)).unwrap();
        s1.absorb(cert2.clone());
        let _ = s1.take_changed();
        let sync_before = s1.sync_state();
        s1.absorb(cert2);
        assert!(!s1.take_changed());
        assert_eq!(s1.conflicting_records, 0);
        assert_eq!(s1.sync_state(), sync_before);
    }

    #[test]
    fn sync_state_tracks_cert_set() {
        let setup = line_setup();
        let mut s1 = DiscoveryState::from_setup(&setup, p(1)).unwrap();
        let mut s3 = DiscoveryState::from_setup(&setup, p(3)).unwrap();
        for id in [1, 2, 3] {
            s1.absorb(setup.shared_certificate_for(p(id)).unwrap());
            s3.absorb(setup.shared_certificate_for(p(id)).unwrap());
        }
        assert_eq!(s1.sync_state(), s3.sync_state());
        assert_eq!(s1.sync_state().count, 3);
    }

    #[test]
    fn missing_process_in_setup() {
        let setup = line_setup();
        assert!(DiscoveryState::from_setup(&setup, p(99)).is_none());
    }

    #[test]
    fn snapshot_roundtrips_byte_identically() {
        let setup = line_setup();
        let mut s2 = DiscoveryState::from_setup(&setup, p(2)).unwrap();
        s2.absorb(setup.shared_certificate_for(p(1)).unwrap());
        s2.absorb(setup.shared_certificate_for(p(3)).unwrap());
        s2.seed_known(&process_set([42]));
        let bytes = s2.to_bytes();
        let restored = DiscoveryState::from_bytes(&bytes, setup.registry().clone()).unwrap();
        assert_eq!(restored.id(), p(2));
        assert_eq!(restored.view(), s2.view());
        assert_eq!(restored.sync_state(), s2.sync_state());
        assert_eq!(restored.gossip_mode(), s2.gossip_mode());
        assert_eq!(
            restored.certificates().collect::<Vec<_>>(),
            s2.certificates().collect::<Vec<_>>()
        );
        // The criterion the churn layer relies on: a second serialization
        // reproduces the exact bytes.
        assert_eq!(restored.to_bytes(), bytes);
    }

    /// The canonical snapshot layout, pinned by digest: vertex 1 of an
    /// n = 300 Erdős–Rényi sample holding every certificate of the system
    /// (absorbed in descending author order) plus one seeded ID. Churn
    /// recovery relies on these exact bytes.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let graph = cupft_graph::GraphFamily::erdos_renyi(100, 1)
            .scaled(300)
            .generate(1)
            .unwrap()
            .system
            .graph;
        let setup = SystemSetup::new(&graph);
        let mut s = DiscoveryState::from_setup(&setup, p(1)).unwrap();
        let certs: Vec<Arc<PdCertificate>> = setup
            .processes()
            .iter()
            .rev()
            .map(|&id| setup.shared_certificate_for(id).unwrap())
            .collect();
        s.absorb_batch(&certs);
        s.seed_known(&process_set([100_000]));
        assert_eq!(s.certificates().count(), 300);
        let bytes = s.to_bytes();
        assert_eq!(
            cupft_crypto::sha256::to_hex(&cupft_crypto::sha256::digest(&bytes)),
            "1238f4e9c0ee88b3f6c9b0703ebf029a42bd4e50609f848c469eabe172d4a6fe"
        );
        let restored = DiscoveryState::from_bytes(&bytes, setup.registry().clone()).unwrap();
        assert_eq!(restored.to_bytes(), bytes);
    }

    #[test]
    fn snapshot_preserves_mode_and_epoch() {
        let setup = line_setup();
        let mut s1 = DiscoveryState::from_setup(&setup, p(1))
            .unwrap()
            .with_gossip(GossipMode::Full);
        s1.bump_epoch();
        s1.bump_epoch();
        let bytes = s1.to_bytes();
        let restored = DiscoveryState::from_bytes(&bytes, setup.registry().clone()).unwrap();
        assert_eq!(restored.gossip_mode(), GossipMode::Full);
        assert_eq!(restored.sync_state().epoch, 2);
        assert_eq!(restored.to_bytes(), bytes);
    }

    #[test]
    fn snapshot_rejects_malformed_input() {
        let setup = line_setup();
        let s1 = DiscoveryState::from_setup(&setup, p(1)).unwrap();
        let bytes = s1.to_bytes();
        let reg = setup.registry().clone();
        // Truncations at every prefix length fail cleanly.
        for cut in 0..bytes.len() {
            assert!(DiscoveryState::from_bytes(&bytes[..cut], reg.clone()).is_none());
        }
        // Wrong magic, trailing garbage, empty input.
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xff;
        assert!(DiscoveryState::from_bytes(&wrong, reg.clone()).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(DiscoveryState::from_bytes(&trailing, reg.clone()).is_none());
        assert!(DiscoveryState::from_bytes(&[], reg).is_none());
    }

    #[test]
    fn tampered_snapshot_certificate_is_rejected_on_restore() {
        let setup = line_setup();
        let mut s1 = DiscoveryState::from_setup(&setup, p(1)).unwrap();
        s1.absorb(setup.shared_certificate_for(p(2)).unwrap());
        let mut bytes = s1.to_bytes();
        // Flip a byte in the last certificate's signature tag: the record
        // re-enters through the verification path and is dropped.
        let len = bytes.len();
        bytes[len - 1] ^= 0xff;
        let restored = DiscoveryState::from_bytes(&bytes, setup.registry().clone());
        match restored {
            // Own cert tampered: restore refuses outright (author ordering
            // decides which record sits last; either outcome is sound).
            None => {}
            Some(r) => {
                assert!(r.rejected_forgeries >= 1 || r.certificates().count() < 2);
            }
        }
    }

    #[test]
    fn bump_epoch_rearms_sync_skip() {
        let setup = line_setup();
        let mut s1 = DiscoveryState::from_setup(&setup, p(1)).unwrap();
        let mut s2 = DiscoveryState::from_setup(&setup, p(2)).unwrap();
        s1.absorb(setup.shared_certificate_for(p(2)).unwrap());
        s2.absorb(setup.shared_certificate_for(p(1)).unwrap());
        s1.handle(p(2), get_pds_from(&s2));
        assert!(s1.peer_in_sync(p(2)));
        // 1 crash-recovers with an identical certificate set: the epoch
        // bump alone must lift suppression on 1's side...
        s1.bump_epoch();
        assert!(!s1.peer_in_sync(p(2)));
        // ...and on 2's side once it hears the new incarnation's state.
        s2.handle(p(1), get_pds_from(&s1));
        assert!(!s2.peer_in_sync(p(1)));
    }

    #[test]
    fn shared_pool_settles_verdicts_across_processes() {
        let setup = line_setup();
        let pool = setup.pool().clone();
        let mut s1 = DiscoveryState::from_setup(&setup, p(1))
            .unwrap()
            .with_shared_pool(pool.clone());
        let mut s3 = DiscoveryState::from_setup(&setup, p(3))
            .unwrap()
            .with_shared_pool(pool.clone());
        let forged = Arc::new(PdCertificate::forge(p(2), &process_set([999])));
        let good = setup.shared_certificate_for(p(2)).unwrap();
        s1.absorb(forged.clone());
        s1.absorb(good.clone());
        // The pool settled both fingerprints; s3 absorbs without paying
        // for another HMAC, with identical per-process outcomes.
        assert_eq!(pool.verdict(forged.fingerprint()), Some(false));
        assert_eq!(pool.verdict(good.fingerprint()), Some(true));
        s3.absorb(forged);
        s3.absorb(good);
        assert_eq!(s1.rejected_forgeries, 1);
        assert_eq!(s3.rejected_forgeries, 1);
        assert_eq!(pool.forged_records(), 1);
        assert!(s1.view().has_pd_of(p(2)));
        assert!(s3.view().has_pd_of(p(2)));
    }

    #[test]
    fn absorb_batch_matches_serial_absorb() {
        let setup = line_setup();
        let key2 = setup.key_of(p(2)).unwrap();
        let bundle: Vec<Arc<PdCertificate>> = vec![
            setup.shared_certificate_for(p(2)).unwrap(),
            Arc::new(PdCertificate::forge(p(3), &process_set([7]))),
            // Equivocation from 2: verified but conflicting, first wins.
            Arc::new(PdCertificate::sign(key2, &process_set([42]))),
            // Replay of the forgery inside the same bundle.
            Arc::new(PdCertificate::forge(p(3), &process_set([7]))),
        ];
        let mut serial = DiscoveryState::from_setup(&setup, p(1)).unwrap();
        for record in &bundle {
            serial.absorb(record.clone());
        }
        let mut pooled = DiscoveryState::from_setup(&setup, p(1))
            .unwrap()
            .with_shared_pool(setup.pool().clone());
        pooled.absorb_batch(&bundle);
        assert_eq!(serial.rejected_forgeries, pooled.rejected_forgeries);
        assert_eq!(serial.conflicting_records, pooled.conflicting_records);
        assert_eq!(serial.sync_state(), pooled.sync_state());
        assert_eq!(serial.view(), pooled.view());
        assert_eq!(serial.rejected_forgeries, 1);
        assert_eq!(serial.conflicting_records, 1);
    }
}
