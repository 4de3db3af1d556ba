//! Committee protocol messages. Each holds its fields once plus one
//! [`Signature`] over [`signing_message`] of them, so what is signed is
//! exactly what is sent.

use bytes::Bytes;
use cupft_crypto::sha256::{digest, Digest, DIGEST_LEN};
use cupft_crypto::{KeyRegistry, Signature, SigningKey};
use cupft_graph::ProcessId;
use cupft_net::Labeled;
use cupft_wire::{Decode, Encode, Reader, WireError};

use crate::quorum::Committee;

/// The value type the committee agrees on.
pub type Value = Bytes;

/// Signing domains, one per message kind. The domain is implied by the
/// kind and never travels, so a signature of one kind cannot be replayed
/// as another.
const D_PREPREPARE: &str = "cupft-preprepare";
const D_PREPARE: &str = "cupft-prepare";
const D_COMMIT: &str = "cupft-commit";
const D_VIEWCHANGE: &str = "cupft-viewchange";

/// The bytes a committee signature covers: the kind's domain label, the
/// view, then the kind's other signed fields, all in `cupft_wire`
/// encoding.
fn signing_message<T: Encode + ?Sized>(domain: &str, view: u64, fields: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    domain.encode(&mut out);
    view.encode(&mut out);
    fields.encode(&mut out);
    out
}

/// Whether `signature` is a committee member's signature over `message`.
fn member_signed(
    registry: &KeyRegistry,
    committee: &Committee,
    signature: &Signature,
    message: &[u8],
) -> bool {
    committee.contains(ProcessId::new(signature.signer()))
        && registry.verify(signature.signer(), message, signature)
}

/// The two votes over `(view, digest)`, each signed in its own domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Vote {
    /// The voter accepted the leader's proposal.
    Prepare,
    /// The voter saw a quorum prepare the value.
    Commit,
}

impl Vote {
    fn domain(self) -> &'static str {
        match self {
            Vote::Prepare => D_PREPARE,
            Vote::Commit => D_COMMIT,
        }
    }
}

/// A quorum's [`Vote`]s for `value` in `view`. Over prepares it is the
/// *prepared certificate* a view change carries, so a new leader cannot
/// revert a possibly decided value; over commits, the *commit
/// certificate* that proves a decision. Which vote it holds is implied by
/// where it travels, so a prepare quorum cannot pass for a commit quorum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumCert {
    /// The view of the votes.
    pub view: u64,
    /// The value voted for.
    pub value: Value,
    /// The quorum's vote signatures over `(view, digest(value))`.
    pub signatures: Vec<Signature>,
}

impl QuorumCert {
    /// Verifies the certificate as a quorum of `vote`s: at least
    /// `quorum_size` signatures, each by a distinct committee member over
    /// this view and value's digest.
    pub fn verify(&self, registry: &KeyRegistry, committee: &Committee, vote: Vote) -> bool {
        let message = signing_message(vote.domain(), self.view, &digest(&self.value)[..]);
        let mut signers = std::collections::BTreeSet::new();
        self.signatures.len() >= committee.quorum_size()
            && self.signatures.iter().all(|s| {
                signers.insert(s.signer()) && member_signed(registry, committee, s, &message)
            })
    }
}

/// A signed view-change vote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChangeRecord {
    /// The view the sender wants to enter.
    pub new_view: u64,
    /// The sender's highest prepared certificate, if any.
    pub prepared: Option<QuorumCert>,
    /// Signature over `new_view` and `prepared`.
    pub signature: Signature,
}

impl ViewChangeRecord {
    /// Signs a view-change vote.
    pub fn sign(key: &SigningKey, new_view: u64, prepared: Option<QuorumCert>) -> Self {
        let signature = key.sign(&signing_message(D_VIEWCHANGE, new_view, &prepared));
        ViewChangeRecord {
            new_view,
            prepared,
            signature,
        }
    }

    /// The voting process.
    pub fn signer(&self) -> ProcessId {
        ProcessId::new(self.signature.signer())
    }

    /// Verifies the signature, committee membership, and the embedded
    /// prepared certificate (when present).
    pub fn verify(&self, registry: &KeyRegistry, committee: &Committee) -> bool {
        let message = signing_message(D_VIEWCHANGE, self.new_view, &self.prepared);
        member_signed(registry, committee, &self.signature, &message)
            && self
                .prepared
                .as_ref()
                .is_none_or(|cert| cert.verify(registry, committee, Vote::Prepare))
    }
}

/// Committee consensus messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitteeMsg {
    /// Leader proposal for a view. For views > 0 the proposal must carry a
    /// quorum of view-change votes justifying the value choice.
    PrePrepare {
        /// Proposal view.
        view: u64,
        /// Proposed value.
        value: Value,
        /// Leader signature over `(view, value)`.
        signature: Signature,
        /// View-change justification (empty for view 0).
        justification: Vec<ViewChangeRecord>,
    },
    /// Prepare or commit vote over `(view, digest)`.
    Vote {
        /// Which vote.
        kind: Vote,
        /// Vote view.
        view: u64,
        /// Digest of the voted value.
        digest: Digest,
        /// Voter signature over `(view, digest)` in `kind`'s domain.
        signature: Signature,
    },
    /// View-change vote.
    ViewChange(ViewChangeRecord),
}

impl CommitteeMsg {
    /// Builds a signed pre-prepare.
    pub fn pre_prepare(
        key: &SigningKey,
        view: u64,
        value: Value,
        justification: Vec<ViewChangeRecord>,
    ) -> Self {
        let signature = key.sign(&signing_message(D_PREPREPARE, view, &value));
        CommitteeMsg::PrePrepare {
            view,
            value,
            signature,
            justification,
        }
    }

    /// Builds a signed vote of `kind`.
    pub fn vote(key: &SigningKey, kind: Vote, view: u64, d: Digest) -> Self {
        let signature = key.sign(&signing_message(kind.domain(), view, &d[..]));
        CommitteeMsg::Vote {
            kind,
            view,
            digest: d,
            signature,
        }
    }

    /// Builds a signed prepare vote.
    pub fn prepare(key: &SigningKey, view: u64, d: Digest) -> Self {
        Self::vote(key, Vote::Prepare, view, d)
    }

    /// Builds a signed commit vote.
    pub fn commit(key: &SigningKey, view: u64, d: Digest) -> Self {
        Self::vote(key, Vote::Commit, view, d)
    }

    /// Verifies the message's signature and structural consistency
    /// against the registry and committee. (Leader/view semantics are the
    /// replica's job; this checks authenticity.)
    pub fn verify(&self, registry: &KeyRegistry, committee: &Committee) -> bool {
        let (message, justification) = match self {
            CommitteeMsg::PrePrepare {
                view,
                value,
                justification,
                ..
            } => (
                signing_message(D_PREPREPARE, *view, value),
                &justification[..],
            ),
            CommitteeMsg::Vote {
                kind, view, digest, ..
            } => (signing_message(kind.domain(), *view, &digest[..]), &[][..]),
            CommitteeMsg::ViewChange(vc) => return vc.verify(registry, committee),
        };
        member_signed(registry, committee, self.signature(), &message)
            && justification
                .iter()
                .all(|vc| vc.verify(registry, committee))
    }

    /// The attached signature.
    pub fn signature(&self) -> &Signature {
        match self {
            CommitteeMsg::PrePrepare { signature, .. } | CommitteeMsg::Vote { signature, .. } => {
                signature
            }
            CommitteeMsg::ViewChange(vc) => &vc.signature,
        }
    }

    /// The signer of the message.
    pub fn signer(&self) -> ProcessId {
        ProcessId::new(self.signature().signer())
    }
}

impl Labeled for CommitteeMsg {
    fn label(&self) -> &'static str {
        match self {
            CommitteeMsg::PrePrepare { .. } => "PREPREPARE",
            CommitteeMsg::Vote { kind, .. } => match kind {
                Vote::Prepare => "PREPARE",
                Vote::Commit => "COMMIT",
            },
            CommitteeMsg::ViewChange(_) => "VIEWCHANGE",
        }
    }
}

impl Encode for QuorumCert {
    fn encode(&self, out: &mut Vec<u8>) {
        self.view.encode(out);
        self.value.encode(out);
        self.signatures.encode(out);
    }
}

impl Decode for QuorumCert {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(QuorumCert {
            view: r.u64()?,
            value: Value::decode(r)?,
            signatures: Vec::decode(r)?,
        })
    }
}

impl Encode for ViewChangeRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.new_view.encode(out);
        self.prepared.encode(out);
        self.signature.encode(out);
    }
}

impl Decode for ViewChangeRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ViewChangeRecord {
            new_view: r.u64()?,
            prepared: Option::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

/// Wire form: `tag:u8` (0 = `PREPREPARE`, 1 = `PREPARE`, 2 = `COMMIT`,
/// 3 = `VIEWCHANGE`) followed by the variant fields; digests travel as
/// raw 32-byte strings, and the signing domain is implied by the tag, so
/// it never travels. Decoding restores structure only — authenticity
/// is still [`CommitteeMsg::verify`]'s job, exactly as for a locally
/// constructed message.
impl Encode for CommitteeMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CommitteeMsg::PrePrepare {
                view,
                value,
                signature,
                justification,
            } => {
                out.push(0);
                view.encode(out);
                value.encode(out);
                signature.encode(out);
                justification.encode(out);
            }
            CommitteeMsg::Vote {
                kind,
                view,
                digest,
                signature,
            } => {
                out.push(match kind {
                    Vote::Prepare => 1,
                    Vote::Commit => 2,
                });
                view.encode(out);
                out.extend_from_slice(digest);
                signature.encode(out);
            }
            CommitteeMsg::ViewChange(vc) => {
                out.push(3);
                vc.encode(out);
            }
        }
    }
}

impl Decode for CommitteeMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(CommitteeMsg::PrePrepare {
                view: r.u64()?,
                value: Value::decode(r)?,
                signature: Signature::decode(r)?,
                justification: Vec::decode(r)?,
            }),
            tag @ (1 | 2) => Ok(CommitteeMsg::Vote {
                kind: if tag == 1 {
                    Vote::Prepare
                } else {
                    Vote::Commit
                },
                view: r.u64()?,
                digest: r.take(DIGEST_LEN)?.try_into().expect("digest length"),
                signature: Signature::decode(r)?,
            }),
            3 => Ok(CommitteeMsg::ViewChange(ViewChangeRecord::decode(r)?)),
            tag => Err(WireError::BadTag {
                ty: "CommitteeMsg",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_graph::process_set;

    fn setup() -> (KeyRegistry, Vec<SigningKey>, Committee) {
        let mut registry = KeyRegistry::new();
        let keys: Vec<SigningKey> = (1..=4).map(|i| registry.register(i)).collect();
        let committee = Committee::new(process_set(1..=4), 1);
        (registry, keys, committee)
    }

    #[test]
    fn preprepare_verifies() {
        let (registry, keys, committee) = setup();
        let msg = CommitteeMsg::pre_prepare(&keys[0], 0, Bytes::from_static(b"v"), vec![]);
        assert!(msg.verify(&registry, &committee));
        assert_eq!(msg.signer(), ProcessId::new(1));
        assert_eq!(msg.label(), "PREPREPARE");
    }

    /// A valid prepared certificate: members 1..=3 (a quorum) prepared
    /// `value` in `view`.
    fn cert(keys: &[SigningKey], view: u64, value: &'static [u8]) -> QuorumCert {
        let d = digest(value);
        QuorumCert {
            view,
            value: Bytes::from_static(value),
            signatures: keys[..3]
                .iter()
                .map(|k| *CommitteeMsg::prepare(k, view, d).signature())
                .collect(),
        }
    }

    fn signature_mut(msg: &mut CommitteeMsg) -> &mut Signature {
        match msg {
            CommitteeMsg::PrePrepare { signature, .. } | CommitteeMsg::Vote { signature, .. } => {
                signature
            }
            CommitteeMsg::ViewChange(vc) => &mut vc.signature,
        }
    }

    #[test]
    fn tampered_preprepare_rejected() {
        // Rewriting any one signed field of any kind breaks the signature.
        // The embedded certificate is swapped for another *valid* one, so
        // only the view-change signature can reject it.
        type Tamper = fn(&mut CommitteeMsg, &[SigningKey]);
        let (registry, keys, committee) = setup();
        let d = digest(b"v");
        let pp = CommitteeMsg::pre_prepare(&keys[0], 0, Bytes::from_static(b"v"), vec![]);
        let prep = CommitteeMsg::prepare(&keys[1], 3, d);
        let comm = CommitteeMsg::commit(&keys[2], 3, d);
        let vc = CommitteeMsg::ViewChange(ViewChangeRecord::sign(
            &keys[3],
            2,
            Some(cert(&keys, 1, b"v")),
        ));
        let cases: [(&str, CommitteeMsg, Tamper); 9] = [
            ("pre-prepare view", pp.clone(), |m, _| {
                if let CommitteeMsg::PrePrepare { view, .. } = m {
                    *view += 1;
                }
            }),
            ("pre-prepare value", pp, |m, _| {
                if let CommitteeMsg::PrePrepare { value, .. } = m {
                    *value = Bytes::from_static(b"EVIL");
                }
            }),
            ("prepare view", prep.clone(), |m, _| {
                if let CommitteeMsg::Vote { view, .. } = m {
                    *view += 1;
                }
            }),
            ("prepare digest", prep, |m, _| {
                if let CommitteeMsg::Vote { digest: d, .. } = m {
                    *d = digest(b"EVIL");
                }
            }),
            ("commit view", comm.clone(), |m, _| {
                if let CommitteeMsg::Vote { view, .. } = m {
                    *view += 1;
                }
            }),
            ("commit digest", comm, |m, _| {
                if let CommitteeMsg::Vote { digest: d, .. } = m {
                    *d = digest(b"EVIL");
                }
            }),
            ("new_view", vc.clone(), |m, _| {
                if let CommitteeMsg::ViewChange(vc) = m {
                    vc.new_view += 1;
                }
            }),
            ("prepared view", vc.clone(), |m, keys| {
                if let CommitteeMsg::ViewChange(vc) = m {
                    vc.prepared = Some(cert(keys, 0, b"v"));
                }
            }),
            ("prepared value", vc, |m, keys| {
                if let CommitteeMsg::ViewChange(vc) = m {
                    vc.prepared = Some(cert(keys, 1, b"w"));
                }
            }),
        ];
        for (field, original, tamper) in cases {
            assert!(original.verify(&registry, &committee), "{field}: original");
            let mut tampered = original.clone();
            tamper(&mut tampered, &keys);
            assert_ne!(tampered, original, "{field}: tamper must apply");
            if let CommitteeMsg::ViewChange(ViewChangeRecord {
                prepared: Some(c), ..
            }) = &tampered
            {
                assert!(
                    c.verify(&registry, &committee, Vote::Prepare),
                    "{field}: swapped cert"
                );
            }
            assert!(!tampered.verify(&registry, &committee), "{field}: tampered");
        }
    }

    #[test]
    fn prepare_commit_verify_and_label() {
        let (registry, keys, committee) = setup();
        let d = digest(b"v");
        let prep = CommitteeMsg::prepare(&keys[1], 3, d);
        let comm = CommitteeMsg::commit(&keys[2], 3, d);
        assert!(prep.verify(&registry, &committee));
        assert!(comm.verify(&registry, &committee));
        assert_eq!(prep.label(), "PREPARE");
        assert_eq!(comm.label(), "COMMIT");
    }

    #[test]
    fn prepare_not_replayable_as_commit() {
        // No kind's signature verifies on another kind, even where the
        // signed fields coincide: the pre-prepare's value is the votes'
        // digest, so only the domain tells those three apart.
        let (registry, keys, committee) = setup();
        let d = digest(b"v");
        let msgs = [
            CommitteeMsg::pre_prepare(&keys[0], 3, Bytes::copy_from_slice(&d), vec![]),
            CommitteeMsg::prepare(&keys[0], 3, d),
            CommitteeMsg::commit(&keys[0], 3, d),
            CommitteeMsg::ViewChange(ViewChangeRecord::sign(&keys[0], 3, None)),
        ];
        for from in &msgs {
            assert!(from.verify(&registry, &committee), "{}", from.label());
            for onto in msgs.iter().filter(|m| m.label() != from.label()) {
                let mut replay = onto.clone();
                *signature_mut(&mut replay) = *from.signature();
                assert!(
                    !replay.verify(&registry, &committee),
                    "{} signature accepted on a {}",
                    from.label(),
                    onto.label()
                );
            }
        }
    }

    #[test]
    fn non_member_rejected() {
        let (registry, _keys, committee) = setup();
        let mut reg2 = registry.clone();
        let outsider = reg2.register(99);
        let msg = CommitteeMsg::prepare(&outsider, 0, digest(b"v"));
        assert!(!msg.verify(&reg2, &committee));
    }

    #[test]
    fn prepared_cert_requires_quorum_of_distinct_members() {
        let (registry, keys, committee) = setup();
        let value = Bytes::from_static(b"v");
        let d = digest(&value);
        let make_prepare = |k: &SigningKey| *CommitteeMsg::prepare(k, 2, d).signature();
        let cert = |signatures| QuorumCert {
            view: 2,
            value: value.clone(),
            signatures,
        };
        // quorum = 3
        let good = cert(keys[..3].iter().map(make_prepare).collect());
        assert!(good.verify(&registry, &committee, Vote::Prepare));
        // A prepare quorum is no commit quorum.
        assert!(!good.verify(&registry, &committee, Vote::Commit));
        let short = cert(keys[..2].iter().map(make_prepare).collect());
        assert!(!short.verify(&registry, &committee, Vote::Prepare));
        let duplicated = cert(vec![
            make_prepare(&keys[0]),
            make_prepare(&keys[0]),
            make_prepare(&keys[1]),
        ]);
        assert!(!duplicated.verify(&registry, &committee, Vote::Prepare));
    }

    #[test]
    fn view_change_roundtrip() {
        let (registry, keys, committee) = setup();
        let vc = ViewChangeRecord::sign(&keys[3], 5, None);
        assert!(vc.verify(&registry, &committee));
        assert_eq!(vc.signer(), ProcessId::new(4));
        let msg = CommitteeMsg::ViewChange(vc);
        assert!(msg.verify(&registry, &committee));
        assert_eq!(msg.label(), "VIEWCHANGE");
    }

    #[test]
    fn view_change_with_bogus_cert_rejected() {
        let (registry, keys, committee) = setup();
        let bogus = QuorumCert {
            view: 1,
            value: Bytes::from_static(b"v"),
            signatures: vec![],
        };
        let vc = ViewChangeRecord::sign(&keys[0], 2, Some(bogus));
        assert!(!vc.verify(&registry, &committee));
    }
}
