//! Discovery protocol messages.

use std::sync::Arc;

use cupft_detector::PdCertificate;
use cupft_graph::ProcessSet;
use cupft_net::Labeled;
use cupft_wire::{put_len, Decode, Encode, Reader, WireError};

/// A compact summary of one process's certificate set (`S_PD`): the member
/// count plus the commutative 128-bit sum of the certificates'
/// [fingerprints](PdCertificate::fingerprint).
///
/// Equal sync states mean identical certificate sets (up to a ~2⁻¹²⁸
/// collision), which is how the delta-gossip layer decides a peer has
/// nothing new without shipping the set itself. A default (`count == 0`)
/// state can never equal a live process's state — every process holds at
/// least its own certificate — so fabricated zero states merely disable
/// suppression toward their sender.
///
/// The `epoch` is the owner's membership incarnation: it starts at 0 and is
/// bumped each time the process crash-recovers (see
/// `DiscoveryState::bump_epoch`). It participates in equality, so a
/// rejoining peer that restored a stale-but-identical-looking `S_PD` can
/// never be suppressed by the sync-skip optimization — its reported state
/// stops matching anything recorded about its previous incarnation, and
/// polling re-arms on both sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct SyncState {
    /// Number of certificates held.
    pub count: u32,
    /// Wrapping sum of the held certificates' fingerprints.
    pub fp: u128,
    /// The owner's membership incarnation (0 until a crash-recovery).
    pub epoch: u32,
}

impl SyncState {
    /// Folds one more certificate fingerprint into the state (the epoch is
    /// untouched — it tracks incarnations, not set contents).
    pub fn add(&mut self, cert_fp: u128) {
        self.count += 1;
        self.fp = self.fp.wrapping_add(cert_fp);
    }
}

/// The two messages of Algorithm 1, carrying the delta-gossip metadata.
///
/// Certificates travel as `Arc<PdCertificate>` inside an `Arc<[_]>` bundle
/// and the `GETPDS` have-set as `Arc<ProcessSet>`, so cloning a message —
/// for fan-out, or for the simulator's per-recipient copies — bumps one
/// reference count instead of
/// deep-copying signed records or even the bundle's pointer vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscoveryMsg {
    /// "Send me the PDs you have received" (line 2), annotated with what
    /// the requester already holds: `have` lists the authors of its
    /// verified certificates, `state` summarizes the exact set. A
    /// delta-gossip responder answers with only the certificates whose
    /// authors are missing from `have` — on first contact `have` is just
    /// the requester itself, so the reply degenerates to the full `S_PD`
    /// of the baseline protocol.
    GetPds {
        /// Authors of the certificates the requester already holds.
        have: Arc<ProcessSet>,
        /// The requester's certificate-set summary.
        state: SyncState,
    },
    /// The responder's `S_PD` (line 3): signed PD records (all of them, or
    /// the requester's delta), plus the responder's own set summary so the
    /// requester can stop polling once the two sets agree.
    SetPds {
        /// The shipped certificates (shared bundle: cloning the message
        /// is one atomic increment, zero per-certificate work).
        certs: Arc<[Arc<PdCertificate>]>,
        /// The responder's certificate-set summary.
        state: SyncState,
    },
}

impl Labeled for DiscoveryMsg {
    fn label(&self) -> &'static str {
        match self {
            DiscoveryMsg::GetPds { .. } => "GETPDS",
            DiscoveryMsg::SetPds { .. } => "SETPDS",
        }
    }

    /// `SETPDS` weighs its certificate count; `GETPDS` is control traffic.
    fn payload_units(&self) -> u64 {
        match self {
            DiscoveryMsg::GetPds { .. } => 0,
            DiscoveryMsg::SetPds { certs, .. } => certs.len() as u64,
        }
    }
}

impl Encode for SyncState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.count.encode(out);
        self.fp.encode(out);
        self.epoch.encode(out);
    }
}

impl Decode for SyncState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SyncState {
            count: r.u32()?,
            fp: r.u128()?,
            epoch: r.u32()?,
        })
    }
}

/// Wire form: `tag:u8` (0 = `GETPDS`, 1 = `SETPDS`) followed by the
/// variant fields. The `Arc` sharing wrappers are a process-local
/// optimization and do not travel: decode rebuilds fresh bundles, and
/// every certificate's fingerprint is computed on first use from its
/// record bytes, never taken from the peer. Decoding hashes nothing:
/// [`crate::DiscoveryState::absorb`] drops a copy of a record its
/// receiver already holds by exact equality before any fingerprint is
/// read.
impl Encode for DiscoveryMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DiscoveryMsg::GetPds { have, state } => {
                out.push(0);
                have.encode(out);
                state.encode(out);
            }
            DiscoveryMsg::SetPds { certs, state } => {
                out.push(1);
                put_len(out, certs.len());
                for cert in certs.iter() {
                    cert.encode(out);
                }
                state.encode(out);
            }
        }
    }
}

impl Decode for DiscoveryMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(DiscoveryMsg::GetPds {
                have: Arc::decode(r)?,
                state: SyncState::decode(r)?,
            }),
            1 => {
                let count = r.len_prefix()?;
                let mut certs = Vec::with_capacity(count);
                for _ in 0..count {
                    certs.push(Arc::new(PdCertificate::decode(r)?));
                }
                Ok(DiscoveryMsg::SetPds {
                    certs: certs.into(),
                    state: SyncState::decode(r)?,
                })
            }
            tag => Err(WireError::BadTag {
                ty: "DiscoveryMsg",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_payload() {
        let get = DiscoveryMsg::GetPds {
            have: Arc::new(ProcessSet::new()),
            state: SyncState::default(),
        };
        assert_eq!(get.label(), "GETPDS");
        assert_eq!(get.payload_units(), 0);
        let set = DiscoveryMsg::SetPds {
            certs: Vec::new().into(),
            state: SyncState::default(),
        };
        assert_eq!(set.label(), "SETPDS");
        assert_eq!(set.payload_units(), 0);
        // Cloning a SETPDS shares the bundle allocation.
        let bundle: Arc<[Arc<PdCertificate>]> = Vec::new().into();
        let a = DiscoveryMsg::SetPds {
            certs: bundle.clone(),
            state: SyncState::default(),
        };
        let b = a.clone();
        match (&a, &b) {
            (DiscoveryMsg::SetPds { certs: ca, .. }, DiscoveryMsg::SetPds { certs: cb, .. }) => {
                assert!(Arc::ptr_eq(ca, cb));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn sync_state_is_order_independent() {
        let mut a = SyncState::default();
        a.add(10);
        a.add(7);
        let mut b = SyncState::default();
        b.add(7);
        b.add(10);
        assert_eq!(a, b);
        assert_eq!(a.count, 2);
        assert_ne!(a, SyncState::default());
    }

    #[test]
    fn sync_state_epoch_participates_in_equality() {
        let mut a = SyncState::default();
        a.add(10);
        let mut b = a;
        assert_eq!(a, b);
        // Same certificate set, different incarnation: never equal, so the
        // delta-gossip skip can never suppress a rejoined peer.
        b.epoch += 1;
        assert_ne!(a, b);
        // The set summary itself is unchanged by the bump.
        assert_eq!((a.count, a.fp), (b.count, b.fp));
    }
}
