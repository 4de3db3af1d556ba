//! The unified message type spoken by all protocol nodes.

use std::sync::Arc;

use cupft_committee::{CommitteeMsg, QuorumCert};
use cupft_discovery::DiscoveryMsg;
use cupft_net::Labeled;
use cupft_wire::{Decode, Encode, Reader, WireError};

/// Every message a BFT-CUP / BFT-CUPFT node can send or receive.
///
/// One message universe per simulation keeps the actor roster
/// heterogeneous (honest nodes, Byzantine strategies, naive guessers) while
/// staying statically typed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeMsg {
    /// Algorithm 1 traffic.
    Discovery(DiscoveryMsg),
    /// Committee consensus traffic (Algorithm 3 line 4). Boxed: a
    /// committee message is 104 bytes against discovery's 64, and it is a
    /// few dozen messages per decision against discovery's hundreds of
    /// thousands, so the box keeps every `NodeMsg` discovery-sized.
    Committee(Box<CommitteeMsg>),
    /// "Send me the decided value" (Algorithm 3 line 6).
    GetDecidedVal,
    /// The decided value (Algorithm 3 line 10) with its proof: the commit
    /// certificate the sender decided on, shared by all its answers.
    DecidedVal(Arc<QuorumCert>),
}

// Every queued simulator event and every wall-clock inbox slot holds one
// `NodeMsg`, so its size is paid per message in flight: a new variant that
// would grow it past discovery's 64 bytes must be boxed.
const _: () = assert!(std::mem::size_of::<NodeMsg>() <= 64);

impl Labeled for NodeMsg {
    fn label(&self) -> &'static str {
        match self {
            NodeMsg::Discovery(m) => m.label(),
            NodeMsg::Committee(m) => m.label(),
            NodeMsg::GetDecidedVal => "GETDECIDEDVAL",
            NodeMsg::DecidedVal(_) => "DECIDEDVAL",
        }
    }

    fn payload_units(&self) -> u64 {
        match self {
            NodeMsg::Discovery(m) => m.payload_units(),
            _ => 0,
        }
    }
}

/// Wire form: `tag:u8` (0 = Discovery, 1 = Committee, 2 = GetDecidedVal,
/// 3 = DecidedVal) followed by the inner message's own encoding. This is
/// the payload type of every socket-runtime frame.
impl Encode for NodeMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NodeMsg::Discovery(m) => {
                out.push(0);
                m.encode(out);
            }
            NodeMsg::Committee(m) => {
                out.push(1);
                m.encode(out);
            }
            NodeMsg::GetDecidedVal => out.push(2),
            NodeMsg::DecidedVal(cert) => {
                out.push(3);
                cert.encode(out);
            }
        }
    }
}

impl Decode for NodeMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(NodeMsg::Discovery(DiscoveryMsg::decode(r)?)),
            1 => Ok(NodeMsg::Committee(Box::new(CommitteeMsg::decode(r)?))),
            2 => Ok(NodeMsg::GetDecidedVal),
            3 => Ok(NodeMsg::DecidedVal(Arc::decode(r)?)),
            tag => Err(WireError::BadTag { ty: "NodeMsg", tag }),
        }
    }
}

impl From<DiscoveryMsg> for NodeMsg {
    fn from(m: DiscoveryMsg) -> Self {
        NodeMsg::Discovery(m)
    }
}

impl From<CommitteeMsg> for NodeMsg {
    fn from(m: CommitteeMsg) -> Self {
        NodeMsg::Committee(Box::new(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_committee::Value;

    #[test]
    fn labels_delegate() {
        let get = DiscoveryMsg::GetPds {
            have: std::sync::Arc::new(cupft_graph::ProcessSet::new()),
            state: cupft_discovery::SyncState::default(),
        };
        assert_eq!(NodeMsg::from(get.clone()).label(), "GETPDS");
        assert_eq!(NodeMsg::from(get).payload_units(), 0);
        assert_eq!(NodeMsg::GetDecidedVal.label(), "GETDECIDEDVAL");
        let cert = QuorumCert {
            view: 0,
            value: Value::from_static(b"v"),
            signatures: Vec::new(),
        };
        assert_eq!(NodeMsg::DecidedVal(Arc::new(cert)).label(), "DECIDEDVAL");
    }
}
