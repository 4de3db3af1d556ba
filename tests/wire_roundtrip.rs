//! Per-message round-trip property tests for the `cupft_wire` codec.
//!
//! Two laws, checked for every wire type in the workspace (graph
//! vocabulary, crypto records, discovery/committee/node protocol
//! messages):
//!
//! 1. `decode ∘ encode == id` — decoding the canonical bytes yields an
//!    equal value;
//! 2. re-encoding the decoded value is **byte-identical** — the codec is
//!    canonical, so signatures over encodings and fingerprint-based
//!    dedup are stable across hops.
//!
//! Plus the negative space: corrupt, truncated, and oversized frames are
//! rejected with structured errors (never a panic, never an over-read),
//! both at the frame envelope and inside message payloads.

use std::sync::Arc;

use proptest::collection::{btree_set, vec as pvec};
use proptest::prelude::*;

use bft_cupft::committee::{CommitteeMsg, PreparedCert, Value, ViewChangeRecord};
use bft_cupft::core::NodeMsg;
use bft_cupft::crypto::sha256::{digest, Digest};
use bft_cupft::crypto::{KeyRegistry, Signature};
use bft_cupft::detector::PdCertificate;
use bft_cupft::discovery::{DiscoveryMsg, SyncState};
use bft_cupft::graph::{process_set, ProcessId, ProcessSet};
use bft_cupft::wire::frame::{
    frame, read_frame, unframe, write_frame, FrameIoError, FRAME_MAGIC, HEADER_LEN,
    MAX_FRAME_PAYLOAD, WIRE_VERSION,
};
use bft_cupft::wire::{decode_from_slice, encode_to_vec, Decode, Encode, WireError};

/// The two codec laws, plus the frame envelope, for one value.
fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = encode_to_vec(v);
    let back: T = decode_from_slice(&bytes).expect("canonical bytes decode");
    assert_eq!(&back, v, "decode must invert encode");
    assert_eq!(
        encode_to_vec(&back),
        bytes,
        "re-encode must be byte-identical"
    );
    assert_eq!(
        unframe(&frame(&bytes)).expect("framed payload unframes"),
        &bytes[..],
        "frame envelope must be transparent"
    );
}

// ---- generators -----------------------------------------------------------

fn arb_pid() -> impl Strategy<Value = ProcessId> {
    (0u64..1_000).prop_map(ProcessId::new)
}

fn arb_pset() -> impl Strategy<Value = ProcessSet> {
    btree_set(0u64..64, 0..8).prop_map(|s| s.into_iter().map(ProcessId::new).collect())
}

fn arb_digest() -> impl Strategy<Value = Digest> {
    any::<u64>().prop_map(|seed| digest(&seed.to_be_bytes()))
}

fn arb_sig() -> impl Strategy<Value = Signature> {
    (0u64..64, any::<u64>())
        .prop_map(|(signer, seed)| Signature::from_parts(signer, digest(&seed.to_be_bytes())))
}

fn arb_value() -> impl Strategy<Value = Value> {
    pvec(any::<u8>(), 0..48).prop_map(Value::from)
}

fn arb_cert() -> impl Strategy<Value = PdCertificate> {
    (0u64..64, pvec(0u64..256, 0..10), arb_sig()).prop_map(|(author, pd, sig)| {
        PdCertificate::from_parts(ProcessId::new(author), process_set(pd), sig)
    })
}

fn arb_sync_state() -> impl Strategy<Value = SyncState> {
    (any::<u32>(), (any::<u64>(), any::<u64>()), any::<u32>()).prop_map(
        |(count, (hi, lo), epoch)| SyncState {
            count,
            fp: (u128::from(hi) << 64) | u128::from(lo),
            epoch,
        },
    )
}

fn arb_discovery() -> BoxedStrategy<DiscoveryMsg> {
    prop_oneof![
        (arb_pset(), arb_sync_state()).prop_map(|(have, state)| DiscoveryMsg::GetPds {
            have: Arc::new(have),
            state,
        }),
        (pvec(arb_cert(), 0..4), arb_sync_state()).prop_map(|(certs, state)| {
            DiscoveryMsg::SetPds {
                certs: certs.into_iter().map(Arc::new).collect::<Vec<_>>().into(),
                state,
            }
        }),
    ]
    .boxed()
}

fn arb_prepared_cert() -> impl Strategy<Value = PreparedCert> {
    (any::<u64>(), arb_value(), pvec(arb_sig(), 0..4)).prop_map(|(view, value, prepares)| {
        PreparedCert {
            view,
            value,
            prepares,
        }
    })
}

fn arb_view_change() -> BoxedStrategy<ViewChangeRecord> {
    (
        any::<u64>(),
        prop_oneof![Just(None), arb_prepared_cert().prop_map(Some).boxed(),],
        arb_sig(),
    )
        .prop_map(|(new_view, prepared, signature)| ViewChangeRecord {
            new_view,
            prepared,
            signature,
        })
        .boxed()
}

fn arb_committee() -> BoxedStrategy<CommitteeMsg> {
    prop_oneof![
        (
            any::<u64>(),
            arb_value(),
            arb_sig(),
            pvec(arb_view_change(), 0..3),
        )
            .prop_map(
                |(view, value, signature, justification)| CommitteeMsg::PrePrepare {
                    view,
                    value,
                    signature,
                    justification,
                }
            ),
        (any::<u64>(), arb_digest(), arb_sig()).prop_map(|(view, digest, signature)| {
            CommitteeMsg::Prepare {
                view,
                digest,
                signature,
            }
        }),
        (any::<u64>(), arb_digest(), arb_sig()).prop_map(|(view, digest, signature)| {
            CommitteeMsg::Commit {
                view,
                digest,
                signature,
            }
        }),
        arb_view_change().prop_map(CommitteeMsg::ViewChange),
    ]
    .boxed()
}

fn arb_node_msg() -> BoxedStrategy<NodeMsg> {
    prop_oneof![
        arb_discovery().prop_map(NodeMsg::Discovery),
        arb_committee().prop_map(NodeMsg::from),
        Just(NodeMsg::GetDecidedVal),
        arb_value().prop_map(NodeMsg::DecidedVal),
    ]
    .boxed()
}

// ---- round-trip laws, per wire type ---------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn graph_vocabulary_roundtrips(id in arb_pid(), set in arb_pset()) {
        rt(&id);
        rt(&set);
    }

    #[test]
    fn crypto_records_roundtrip(
        sig in arb_sig(),
        cert in arb_cert(),
    ) {
        rt(&sig);
        rt(&cert);
    }

    #[test]
    fn discovery_msgs_roundtrip(state in arb_sync_state(), msg in arb_discovery()) {
        rt(&state);
        rt(&msg);
    }

    #[test]
    fn committee_msgs_roundtrip(
        cert in arb_prepared_cert(),
        vc in arb_view_change(),
        msg in arb_committee(),
    ) {
        rt(&cert);
        rt(&vc);
        rt(&msg);
    }

    #[test]
    fn node_msgs_roundtrip(msg in arb_node_msg()) {
        rt(&msg);
    }

    // ---- negative space: the codec never panics on hostile bytes ----

    #[test]
    fn arbitrary_bytes_never_panic_decoders(bytes in pvec(any::<u8>(), 0..96)) {
        // Any result is fine; reaching the assertion means no panic and
        // no over-read (the Reader is bounds-checked by construction).
        let _ = decode_from_slice::<NodeMsg>(&bytes);
        let _ = decode_from_slice::<DiscoveryMsg>(&bytes);
        let _ = decode_from_slice::<CommitteeMsg>(&bytes);
        let _ = unframe(&bytes);
        prop_assert!(true);
    }

    #[test]
    fn every_strict_prefix_is_rejected(msg in arb_node_msg()) {
        let bytes = encode_to_vec(&msg);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_from_slice::<NodeMsg>(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn frame_envelope_is_transparent(payload in pvec(any::<u8>(), 0..256)) {
        let framed = frame(&payload);
        prop_assert_eq!(&framed[..4], &FRAME_MAGIC[..]);
        prop_assert_eq!(framed[4], WIRE_VERSION);
        prop_assert_eq!(framed.len(), HEADER_LEN + payload.len());
        prop_assert_eq!(unframe(&framed).expect("valid frame"), &payload[..]);
    }
}

// ---- corrupt / truncated / oversized frames -------------------------------

/// A realistic signed committee message, as it would travel in production.
fn sample_msg() -> NodeMsg {
    let mut registry = KeyRegistry::new();
    let key = registry.register(3);
    NodeMsg::from(CommitteeMsg::prepare(&key, 2, digest(b"proposal")))
}

#[test]
fn flipped_magic_is_rejected() {
    let mut framed = frame(&encode_to_vec(&sample_msg()));
    framed[0] ^= 0x01;
    assert_eq!(unframe(&framed), Err(WireError::BadMagic));
}

#[test]
fn unknown_versions_are_rejected() {
    for version in (0..=u8::MAX).filter(|&v| v != WIRE_VERSION) {
        let mut framed = frame(&encode_to_vec(&sample_msg()));
        framed[4] = version;
        assert_eq!(unframe(&framed), Err(WireError::BadVersion(version)));
    }
}

#[test]
fn oversized_length_is_rejected_before_allocation() {
    let mut framed = frame(b"tiny");
    framed[5..9].copy_from_slice(&u32::MAX.to_be_bytes());
    assert_eq!(
        unframe(&framed),
        Err(WireError::Oversized {
            len: u64::from(u32::MAX),
            max: MAX_FRAME_PAYLOAD as u64,
        })
    );
}

#[test]
fn every_frame_truncation_is_rejected() {
    let framed = frame(&encode_to_vec(&sample_msg()));
    for cut in 0..framed.len() {
        assert!(
            matches!(
                unframe(&framed[..cut]),
                Err(WireError::Truncated { .. }) | Err(WireError::BadMagic)
            ),
            "cut at {cut}/{} must be rejected",
            framed.len()
        );
    }
}

#[test]
fn trailing_bytes_after_frame_are_rejected() {
    let mut framed = frame(&encode_to_vec(&sample_msg()));
    framed.push(0xAA);
    assert_eq!(unframe(&framed), Err(WireError::Trailing(1)));
}

#[test]
fn stream_reader_yields_frames_then_clean_eof() {
    let first = encode_to_vec(&sample_msg());
    let second = encode_to_vec(&NodeMsg::GetDecidedVal);
    let mut stream = Vec::new();
    write_frame(&mut stream, &first).expect("write first");
    write_frame(&mut stream, &second).expect("write second");

    let mut cursor = std::io::Cursor::new(stream.clone());
    assert_eq!(read_frame(&mut cursor).expect("first frame"), Some(first));
    assert_eq!(read_frame(&mut cursor).expect("second frame"), Some(second));
    assert_eq!(read_frame(&mut cursor).expect("clean EOF"), None);

    // EOF mid-frame is a truncation error, not a clean end.
    let mut torn = std::io::Cursor::new(stream[..stream.len() - 3].to_vec());
    let _ = read_frame(&mut torn).expect("first frame again");
    assert!(matches!(
        read_frame(&mut torn),
        Err(FrameIoError::Wire(WireError::Truncated { .. }))
    ));
}

#[test]
fn signed_roundtrip_still_verifies_after_the_wire() {
    // Byte-identical re-encoding is what keeps signatures valid across
    // hops: a prepare vote survives encode → frame → unframe → decode and
    // still verifies against the committee.
    let mut registry = KeyRegistry::new();
    let key = registry.register(3);
    let d = digest(b"proposal");
    let msg = CommitteeMsg::prepare(&key, 2, d);
    let bytes = frame(&encode_to_vec(&msg));
    let back: CommitteeMsg = decode_from_slice(unframe(&bytes).expect("frame")).expect("decode");
    assert_eq!(back, msg);
    let committee =
        bft_cupft::committee::Committee::new(bft_cupft::graph::process_set([1, 2, 3, 4]), 1);
    assert!(back.verify(&registry, &committee));
}

#[test]
fn hostile_order_process_set_decodes_to_the_canonical_set() {
    // A peer may list a have-set (or a certificate PD) in any order. A
    // reversed 2^20-entry encoding with every ID twice must still decode
    // to the sorted, deduplicated set — in one sort, not one shifting
    // insert per ID.
    const ENTRIES: u64 = 1 << 20;
    let mut bytes = Vec::with_capacity(8 * (ENTRIES as usize + 1));
    bft_cupft::wire::put_len(&mut bytes, ENTRIES as usize);
    for i in (0..ENTRIES).rev() {
        (i / 2).encode(&mut bytes);
    }
    let set: ProcessSet = decode_from_slice(&bytes).expect("decodes");
    assert_eq!(set.len() as u64, ENTRIES / 2);
    assert_eq!(set, (0..ENTRIES / 2).map(ProcessId::new).collect());
}

/// The signed PD record's bytes, pinned: its wire encoding, its HMAC tag
/// (which signs `"cupft-pd-v1" ‖ author ‖ pd`), and its fingerprint
/// (which hashes `"cupft-cert-fp-v1" ‖ encoding`). Any codec or
/// signing-message change that moves one byte fails here.
#[test]
fn signed_pd_record_bytes_are_pinned() {
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }
    const HEAD: &str = "0000000000000007\
                        0000000000000004\
                        0000000000000001\
                        0000000000000003\
                        0000000000000009\
                        00000000000000c8\
                        0000000000000007";
    let mut registry = KeyRegistry::new();
    let key = registry.register(7);
    let pd = bft_cupft::graph::process_set([1, 3, 9, 200]);
    let signed = PdCertificate::sign(&key, &pd);
    let forged = PdCertificate::forge(ProcessId::new(7), &pd);
    for (cert, tag, fp, verifies) in [
        (
            &signed,
            "25d5241003649add7d004a8c8179de6d46f6032cb319f327dbcdd868e62fe2f7",
            0xc7cd62cfc95fc92d2dfe718130d0a4af_u128,
            true,
        ),
        (
            &forged,
            "dededededededededededededededededededededededededededededededede",
            0x6024aa8a2ae935790c725d51549b764e_u128,
            false,
        ),
    ] {
        assert_eq!(hex(&encode_to_vec(cert)), format!("{HEAD}{tag}"));
        assert_eq!(hex(cert.signature().tag()), tag);
        assert_eq!(cert.fingerprint(), fp);
        assert_eq!(cert.verify(&registry), verifies);
    }
}

/// The committee vote bytes, pinned: a prepare's wire encoding and HMAC
/// tag (which signs `"cupft-prepare" ‖ view ‖ digest`), and a view-0
/// pre-prepare's tag (which signs `"cupft-preprepare" ‖ view ‖ value`),
/// each in wire encoding. Any codec or signing-message change that moves
/// one byte fails here.
#[test]
fn committee_vote_bytes_are_pinned() {
    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }
    const PREPARE_TAG: &str = "cdf5b0cd5fb457f6ab444bfc8d17a8dd30540258caeef2618613109a370e15e1";
    const PREPARE_WIRE: &str = "01\
                                0000000000000002\
                                ecd1378bc9dc130008f00d58db5d26f60db55934a49b949af7e6f6a8da2a2beb\
                                0000000000000007";
    let mut registry = KeyRegistry::new();
    let key = registry.register(7);
    let prepare = CommitteeMsg::prepare(&key, 2, digest(b"proposal"));
    let pre_prepare = CommitteeMsg::pre_prepare(&key, 0, Value::from_static(b"v7"), vec![]);
    assert_eq!(
        hex(&encode_to_vec(&prepare)),
        format!("{PREPARE_WIRE}{PREPARE_TAG}")
    );
    assert_eq!(hex(prepare.signature().tag()), PREPARE_TAG);
    assert_eq!(
        hex(pre_prepare.signature().tag()),
        "8e1841f6e36aa0bd60b1d7bd0b002dfd7f83ac84ba25b84c13fbe5559d88d26e"
    );
}
