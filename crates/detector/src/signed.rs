//! The signed participant-detector record `⟨i, PDᵢ⟩ᵢ` (Algorithm 1,
//! line 1). Its one wire encoding (in `wire.rs`) is also what gets signed
//! and hashed.

use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use cupft_crypto::{sha256, KeyRegistry, Signature, SigningKey};
use cupft_graph::{ProcessId, ProcessSet};
use cupft_wire::Encode;

/// A signed PD record: author, PD, and the author's signature.
///
/// Correct processes produce these once at startup (Algorithm 1 line 1
/// signs `⟨i, PDᵢ⟩ᵢ`); Byzantine processes may fabricate records for
/// *their own* ID with arbitrary contents, but records fabricated for
/// other IDs fail verification. The PD is a [`ProcessSet`], so it is
/// sorted and deduplicated by construction and two records with the same
/// logical PD always verify the same way.
///
/// Every certificate caches a 128-bit [fingerprint] of its exact contents
/// (author, PD, signature bytes), computed on first use, so `Hash` is
/// O(1) after the first call, equality fast-rejects once both sides are
/// hashed, and the discovery layer can dedup/memoize by fingerprint
/// instead of re-hashing or re-verifying whole records.
///
/// # Example
///
/// ```
/// use cupft_crypto::KeyRegistry;
/// use cupft_detector::PdCertificate;
/// use cupft_graph::process_set;
///
/// let mut registry = KeyRegistry::new();
/// let key = registry.register(1);
/// let cert = PdCertificate::sign(&key, &process_set([3, 2, 2]));
/// assert_eq!(cert.pd(), &process_set([2, 3]));
/// assert!(cert.verify(&registry));
/// ```
///
/// [fingerprint]: Self::fingerprint
#[derive(Debug, Clone)]
pub struct PdCertificate {
    author: ProcessId,
    pd: ProcessSet,
    signature: Signature,
    /// Filled by [`Self::fingerprint`] on first call; every constructor
    /// leaves it empty.
    fp: OnceLock<u128>,
}

/// The signed bytes: `"cupft-pd-v1" ‖ author ‖ pd` in wire encoding.
fn signing_message(author: ProcessId, pd: &ProcessSet) -> Vec<u8> {
    let mut out = Vec::with_capacity(27 + pd.len() * 8);
    out.extend_from_slice(b"cupft-pd-v1");
    author.encode(&mut out);
    pd.encode(&mut out);
    out
}

/// SHA-256 over `"cupft-cert-fp-v1" ‖ wire encoding`, truncated to 128
/// bits.
///
/// The fingerprint must be *collision-resistant against adversarial
/// inputs*, not merely well-mixed: the discovery layer memoizes signature
/// verification by fingerprint, so a Byzantine process able to craft a
/// forged record colliding with an already-verified one would smuggle an
/// unverified certificate past the HMAC check (and a collision with a
/// rejected one would censor a valid record). A domain-separated SHA-256
/// closes that door. The cost is paid on first use, at most once per
/// certificate allocation, and never taken from a peer; the discovery
/// layer drops duplicates by exact record equality first, so a decoded
/// copy of a record its receiver already holds is never hashed.
fn cert_fingerprint(cert: &PdCertificate) -> u128 {
    let mut bytes = Vec::with_capacity(72 + cert.pd.len() * 8);
    bytes.extend_from_slice(b"cupft-cert-fp-v1");
    cert.encode(&mut bytes);
    let digest = sha256::digest(&bytes);
    u128::from_be_bytes(digest[..16].try_into().expect("digest is 32 bytes"))
}

impl PdCertificate {
    /// Signs `pd` as `key`'s participant detector output.
    pub fn sign(key: &SigningKey, pd: &ProcessSet) -> Self {
        let author = ProcessId::new(key.id());
        let signature = key.sign(&signing_message(author, pd));
        PdCertificate::from_parts(author, pd.clone(), signature)
    }

    /// Fabricates an unverifiable record claiming to be `author`'s PD —
    /// the attack Algorithm 1's signatures exist to prevent.
    pub fn forge(author: ProcessId, pd: &ProcessSet) -> Self {
        PdCertificate::from_parts(author, pd.clone(), Signature::forged(author.raw()))
    }

    /// Rebuilds a record from its parts. No hashing happens here: the
    /// fingerprint is computed on first use, and the signature is carried
    /// verbatim, so the rebuilt record verifies iff the original did.
    pub fn from_parts(author: ProcessId, pd: ProcessSet, signature: Signature) -> Self {
        PdCertificate {
            author,
            pd,
            signature,
            fp: OnceLock::new(),
        }
    }

    /// The claimed author.
    pub fn author(&self) -> ProcessId {
        self.author
    }

    /// The claimed PD.
    pub fn pd(&self) -> &ProcessSet {
        &self.pd
    }

    /// The attached signature (valid or forged).
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The content fingerprint: a pure function of author, PD, and
    /// signature bytes (truncated domain-separated SHA-256, so collisions
    /// are infeasible even for adversarially crafted records — the
    /// property the discovery layer's verification memoization relies
    /// on). Computed on first call and cached; never taken from a peer.
    /// Equality remains exact — the fingerprint only *fast-rejects*.
    pub fn fingerprint(&self) -> u128 {
        *self.fp.get_or_init(|| cert_fingerprint(self))
    }

    /// Whether the fingerprint has been computed.
    #[cfg(test)]
    pub(crate) fn is_hashed(&self) -> bool {
        self.fp.get().is_some()
    }

    /// Verifies the signature against the registry.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        registry.verify(
            self.author.raw(),
            &signing_message(self.author, &self.pd),
            &self.signature,
        )
    }

    fn key(&self) -> (ProcessId, &ProcessSet, &Signature) {
        (self.author, &self.pd, &self.signature)
    }
}

impl PartialEq for PdCertificate {
    fn eq(&self, other: &Self) -> bool {
        // fp is a pure function of the record: unequal fps ⇒ unequal
        // records. Only fingerprints already computed are compared;
        // equality never hashes.
        if let (Some(a), Some(b)) = (self.fp.get(), other.fp.get()) {
            if a != b {
                return false;
            }
        }
        self.key() == other.key()
    }
}
impl Eq for PdCertificate {}

/// Author, then PD, then signature.
impl PartialOrd for PdCertificate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PdCertificate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Hashes the fingerprint only (computing it on first use), so `Hash`
/// agrees with `Eq`.
impl Hash for PdCertificate {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(self.fingerprint());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_graph::process_set;
    use cupft_wire::{decode_from_slice, put_len};

    fn p(n: u64) -> ProcessId {
        ProcessId::new(n)
    }

    #[test]
    fn signed_pd_roundtrip() {
        let mut reg = KeyRegistry::new();
        let key = reg.register(1);
        let rec = PdCertificate::sign(&key, &process_set([2, 3, 4]));
        assert!(rec.verify(&reg));
        assert_eq!(rec.author(), p(1));
        assert_eq!(rec.pd(), &process_set([2, 3, 4]));
    }

    #[test]
    fn signed_pd_canonicalizes() {
        // A hostile unsorted, duplicated PD on the wire decodes to the
        // canonical record, which the author's signature still covers.
        let mut reg = KeyRegistry::new();
        let key = reg.register(1);
        let signed = PdCertificate::sign(&key, &process_set([2, 3, 4]));
        let mut bytes = Vec::new();
        p(1).encode(&mut bytes);
        put_len(&mut bytes, 4);
        for id in [4u64, 2, 3, 2] {
            id.encode(&mut bytes);
        }
        signed.signature().encode(&mut bytes);
        let decoded: PdCertificate = decode_from_slice(&bytes).unwrap();
        assert_eq!(decoded, signed);
        assert!(decoded.verify(&reg));
    }

    #[test]
    fn forged_pd_fails_verification() {
        let mut reg = KeyRegistry::new();
        reg.register(1);
        let forged = PdCertificate::forge(p(1), &process_set([9]));
        assert!(!forged.verify(&reg));
        // A record for an author with no registered key fails too.
        assert!(!PdCertificate::forge(p(5), &process_set([9])).verify(&reg));
    }

    #[test]
    fn byzantine_cannot_modify_correct_pd() {
        // Byzantine 2 receives 1's signed PD and tries to alter it.
        let mut reg = KeyRegistry::new();
        let key1 = reg.register(1);
        reg.register(2);
        let original = PdCertificate::sign(&key1, &process_set([5, 6]));
        // Rebuilding the record with different contents requires 1's key;
        // the only structural option is a forgery, which fails.
        let tampered = PdCertificate::forge(p(1), &process_set([5, 6, 7]));
        assert!(original.verify(&reg));
        assert!(!tampered.verify(&reg));
    }

    #[test]
    fn from_parts_reconstructs_verifiable_record() {
        let mut reg = KeyRegistry::new();
        let key = reg.register(6);
        let original = PdCertificate::sign(&key, &process_set([1, 2, 9]));
        let rebuilt = PdCertificate::from_parts(
            original.author(),
            original.pd().clone(),
            *original.signature(),
        );
        assert_eq!(rebuilt, original);
        assert!(rebuilt.verify(&reg));
        // A tampered PD no longer matches the carried signature.
        let tampered = PdCertificate::from_parts(
            original.author(),
            process_set([1, 2]),
            *original.signature(),
        );
        assert!(!tampered.verify(&reg));
    }

    #[test]
    fn empty_pd_signs() {
        let mut reg = KeyRegistry::new();
        let key = reg.register(10);
        let rec = PdCertificate::sign(&key, &ProcessSet::new());
        assert!(rec.verify(&reg));
        assert!(rec.pd().is_empty());
    }
}
