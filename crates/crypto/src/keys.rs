//! Signing keys and the simulated PKI registry.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::hmac::hmac_sha256;
use crate::sha256::{Digest, DIGEST_LEN};

/// A digital signature over a byte string.
///
/// Internally an HMAC tag; the scheme's unforgeability inside the
/// simulation comes from key isolation (only the owning process's
/// [`SigningKey`] can produce the tag, and the registry only exposes
/// verification).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signature {
    signer: u64,
    tag: Digest,
}

impl Signature {
    /// The claimed signer's raw process ID.
    pub fn signer(&self) -> u64 {
        self.signer
    }

    /// The raw MAC tag.
    pub fn tag(&self) -> &Digest {
        &self.tag
    }

    /// A structurally valid but cryptographically garbage signature, used
    /// by Byzantine actors attempting forgery in tests and experiments.
    pub fn forged(signer: u64) -> Self {
        Signature {
            signer,
            tag: [0xde; DIGEST_LEN],
        }
    }

    /// Rebuilds a signature from its wire parts (signer ID and raw tag).
    ///
    /// Used by deserialization layers (e.g. the `DiscoveryState` snapshot
    /// codec): the resulting signature carries exactly the given bytes and
    /// verifies iff the original did.
    pub fn from_parts(signer: u64, tag: Digest) -> Self {
        Signature { signer, tag }
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature(p{}, {:02x}{:02x}{:02x}{:02x}…)",
            self.signer, self.tag[0], self.tag[1], self.tag[2], self.tag[3]
        )
    }
}

/// A process's private signing key.
///
/// Obtainable only from [`KeyRegistry::register`]; cloning is allowed (a
/// process may hand its key to its own sub-components) but the simulation
/// never routes one process's key to another.
#[derive(Clone)]
pub struct SigningKey {
    id: u64,
    secret: Digest,
}

impl SigningKey {
    /// The owning process's raw ID.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature {
            signer: self.id,
            tag: hmac_sha256(&self.secret, message),
        }
    }
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret.
        write!(f, "SigningKey(p{})", self.id)
    }
}

/// The simulated PKI: issues signing keys and verifies signatures.
///
/// A value: an `Arc` of one immutable id → secret table. Clones share the
/// table, and [`Self::register`] copies it on write, so a clone taken
/// before a registration does not see that key. Every process of a
/// simulation holds a clone taken after every vertex is registered,
/// mirroring the paper's assumption of a fixed PKI: IDs are
/// Sybil-resistant and signatures verifiable by everyone.
///
/// # Example
///
/// ```
/// use cupft_crypto::KeyRegistry;
///
/// let mut registry = KeyRegistry::new();
/// let key = registry.register(7);
/// let sig = key.sign(b"payload");
/// assert!(registry.verify(7, b"payload", &sig));
/// // another process cannot forge 7's signature
/// let mallory = registry.register(8);
/// let fake = mallory.sign(b"payload");
/// assert!(!registry.verify(7, b"payload", &fake));
/// ```
#[derive(Clone, Default)]
pub struct KeyRegistry {
    secrets: Arc<BTreeMap<u64, Digest>>,
}

impl KeyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        KeyRegistry::default()
    }

    /// Registers process `id`, deriving its key deterministically from the
    /// ID (so simulations are reproducible), and returns its private key.
    ///
    /// Registering the same ID twice returns the same key: the registry is
    /// the Sybil guard — one ID, one key.
    pub fn register(&mut self, id: u64) -> SigningKey {
        let secret = derive_secret(id);
        Arc::make_mut(&mut self.secrets).insert(id, secret);
        SigningKey { id, secret }
    }

    /// Whether `id` has been registered.
    pub fn contains(&self, id: u64) -> bool {
        self.secrets.contains_key(&id)
    }

    /// Verifies that `sig` is `id`'s signature over `message`: signer-claim
    /// check, secret lookup, HMAC recompute, constant-time-style tag
    /// comparison.
    ///
    /// Returns `false` for unregistered IDs, signer mismatches, and invalid
    /// tags.
    pub fn verify(&self, id: u64, message: &[u8], sig: &Signature) -> bool {
        if sig.signer != id {
            return false;
        }
        let Some(secret) = self.secrets.get(&id) else {
            return false;
        };
        let expected = hmac_sha256(secret, message);
        // Constant-time-style comparison (not strictly needed in a
        // simulation, but cheap and good hygiene).
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(sig.tag.iter()) {
            diff |= a ^ b;
        }
        diff == 0
    }

    /// The registry itself. Inert: verification takes no lock, so there is
    /// no session to open; this stays only while `benchmark/` still calls
    /// it, and ROADMAP item 3 deletes it.
    pub fn batch(&self) -> &KeyRegistry {
        self
    }

    /// Number of registered processes.
    pub fn len(&self) -> usize {
        self.secrets.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.secrets.is_empty()
    }
}

impl fmt::Debug for KeyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print a secret: the registered ids only.
        f.debug_tuple("KeyRegistry")
            .field(&self.secrets.keys())
            .finish()
    }
}

fn derive_secret(id: u64) -> Digest {
    // Fixed domain-separation label; deterministic per ID for replayable
    // simulations.
    let mut msg = Vec::with_capacity(24);
    msg.extend_from_slice(b"cupft-key-v1");
    msg.extend_from_slice(&id.to_be_bytes());
    crate::sha256::digest(&msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let mut reg = KeyRegistry::new();
        let key = reg.register(42);
        let sig = key.sign(b"data");
        assert!(reg.verify(42, b"data", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let mut reg = KeyRegistry::new();
        let key = reg.register(42);
        let sig = key.sign(b"data");
        assert!(!reg.verify(42, b"other", &sig));
    }

    #[test]
    fn verify_rejects_wrong_signer_claim() {
        let mut reg = KeyRegistry::new();
        let key = reg.register(42);
        reg.register(43);
        let sig = key.sign(b"data");
        assert!(!reg.verify(43, b"data", &sig));
    }

    #[test]
    fn verify_rejects_unregistered() {
        let reg = KeyRegistry::new();
        let sig = Signature::forged(9);
        assert!(!reg.verify(9, b"data", &sig));
    }

    #[test]
    fn forged_signature_rejected() {
        let mut reg = KeyRegistry::new();
        reg.register(7);
        assert!(!reg.verify(7, b"data", &Signature::forged(7)));
    }

    #[test]
    fn clone_sees_registrations_made_before_it() {
        let mut reg = KeyRegistry::new();
        let before = reg.clone();
        let sig = reg.register(5).sign(b"x");
        let after = reg.clone();
        assert!(!before.verify(5, b"x", &sig));
        assert!(before.is_empty());
        assert!(after.verify(5, b"x", &sig));
        assert_eq!(after.len(), 1);
    }

    #[test]
    fn deterministic_keys_per_id() {
        let mut a = KeyRegistry::new();
        let mut b = KeyRegistry::new();
        let sig_a = a.register(3).sign(b"m");
        let sig_b = b.register(3).sign(b"m");
        assert_eq!(sig_a, sig_b);
    }

    #[test]
    fn debug_never_leaks_secret() {
        let mut reg = KeyRegistry::new();
        let key = reg.register(1);
        let dbg = format!("{key:?}");
        assert_eq!(dbg, "SigningKey(p1)");
        reg.register(2);
        assert_eq!(format!("{reg:?}"), "KeyRegistry([1, 2])");
    }

    #[test]
    fn empty_and_len() {
        let mut reg = KeyRegistry::new();
        assert!(reg.is_empty());
        reg.register(1);
        assert!(!reg.is_empty());
        assert!(reg.contains(1));
        assert!(!reg.contains(2));
    }
}
