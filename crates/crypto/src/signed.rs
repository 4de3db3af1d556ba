//! Generic signed values: the committee's votes and decisions.

use bytes::Bytes;

use crate::keys::{KeyRegistry, Signature, SigningKey};

/// A generic signed byte payload with a domain-separation label, used by
/// the committee consensus protocol for votes and decisions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignedValue {
    signer: u64,
    domain: &'static str,
    payload: Bytes,
    signature: Signature,
}

impl SignedValue {
    fn message(domain: &str, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(domain.len() + payload.len() + 10);
        out.extend_from_slice(b"cupft-val-v1");
        out.extend_from_slice(&(domain.len() as u64).to_be_bytes());
        out.extend_from_slice(domain.as_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Signs `payload` under `domain`.
    pub fn sign(key: &SigningKey, domain: &'static str, payload: Bytes) -> Self {
        let signature = key.sign(&Self::message(domain, &payload));
        SignedValue {
            signer: key.id(),
            domain,
            payload,
            signature,
        }
    }

    /// Rebuilds a signed value from its wire parts. The domain must
    /// already be interned (see [`crate::domains::intern`]) so the
    /// rebuilt value compares equal to what the signer produced; the
    /// signature is carried verbatim, so the rebuilt value verifies iff
    /// the serialized one did.
    pub fn from_parts(
        signer: u64,
        domain: &'static str,
        payload: Bytes,
        signature: Signature,
    ) -> Self {
        SignedValue {
            signer,
            domain,
            payload,
            signature,
        }
    }

    /// The attached signature — exposed so serialization layers can carry
    /// it verbatim.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// The signer's raw ID.
    pub fn signer(&self) -> u64 {
        self.signer
    }

    /// The domain label.
    pub fn domain(&self) -> &'static str {
        self.domain
    }

    /// The signed payload.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// Verifies the value against the registry, additionally checking the
    /// expected domain (so a vote cannot be replayed as a decision).
    pub fn verify(&self, registry: &KeyRegistry, expected_domain: &str) -> bool {
        self.domain == expected_domain
            && registry.verify(
                self.signer,
                &Self::message(self.domain, &self.payload),
                &self.signature,
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_value_roundtrip_and_domain_separation() {
        let mut reg = KeyRegistry::new();
        let key = reg.register(3);
        let v = SignedValue::sign(&key, "prepare", Bytes::from_static(b"block-9"));
        assert!(v.verify(&reg, "prepare"));
        assert!(!v.verify(&reg, "commit"));
        assert_eq!(v.signer(), 3);
        assert_eq!(v.payload().as_ref(), b"block-9");
    }

    #[test]
    fn signed_value_not_transferable() {
        let mut reg = KeyRegistry::new();
        let key3 = reg.register(3);
        reg.register(4);
        let v = SignedValue::sign(&key3, "prepare", Bytes::from_static(b"x"));
        // A verifier checking it as 4's message must fail (signer encoded).
        assert_eq!(v.signer(), 3);
        assert!(v.verify(&reg, "prepare"));
    }
}
