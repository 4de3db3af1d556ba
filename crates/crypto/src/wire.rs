//! Wire codecs for the crypto vocabulary: signatures and signed values.
//!
//! Layouts (all integers big-endian, following the workspace-wide
//! conventions in [`cupft_wire`]):
//!
//! * [`Signature`] — `signer:u64 ‖ tag:[u8;32]` (raw digest, no length
//!   prefix). This is byte-for-byte the layout the discovery snapshot
//!   codec used before the traits existed.
//! * [`SignedValue`] — `signer:u64 ‖ domain:str ‖ payload:bytes ‖
//!   Signature`; the domain is interned against [`crate::domains`] and
//!   unknown domains are rejected at decode time.

use bytes::Bytes;
use cupft_wire::{put_bytes, Decode, Encode, Reader, WireError};

use crate::sha256::DIGEST_LEN;
use crate::{domains, Signature, SignedValue};

impl Encode for Signature {
    fn encode(&self, out: &mut Vec<u8>) {
        self.signer().encode(out);
        out.extend_from_slice(self.tag());
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let signer = r.u64()?;
        let tag = r.take(DIGEST_LEN)?.try_into().expect("digest length");
        Ok(Signature::from_parts(signer, tag))
    }
}

impl Encode for SignedValue {
    fn encode(&self, out: &mut Vec<u8>) {
        self.signer().encode(out);
        put_bytes(out, self.domain().as_bytes());
        self.payload().encode(out);
        self.signature().encode(out);
    }
}

impl Decode for SignedValue {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let signer = r.u64()?;
        let raw_domain = r.bytes()?;
        let domain = std::str::from_utf8(raw_domain)
            .ok()
            .and_then(domains::intern)
            .ok_or(WireError::Malformed("unknown signature domain"))?;
        let payload = Bytes::decode(r)?;
        let signature = Signature::decode(r)?;
        Ok(SignedValue::from_parts(signer, domain, payload, signature))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyRegistry;
    use cupft_wire::{decode_from_slice, encode_to_vec};

    #[test]
    fn signature_roundtrips_and_still_verifies() {
        let mut reg = KeyRegistry::new();
        let key = reg.register(5);
        let sig = key.sign(b"message");
        let back: Signature = decode_from_slice(&encode_to_vec(&sig)).unwrap();
        assert_eq!(back, sig);
        assert!(reg.verify(5, b"message", &back));
    }

    #[test]
    fn signed_value_roundtrips_with_interned_domain() {
        let mut reg = KeyRegistry::new();
        let key = reg.register(7);
        let v = SignedValue::sign(&key, domains::PREPARE, Bytes::copy_from_slice(b"block"));
        let back: SignedValue = decode_from_slice(&encode_to_vec(&v)).unwrap();
        assert_eq!(back, v);
        assert!(back.verify(&reg, domains::PREPARE));
    }

    #[test]
    fn signed_value_rejects_unknown_domain() {
        let mut reg = KeyRegistry::new();
        let key = reg.register(7);
        let v = SignedValue::sign(&key, domains::COMMIT, Bytes::copy_from_slice(b"x"));
        let mut bytes = encode_to_vec(&v);
        // The domain string starts after signer(8) + len(8); corrupt it.
        bytes[16] ^= 0x01;
        assert_eq!(
            decode_from_slice::<SignedValue>(&bytes),
            Err(WireError::Malformed("unknown signature domain"))
        );
    }
}
