//! The wire codec of the crypto vocabulary's one wire type, [`Signature`]:
//! `signer:u64 ‖ tag:[u8;32]` (big-endian, raw digest, no length prefix,
//! following the workspace-wide conventions in [`cupft_wire`]). This is
//! byte-for-byte the layout the discovery snapshot codec used before the
//! traits existed.

use cupft_wire::{Decode, Encode, Reader, WireError};

use crate::sha256::DIGEST_LEN;
use crate::Signature;

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
}
