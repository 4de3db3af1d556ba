//! The wire codec of the signed PD record [`PdCertificate`].

use cupft_crypto::Signature;
use cupft_graph::{ProcessId, ProcessSet};
use cupft_wire::{Decode, Encode, Reader, WireError};

use crate::PdCertificate;

/// Wire form: `author:u64 ‖ pd:(u64 count ‖ u64…) ‖ Signature`. The
/// fingerprint is derived state and never travels (a peer-supplied
/// fingerprint would be an unverified claim). Decode canonicalizes the PD
/// (see [`ProcessSet`]'s codec), so a hostile unsorted encoding still
/// yields the canonical record, and a signature over anything else fails
/// verification as it should.
impl Encode for PdCertificate {
    fn encode(&self, out: &mut Vec<u8>) {
        self.author().encode(out);
        self.pd().encode(out);
        self.signature().encode(out);
    }
}

impl Decode for PdCertificate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PdCertificate::from_parts(
            ProcessId::decode(r)?,
            ProcessSet::decode(r)?,
            Signature::decode(r)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupft_crypto::KeyRegistry;
    use cupft_graph::process_set;
    use cupft_wire::{decode_from_slice, encode_to_vec};

    #[test]
    fn signed_pd_roundtrips_verbatim() {
        let mut reg = KeyRegistry::new();
        let key = reg.register(3);
        let rec = PdCertificate::sign(&key, &process_set([9, 1, 4]));
        let bytes = encode_to_vec(&rec);
        let back: PdCertificate = decode_from_slice(&bytes).unwrap();
        assert_eq!(back, rec);
        assert_eq!(encode_to_vec(&back), bytes);
        assert!(back.verify(&reg));
    }
}
