//! `Encode`/`Decode` implementations for primitives, std containers, and
//! the graph-layer vocabulary types every message builds on.

use std::sync::Arc;

use bytes::Bytes;
use cupft_graph::{ProcessId, ProcessSet};

use crate::{put_bytes, put_len, Decode, Encode, Reader, WireError};

macro_rules! int_impl {
    ($ty:ty, $read:ident) => {
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.$read()
            }
        }
    };
}

int_impl!(u8, u8);
int_impl!(u16, u16);
int_impl!(u32, u32);
int_impl!(u64, u64);
int_impl!(u128, u128);

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { ty: "bool", tag }),
        }
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.bytes()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // `len_prefix` already guarantees the count cannot exceed the
        // bytes remaining (every element occupies ≥ 1 byte), so the
        // allocation below is bounded by the input size.
        let len = r.len_prefix()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag { ty: "Option", tag }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Encode + ?Sized> Encode for Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<T: Decode> Decode for Arc<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::decode(r).map(Arc::new)
    }
}

impl Encode for Bytes {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_slice());
    }
}

impl Decode for Bytes {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Bytes::copy_from_slice(r.bytes()?))
    }
}

impl Encode for ProcessId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.raw().encode(out);
    }
}

impl Decode for ProcessId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ProcessId::new(r.u64()?))
    }
}

impl Encode for ProcessSet {
    fn encode(&self, out: &mut Vec<u8>) {
        // Matches the discovery snapshot's historical layout: u64 count,
        // then raw member IDs. The set iterates sorted, so the encoding
        // is canonical.
        put_len(out, self.len());
        for p in self.iter() {
            p.encode(out);
        }
    }
}

impl Decode for ProcessSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // Collect, then canonicalize with one sort + dedup: a hostile
        // (e.g. reversed) order costs O(n log n), never a shifting insert
        // per ID.
        Ok(Vec::<ProcessId>::decode(r)?.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_from_slice, encode_to_vec};

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let back: T = decode_from_slice(&bytes).expect("decodes");
        assert_eq!(back, v);
        assert_eq!(encode_to_vec(&back), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(u128::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("κ-OSR"));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip(Some(9u64));
        roundtrip(Option::<u64>::None);
        roundtrip((7u32, String::from("x")));
        roundtrip(Arc::new(11u64));
        roundtrip(Bytes::copy_from_slice(b"payload"));
    }

    #[test]
    fn graph_types_roundtrip() {
        roundtrip(ProcessId::new(42));
        roundtrip(cupft_graph::process_set([3, 1, 2]));
        roundtrip(ProcessSet::new());
    }

    #[test]
    fn process_set_decode_is_canonical() {
        // An adversarial unsorted encoding still decodes to the sorted
        // canonical set (and therefore re-encodes differently — decode
        // never trusts sender ordering).
        let mut bytes = Vec::new();
        put_len(&mut bytes, 2);
        5u64.encode(&mut bytes);
        2u64.encode(&mut bytes);
        let set: ProcessSet = decode_from_slice(&bytes).unwrap();
        assert_eq!(set, cupft_graph::process_set([2, 5]));
    }

    #[test]
    fn bad_tags_reject() {
        assert!(matches!(
            decode_from_slice::<bool>(&[7]),
            Err(WireError::BadTag { ty: "bool", .. })
        ));
        assert!(matches!(
            decode_from_slice::<Option<u8>>(&[9, 0]),
            Err(WireError::BadTag { ty: "Option", .. })
        ));
    }

    #[test]
    fn bad_utf8_rejects() {
        let mut bytes = Vec::new();
        put_bytes(&mut bytes, &[0xFF, 0xFE]);
        assert_eq!(
            decode_from_slice::<String>(&bytes),
            Err(WireError::Malformed("non-UTF-8 string"))
        );
    }
}
