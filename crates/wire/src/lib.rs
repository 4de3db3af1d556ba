//! The one wire codec for every BFT-CUPFT protocol message.
//!
//! Hand-rolled and dependency-free by design — the workspace carries no
//! serde: explicit byte layouts, big-endian integers, bounds-checked
//! reads, and no reflection, as a pair of traits every message-owning
//! crate implements for its own types:
//!
//! * [`Encode`] — append the canonical byte form to a buffer. Encoding is
//!   **deterministic**: the same value always produces the same bytes, so
//!   `encode ∘ decode ∘ encode` is byte-identical (tested per message
//!   under proptest).
//! * [`Decode`] — parse from a bounds-checked [`Reader`]. Decoding is
//!   **total**: every byte string either yields a value or a structured
//!   [`WireError`]; no panic, no over-read, no unchecked allocation.
//!
//! On top of the traits sits the [`frame`] module: the
//! `magic ‖ version ‖ length ‖ payload` envelope the socket runtime
//! writes on TCP streams, with oversize and corruption rejection at the
//! boundary (see `docs/WIRE.md` for the layout and evolution rules).
//!
//! # Conventions
//!
//! All integers are big-endian. Collections carry a `u64` count prefix,
//! byte strings a `u64` length prefix, enums a `u8` tag, `Option` a
//! `u8` presence byte. The discovery snapshot (`DiscoveryState::to_bytes`)
//! is built from the same codecs.
//!
//! # Example
//!
//! ```
//! use cupft_wire::{decode_from_slice, encode_to_vec};
//!
//! let bytes = encode_to_vec(&(7u64, String::from("pd")));
//! let back: (u64, String) = decode_from_slice(&bytes).unwrap();
//! assert_eq!(back, (7, String::from("pd")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
mod impls;

use std::fmt;

/// Everything that can go wrong while decoding wire bytes.
///
/// Decoders never panic on malformed input — corruption, truncation, and
/// hostile length prefixes all surface as one of these variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A frame or snapshot did not start with the expected magic bytes.
    BadMagic,
    /// A frame or snapshot carried a version this build does not speak.
    BadVersion(u8),
    /// An enum tag byte was outside the known range for `ty`.
    BadTag {
        /// The type whose tag space was violated.
        ty: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A declared length exceeded the codec's hard ceiling.
    Oversized {
        /// The declared length.
        len: u64,
        /// The ceiling it violated.
        max: u64,
    },
    /// Bytes remained after the value was fully decoded.
    Trailing(usize),
    /// A structural invariant failed (bad UTF-8, unknown domain, …).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(f, "truncated: needed {needed} bytes, {remaining} remain")
            }
            WireError::BadMagic => write!(f, "bad magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag { ty, tag } => write!(f, "unknown tag {tag} for {ty}"),
            WireError::Oversized { len, max } => {
                write!(f, "declared length {len} exceeds maximum {max}")
            }
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after value"),
            WireError::Malformed(what) => write!(f, "malformed value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Hard ceiling on any single declared length (collection counts, byte
/// strings). Far above anything the protocol produces, low enough that a
/// hostile length prefix cannot drive a giant allocation.
pub const MAX_LEN: u64 = 1 << 24;

/// A bounds-checked cursor over wire bytes.
///
/// Every read either succeeds within the buffer or returns
/// [`WireError::Truncated`]; nothing ever reads past the end. The reader
/// is the only way [`Decode`] implementations see input.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Consumes a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Consumes a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Consumes a big-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_be_bytes(
            self.take(16)?.try_into().expect("len 16"),
        ))
    }

    /// Consumes a `u64` length prefix, validated against [`MAX_LEN`] and
    /// the bytes actually remaining (each encoded element occupies at
    /// least one byte, so a count beyond `remaining` is always bogus —
    /// this rejects hostile prefixes before any allocation happens).
    pub fn len_prefix(&mut self) -> Result<usize, WireError> {
        let len = self.u64()?;
        if len > MAX_LEN {
            return Err(WireError::Oversized { len, max: MAX_LEN });
        }
        let len = len as usize;
        if len > self.remaining() {
            return Err(WireError::Truncated {
                needed: len,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Consumes a `u64`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.len_prefix()?;
        self.take(len)
    }

    /// Fails with [`WireError::Trailing`] unless the buffer is fully
    /// consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Trailing(self.buf.len()))
        }
    }
}

/// Serialize a value into its canonical wire bytes.
pub trait Encode {
    /// Appends the value's wire form to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Parse a value from wire bytes.
pub trait Decode: Sized {
    /// Reads one value from the cursor, leaving it positioned after the
    /// value's last byte.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value into a fresh buffer.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes exactly one value from `bytes`, rejecting trailing garbage.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Appends a `u64` count/length prefix (the codec-wide convention).
pub fn put_len(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(&(len as u64).to_be_bytes());
}

/// Appends a `u64`-length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_is_bounds_checked() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.remaining(), 2);
        assert!(matches!(
            r.u64(),
            Err(WireError::Truncated {
                needed: 8,
                remaining: 2
            })
        ));
        // A failed read consumes nothing.
        assert_eq!(r.u16().unwrap(), 0x0203);
        r.finish().unwrap();
    }

    #[test]
    fn len_prefix_rejects_hostile_lengths() {
        // Claims u64::MAX elements with an empty tail: must fail before
        // any allocation.
        let mut bytes = u64::MAX.to_be_bytes().to_vec();
        bytes.push(0);
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.len_prefix(), Err(WireError::Oversized { .. })));

        // Claims more bytes than remain.
        let mut bytes = 100u64.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0; 4]);
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.len_prefix(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn decode_from_slice_rejects_trailing() {
        let mut bytes = encode_to_vec(&7u32);
        bytes.push(0xFF);
        assert_eq!(
            decode_from_slice::<u32>(&bytes),
            Err(WireError::Trailing(1))
        );
    }

    #[test]
    fn wire_error_displays() {
        let errs: Vec<WireError> = vec![
            WireError::Truncated {
                needed: 8,
                remaining: 2,
            },
            WireError::BadMagic,
            WireError::BadVersion(9),
            WireError::BadTag { ty: "X", tag: 3 },
            WireError::Oversized { len: 10, max: 1 },
            WireError::Trailing(4),
            WireError::Malformed("why"),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
