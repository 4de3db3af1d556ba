//! The stream envelope: `magic ‖ version ‖ length ‖ payload`.
//!
//! Byte-for-byte layout (9-byte header, big-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic   b"CUWF"
//! 4       1     version WIRE_VERSION (currently 3)
//! 5       4     length  payload byte count, u32 BE, ≤ MAX_FRAME_PAYLOAD
//! 9       len   payload (an Encode-produced value, usually an Envelope)
//! ```
//!
//! The header exists so a TCP reader can (a) resynchronize detection —
//! a stream that does not start `CUWF` is garbage, fail fast; (b) refuse
//! cross-version traffic explicitly ([`WireError::BadVersion`]) instead
//! of misparsing it; (c) bound memory before allocating
//! ([`WireError::Oversized`]). Version negotiation is deliberately
//! minimal: peers speak exactly one version, and a mismatch closes the
//! connection — see `docs/WIRE.md` for the evolution rules.

use std::fmt;
use std::io::{self, Read, Write};

use crate::WireError;

/// First four bytes of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"CUWF";

/// The wire version this build speaks (header byte 4).
pub const WIRE_VERSION: u8 = 3;

/// Fixed header size: magic + version + length.
pub const HEADER_LEN: usize = 9;

/// Hard ceiling on a frame payload (16 MiB) — a hostile or corrupt
/// length prefix is rejected before any allocation.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 24;

/// Wraps `payload` in a frame.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_PAYLOAD`]; protocol messages
/// are orders of magnitude smaller, so an oversized outbound payload is
/// a programming error, not a runtime condition.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_PAYLOAD,
        "outbound frame payload of {} bytes exceeds MAX_FRAME_PAYLOAD",
        payload.len()
    );
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(WIRE_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parses exactly one frame from `bytes`, returning its payload.
/// Rejects bad magic, unknown versions, oversized or truncated lengths,
/// and trailing garbage.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], WireError> {
    let mut r = crate::Reader::new(bytes);
    let header = r.take(HEADER_LEN)?.try_into().expect("HEADER_LEN bytes");
    let len = payload_len(header)?;
    let payload = r.take(len)?;
    r.finish()?;
    Ok(payload)
}

/// Checks a frame header's magic, version and length bound, returning
/// the payload length it announces.
fn payload_len(header: &[u8; HEADER_LEN]) -> Result<usize, WireError> {
    if header[..4] != FRAME_MAGIC {
        return Err(WireError::BadMagic);
    }
    if header[4] != WIRE_VERSION {
        return Err(WireError::BadVersion(header[4]));
    }
    let len = u32::from_be_bytes(header[5..].try_into().expect("len 4")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversized {
            len: len as u64,
            max: MAX_FRAME_PAYLOAD as u64,
        });
    }
    Ok(len)
}

/// An error while moving frames over a byte stream: either the transport
/// failed ([`io::Error`]) or the peer sent bytes that are not a valid
/// frame ([`WireError`]).
#[derive(Debug)]
pub enum FrameIoError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The stream carried malformed frame bytes.
    Wire(WireError),
}

impl fmt::Display for FrameIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameIoError::Io(e) => write!(f, "frame transport error: {e}"),
            FrameIoError::Wire(e) => write!(f, "frame codec error: {e}"),
        }
    }
}

impl std::error::Error for FrameIoError {}

impl From<io::Error> for FrameIoError {
    fn from(e: io::Error) -> Self {
        FrameIoError::Io(e)
    }
}

impl From<WireError> for FrameIoError {
    fn from(e: WireError) -> Self {
        FrameIoError::Wire(e)
    }
}

/// Writes one frame to a stream (single `write_all`, so concurrent
/// writers on distinct streams never interleave within a frame).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame(payload))
}

/// Reads one frame from a stream.
///
/// Returns `Ok(None)` on a clean end-of-stream *at a frame boundary*
/// (zero bytes before the next header) — how an orderly peer shutdown
/// looks. EOF mid-header or mid-payload is a truncation error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameIoError> {
    let mut header = [0u8; HEADER_LEN];
    match read_full(r, &mut header)? {
        0 => return Ok(None),
        n if n < HEADER_LEN => {
            return Err(WireError::Truncated {
                needed: HEADER_LEN,
                remaining: n,
            }
            .into())
        }
        _ => {}
    }
    let len = payload_len(&header)?;
    let mut payload = vec![0u8; len];
    let got = read_full(r, &mut payload)?;
    if got < len {
        return Err(WireError::Truncated {
            needed: len,
            remaining: got,
        }
        .into());
    }
    Ok(Some(payload))
}

/// Fills `buf` from `r`, returning how many bytes were read before EOF
/// (retrying on `Interrupted`, unlike `read_exact`, and distinguishing
/// "EOF immediately" from "EOF mid-value").
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrips() {
        let framed = frame(b"hello");
        assert_eq!(unframe(&framed).unwrap(), b"hello");
        assert_eq!(framed.len(), HEADER_LEN + 5);
    }

    #[test]
    fn unframe_rejects_corruption() {
        let good = frame(b"payload");

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(unframe(&bad_magic), Err(WireError::BadMagic));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert_eq!(unframe(&bad_version), Err(WireError::BadVersion(99)));

        let mut oversized = good.clone();
        oversized[5..9].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            unframe(&oversized),
            Err(WireError::Oversized { .. })
        ));

        for cut in 0..good.len() {
            assert!(
                unframe(&good[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(unframe(&trailing), Err(WireError::Trailing(1)));
    }

    /// The headers `unframe_rejects_corruption` feeds to `unframe`, read
    /// off a stream: every TCP frame a peer sends goes through this path.
    #[test]
    fn read_frame_rejects_bad_headers() {
        let good = frame(b"payload");
        let read = |bytes: Vec<u8>| read_frame(&mut Cursor::new(bytes));

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            read(bad_magic),
            Err(FrameIoError::Wire(WireError::BadMagic))
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(matches!(
            read(bad_version),
            Err(FrameIoError::Wire(WireError::BadVersion(99)))
        ));

        let mut oversized = good;
        oversized[5..9].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read(oversized),
            Err(FrameIoError::Wire(WireError::Oversized { .. }))
        ));
    }

    #[test]
    fn stream_reads_frames_then_clean_eof() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"one").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, b"three").unwrap();
        let mut cursor = Cursor::new(stream);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"one");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"three");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn stream_eof_mid_frame_is_truncation() {
        let framed = frame(b"payload");
        // Mid-header.
        let mut cursor = Cursor::new(framed[..4].to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameIoError::Wire(WireError::Truncated { .. }))
        ));
        // Mid-payload.
        let mut cursor = Cursor::new(framed[..HEADER_LEN + 2].to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameIoError::Wire(WireError::Truncated { .. }))
        ));
    }
}
