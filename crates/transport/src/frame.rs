//! Length-prefixed framed codec for DVDC sockets.
//!
//! Wire layout of one frame:
//!
//! ```text
//! magic   u32 LE   0x4456_4443  ("DVDC" read as big-endian ASCII)
//! version u8       1
//! flags   u8       0 (reserved)
//! len     u32 LE   payload length in bytes, <= MAX_FRAME
//! payload len bytes
//! digest  u64 LE   FNV-1a 64 of the payload
//! ```
//!
//! Every malformed input maps to a typed [`FrameError`] — the decoder
//! never panics and never silently resynchronises on garbage (a stream
//! with a bad magic or checksum is dead; the link layer reconnects).

use dvdc_simcore::hash::fnv64;

/// Frame magic: the ASCII bytes `DVDC` packed big-endian-first into a
/// `u32`, serialized little-endian on the wire.
pub const MAGIC: u32 = 0x4456_4443;

/// Codec version carried in every frame header.
pub const VERSION: u8 = 1;

/// Hard cap on payload size (64 MiB). Larger `len` fields are rejected
/// before any allocation — a corrupt or hostile length cannot OOM the
/// process or stall the reader.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Fixed header size: magic + version + flags + len.
pub const HEADER_LEN: usize = 10;

/// Checksum trailer size.
pub const TRAILER_LEN: usize = 8;

/// Typed framing failures. `Io` carries only the [`std::io::ErrorKind`]
/// so the error stays `PartialEq` and cheaply clonable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`] — not a DVDC stream.
    BadMagic {
        /// The value actually read.
        got: u32,
    },
    /// The version byte is not one this build speaks.
    Version {
        /// The version actually read.
        got: u8,
    },
    /// The declared payload length exceeds [`MAX_FRAME`].
    Oversized {
        /// The declared length.
        len: u32,
    },
    /// The payload digest did not match the trailer — torn or corrupt.
    Checksum {
        /// Digest recomputed over the received payload.
        expected: u64,
        /// Digest carried in the trailer.
        got: u64,
    },
    /// The underlying stream failed (includes EOF mid-frame as
    /// [`std::io::ErrorKind::UnexpectedEof`]).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { got } => {
                write!(f, "bad frame magic {got:#010x} (want {MAGIC:#010x})")
            }
            FrameError::Version { got } => {
                write!(f, "unsupported frame version {got} (want {VERSION})")
            }
            FrameError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds cap of {MAX_FRAME}")
            }
            FrameError::Checksum { expected, got } => write!(
                f,
                "frame checksum mismatch: payload digests to {expected:#018x}, trailer says {got:#018x}"
            ),
            FrameError::Io(kind) => write!(f, "frame io error: {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e.kind())
    }
}

/// Encode one payload into a complete frame (header + payload + trailer).
///
/// # Panics
///
/// Panics if `payload.len()` exceeds [`MAX_FRAME`] — senders control
/// their own payload sizes, so an oversized *outbound* frame is a local
/// logic bug, unlike inbound ones which are typed errors.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME as usize,
        "outbound frame of {} bytes exceeds MAX_FRAME",
        payload.len()
    );
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(0); // flags, reserved
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out
}

/// Validate a header already known to hold [`HEADER_LEN`] bytes; returns
/// the payload length.
fn parse_header(header: &[u8]) -> Result<usize, FrameError> {
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic { got: magic });
    }
    if header[4] != VERSION {
        return Err(FrameError::Version { got: header[4] });
    }
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    Ok(len as usize)
}

/// Verify the trailer digest against the payload.
fn check_payload(payload: &[u8], trailer: [u8; TRAILER_LEN]) -> Result<(), FrameError> {
    let got = u64::from_le_bytes(trailer);
    let expected = fnv64(payload);
    if expected != got {
        return Err(FrameError::Checksum { expected, got });
    }
    Ok(())
}

/// Blocking read of one whole frame from a stream. EOF before the first
/// header byte is reported as `Io(UnexpectedEof)` like any other torn
/// read — callers that treat clean EOF as normal shutdown match on it.
pub fn read_frame<R: std::io::Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let len = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut trailer = [0u8; TRAILER_LEN];
    r.read_exact(&mut trailer)?;
    check_payload(&payload, trailer)?;
    Ok(payload)
}

/// Blocking write of one payload as a whole frame.
pub fn write_frame<W: std::io::Write>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    let frame = encode_frame(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_one(bytes: &[u8]) -> Result<Vec<u8>, FrameError> {
        read_frame(&mut std::io::Cursor::new(bytes))
    }

    #[test]
    fn round_trip_simple() {
        let payload = b"hello dvdc".to_vec();
        let frame = encode_frame(&payload);
        assert_eq!(read_one(&frame).unwrap(), payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let frame = encode_frame(&[]);
        assert_eq!(frame.len(), HEADER_LEN + TRAILER_LEN);
        assert_eq!(read_one(&frame).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn truncated_frame_is_typed_not_a_hang() {
        let frame = encode_frame(b"payload bytes");
        for cut in 0..frame.len() {
            assert_eq!(
                read_one(&frame[..cut]),
                Err(FrameError::Io(std::io::ErrorKind::UnexpectedEof)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut frame = encode_frame(b"x");
        frame[0] ^= 0xFF;
        assert!(matches!(read_one(&frame), Err(FrameError::BadMagic { .. })));
    }

    #[test]
    fn bad_version_is_typed() {
        let mut frame = encode_frame(b"x");
        frame[4] = 9;
        assert_eq!(read_one(&frame), Err(FrameError::Version { got: 9 }));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        // Only the header is present: a reader that allocated `len` bytes
        // first would fail with `UnexpectedEof`, not `Oversized`.
        let mut frame = encode_frame(b"x");
        frame[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_one(&frame[..HEADER_LEN]),
            Err(FrameError::Oversized { len: u32::MAX })
        );
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let mut frame = encode_frame(b"checksum me");
        frame[HEADER_LEN + 3] ^= 0x01;
        assert!(matches!(read_one(&frame), Err(FrameError::Checksum { .. })));
    }

    #[test]
    fn write_then_read_over_a_cursor() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"over the wire").unwrap();
        write_frame(&mut buf, b"twice").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"over the wire");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"twice");
        assert_eq!(
            read_frame(&mut cursor),
            Err(FrameError::Io(std::io::ErrorKind::UnexpectedEof))
        );
    }
}
