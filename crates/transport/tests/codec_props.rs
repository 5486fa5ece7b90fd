//! Property tests for the framed codec and the wire envelope: arbitrary
//! payloads round-trip byte-exact; arbitrary mutilations (torn tails,
//! flipped bytes, random garbage) always come back as typed errors —
//! never a panic, never a hang.

use std::io::{ErrorKind, Read};

use dvdc::protocol::node_core::{Msg, CTL};
use dvdc_transport::frame::{encode_frame, read_frame, FrameError, HEADER_LEN, MAX_FRAME};
use dvdc_transport::wire::{decode_envelope, encode_envelope};
use dvdc_vcluster::ids::NodeId;
use proptest::collection::vec;
use proptest::prelude::*;

/// A stream that hands out at most `chunk` bytes per `read` call, the way
/// a socket delivers a frame in arbitrary pieces.
struct Chunked<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Reads frames from `bytes`, `chunk` bytes per read, until the first
/// error; returns the frames and that error.
fn read_all(bytes: &[u8], chunk: usize) -> (Vec<Vec<u8>>, FrameError) {
    let mut r = Chunked { bytes, chunk };
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut r) {
            Ok(p) => frames.push(p),
            Err(e) => return (frames, e),
        }
    }
}

fn read_one(mut bytes: &[u8]) -> Result<Vec<u8>, FrameError> {
    read_frame(&mut bytes)
}

const EOF: FrameError = FrameError::Io(ErrorKind::UnexpectedEof);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame_round_trips_arbitrary_payloads(payload in vec(any::<u8>(), 0..2048usize)) {
        let frame = encode_frame(&payload);
        prop_assert_eq!(read_one(&frame).unwrap(), payload);
    }

    #[test]
    fn torn_frames_are_typed_errors(
        payload in vec(any::<u8>(), 0..512usize),
        cut_frac in 0.0f64..1.0,
        chunk in 1usize..64,
    ) {
        let frame = encode_frame(&payload);
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < frame.len());
        let (frames, err) = read_all(&frame[..cut], chunk);
        prop_assert!(frames.is_empty());
        prop_assert_eq!(err, EOF);
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation(
        len in (MAX_FRAME + 1)..u32::MAX,
    ) {
        // Header only: a reader that allocated `len` bytes before checking
        // would report `UnexpectedEof` here, not `Oversized`.
        let mut header = encode_frame(&[])[..HEADER_LEN].to_vec();
        header[6..10].copy_from_slice(&len.to_le_bytes());
        prop_assert_eq!(read_one(&header), Err(FrameError::Oversized { len }));
    }

    #[test]
    fn flipped_bytes_never_decode_silently(
        payload in vec(any::<u8>(), 1..512usize),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let mut frame = encode_frame(&payload);
        let pos = ((frame.len() as f64) * pos_frac) as usize % frame.len();
        frame[pos] ^= flip;
        // A flip anywhere except the reserved flags byte (offset 5,
        // ignored by design) must surface as a typed error — single-
        // position payload flips can never slip past the FNV trailer.
        match read_one(&frame) {
            Err(_) => prop_assert!(pos != 5, "flags flip should be accepted"),
            Ok(decoded) => {
                prop_assert!(pos == 5, "flip at {pos} decoded silently");
                prop_assert_eq!(decoded, payload);
            }
        }
    }

    #[test]
    fn random_garbage_never_panics_the_decoder(
        bytes in vec(any::<u8>(), 0..1024usize),
        chunk in 1usize..64,
    ) {
        // Reads until the stream is rejected or runs dry; any typed
        // outcome is fine, a panic is not.
        let _ = read_all(&bytes, chunk);
    }

    #[test]
    fn reader_reassembles_any_chunking(
        payloads in vec(vec(any::<u8>(), 0..256usize), 1..5),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p));
        }
        let (got, err) = read_all(&stream, chunk);
        prop_assert_eq!(got, payloads);
        prop_assert_eq!(err, EOF);
    }

    #[test]
    fn payload_msg_round_trips_arbitrary_data(
        sender in 0usize..64,
        epoch in any::<u64>(),
        source in 0usize..64,
        fence in any::<u64>(),
        data in vec(any::<u8>(), 0..2048usize),
    ) {
        let msg = Msg::Payload {
            epoch,
            source: NodeId(source),
            fence_epoch: fence,
            data: data.clone(),
        };
        let bytes = encode_envelope(NodeId(sender), &msg);
        let (from, decoded) = decode_envelope(&bytes).unwrap();
        prop_assert_eq!(from, NodeId(sender));
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn envelope_survives_frame_round_trip(
        reason_bytes in vec(32u8..127, 0..64usize),
        epoch in any::<u64>(),
    ) {
        let reason = String::from_utf8(reason_bytes).expect("printable ASCII");
        let msg = Msg::AbortRound { epoch, reason };
        let frame = encode_frame(&encode_envelope(CTL, &msg));
        let payload = read_one(&frame).unwrap();
        let (from, decoded) = decode_envelope(&payload).unwrap();
        prop_assert_eq!(from, CTL);
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn garbage_envelopes_are_typed(bytes in vec(any::<u8>(), 0..256usize)) {
        // Any outcome is fine except a panic; errors must be the typed
        // WireError (guaranteed by the signature), and a successful
        // decode must re-encode to the same bytes (canonical format).
        if let Ok((from, msg)) = decode_envelope(&bytes) {
            prop_assert_eq!(encode_envelope(from, &msg), bytes);
        }
    }
}

#[test]
fn header_len_matches_layout() {
    // magic u32 + version u8 + flags u8 + len u32
    assert_eq!(HEADER_LEN, 4 + 1 + 1 + 4);
}
