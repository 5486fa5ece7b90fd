//! XOR-delta + zero-run-length compression of page increments.
//!
//! Section IV-C: the in-memory footprint and network traffic of diskless
//! checkpointing become "a function of how fast and how many pages get
//! dirtied, and, for compression, what percent of each page is changed."
//! The classic trick (Plank's "compressed differences") is to XOR the new
//! page against its previous version — unchanged bytes become zero — and
//! run-length encode the zeros.
//!
//! Encoding: a sequence of `(zero_run_len: u16, literal_len: u16,
//! literal bytes…)` records. Worst case (nothing unchanged) costs 4 bytes
//! per 65535 literals — effectively incompressible data passes through
//! with negligible expansion.

use crate::payload::CheckpointPayload;

/// A compressed page delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedDelta {
    /// The encoded byte stream.
    pub data: Vec<u8>,
    /// Original (uncompressed) length.
    pub original_len: usize,
}

impl CompressedDelta {
    /// Compressed size in bytes.
    pub fn compressed_len(&self) -> usize {
        self.data.len()
    }

    /// Compression ratio (compressed/original); > 1 means expansion.
    pub fn ratio(&self) -> f64 {
        if self.original_len == 0 {
            1.0
        } else {
            self.data.len() as f64 / self.original_len as f64
        }
    }
}

/// Fraction of bytes that differ between two page versions — the paper's
/// "what percent of each page is changed".
///
/// # Panics
/// Panics if lengths differ.
pub fn change_fraction(old: &[u8], new: &[u8]) -> f64 {
    assert_eq!(old.len(), new.len(), "pages must have equal length");
    if old.is_empty() {
        return 0.0;
    }
    let changed = old.iter().zip(new).filter(|(a, b)| a != b).count();
    changed as f64 / old.len() as f64
}

/// Compresses `new` against `old`: XOR-diff, then zero-run-length encode.
///
/// # Panics
/// Panics if lengths differ.
pub fn compress(old: &[u8], new: &[u8]) -> CompressedDelta {
    assert_eq!(old.len(), new.len(), "pages must have equal length");
    let diff: Vec<u8> = old.iter().zip(new).map(|(a, b)| a ^ b).collect();
    let mut data = Vec::new();
    let mut i = 0;
    while i < diff.len() {
        // Count zero run (capped at u16::MAX).
        let zero_start = i;
        while i < diff.len() && diff[i] == 0 && i - zero_start < u16::MAX as usize {
            i += 1;
        }
        let zero_len = (i - zero_start) as u16;
        // Count literal run.
        let lit_start = i;
        while i < diff.len() && diff[i] != 0 && i - lit_start < u16::MAX as usize {
            i += 1;
        }
        let lit = &diff[lit_start..i];
        data.extend_from_slice(&zero_len.to_le_bytes());
        data.extend_from_slice(&(lit.len() as u16).to_le_bytes());
        data.extend_from_slice(lit);
    }
    CompressedDelta {
        data,
        original_len: new.len(),
    }
}

/// Reconstructs the new page from the old version and a compressed delta.
///
/// # Panics
/// Panics if the delta is malformed or `old` has the wrong length.
pub fn decompress(old: &[u8], delta: &CompressedDelta) -> Vec<u8> {
    assert_eq!(old.len(), delta.original_len, "base page length mismatch");
    let mut out = old.to_vec();
    let mut pos = 0usize; // position within the page
    let mut i = 0usize; // position within the encoded stream
    let data = &delta.data;
    while i < data.len() {
        assert!(i + 4 <= data.len(), "truncated delta header");
        let zero_len = u16::from_le_bytes([data[i], data[i + 1]]) as usize;
        let lit_len = u16::from_le_bytes([data[i + 2], data[i + 3]]) as usize;
        i += 4;
        pos += zero_len;
        assert!(i + lit_len <= data.len(), "truncated delta literals");
        assert!(pos + lit_len <= out.len(), "delta overruns page");
        for b in &data[i..i + lit_len] {
            out[pos] ^= b;
            pos += 1;
        }
        i += lit_len;
    }
    out
}

/// One coalesced dirty region of an incremental checkpoint, expressed as
/// the parity-ready XOR delta: `bytes[i] = old[offset + i] ^ new[offset +
/// i]`. Because every code in `dvdc-parity` is GF(2)-linear, a parity
/// holder folds such a run into its standing block in place and lands on
/// exactly the parity a full re-encode of the new image would produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorRun {
    /// Byte offset of the run within the image / parity shard.
    pub offset: usize,
    /// `old ⊕ new` over the run.
    pub bytes: Vec<u8>,
}

impl XorRun {
    /// Run length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the run carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Converts an incremental payload into coalesced [`XorRun`]s against the
/// base image it applies to, returning the payload's base epoch alongside.
/// Adjacent dirty pages merge into one run, so large contiguous dirty
/// regions hit the XOR kernels as single long slices. Returns `None` for
/// full payloads (there is no delta to extract — the caller re-encodes).
///
/// # Panics
/// Panics if `base` does not match the payload's image length, or a page
/// index is out of range (the same misuse [`CheckpointPayload::apply_to`]
/// rejects).
pub fn xor_runs(payload: &CheckpointPayload, base: &[u8]) -> Option<(u64, Vec<XorRun>)> {
    let CheckpointPayload::Incremental {
        base_epoch,
        page_size,
        image_len,
        pages,
    } = payload
    else {
        return None;
    };
    assert_eq!(base.len(), *image_len, "base image length mismatch");
    let mut runs: Vec<XorRun> = Vec::new();
    for p in pages {
        assert_eq!(p.bytes.len(), *page_size, "page delta must be page-sized");
        let offset = p.index * page_size;
        assert!(
            offset + page_size <= base.len(),
            "page index {} out of range",
            p.index
        );
        let xor: Vec<u8> = base[offset..offset + page_size]
            .iter()
            .zip(p.bytes.iter())
            .map(|(o, n)| o ^ n)
            .collect();
        match runs.last_mut() {
            Some(run) if run.offset + run.bytes.len() == offset => {
                run.bytes.extend_from_slice(&xor)
            }
            _ => runs.push(XorRun { offset, bytes: xor }),
        }
    }
    Some((*base_epoch, runs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_pages_compress_to_headers_only() {
        let page = vec![0xAAu8; 4096];
        let d = compress(&page, &page);
        // One record per 65535-byte zero run: a single header here.
        assert_eq!(d.compressed_len(), 4);
        assert!(d.ratio() < 0.01);
        assert_eq!(decompress(&page, &d), page);
    }

    #[test]
    fn single_byte_change_is_tiny() {
        let old = vec![1u8; 4096];
        let mut new = old.clone();
        new[100] = 7;
        let d = compress(&old, &new);
        assert!(d.compressed_len() <= 13, "len={}", d.compressed_len());
        assert_eq!(decompress(&old, &d), new);
    }

    #[test]
    fn fully_changed_page_expands_negligibly() {
        let old = vec![0u8; 4096];
        let new: Vec<u8> = (0..4096).map(|i| (i % 255 + 1) as u8).collect();
        let d = compress(&old, &new);
        assert!(d.compressed_len() <= 4096 + 8, "len={}", d.compressed_len());
        assert!(d.ratio() <= 1.01);
        assert_eq!(decompress(&old, &d), new);
    }

    #[test]
    fn alternating_runs_roundtrip() {
        let old = vec![0u8; 1000];
        let mut new = old.clone();
        for i in (0..1000).step_by(37) {
            new[i] = (i % 250 + 1) as u8;
        }
        let d = compress(&old, &new);
        assert_eq!(decompress(&old, &d), new);
        assert!(d.compressed_len() < 1000 / 2);
    }

    #[test]
    fn long_runs_beyond_u16_roundtrip() {
        let n = 200_000;
        let old = vec![3u8; n];
        let mut new = old.clone();
        new[n - 1] = 4;
        let d = compress(&old, &new);
        assert_eq!(decompress(&old, &d), new);
        // 200000/65535 ≈ 4 headers + 1 literal byte.
        assert!(d.compressed_len() < 32);
    }

    #[test]
    fn change_fraction_measures() {
        let old = vec![0u8; 100];
        let mut new = old.clone();
        new[..25].fill(1);
        assert_eq!(change_fraction(&old, &new), 0.25);
        assert_eq!(change_fraction(&old, &old), 0.0);
        assert_eq!(change_fraction(&[], &[]), 0.0);
    }

    #[test]
    fn compression_tracks_change_fraction() {
        // The paper's premise: less change → smaller transfer.
        let old = vec![0u8; 4096];
        let mut sizes = Vec::new();
        for changed in [16usize, 256, 1024, 4096] {
            let mut new = old.clone();
            new[..changed].fill(0xFF);
            sizes.push(compress(&old, &new).compressed_len());
        }
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
    }

    #[test]
    fn empty_page_roundtrip() {
        let d = compress(&[], &[]);
        assert_eq!(d.compressed_len(), 0);
        assert_eq!(decompress(&[], &d), Vec::<u8>::new());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let _ = compress(&[0u8; 4], &[0u8; 5]);
    }

    fn incremental(
        pages: Vec<(usize, Vec<u8>)>,
        page_size: usize,
        image_len: usize,
    ) -> CheckpointPayload {
        CheckpointPayload::Incremental {
            base_epoch: 7,
            page_size,
            image_len,
            pages: pages
                .into_iter()
                .map(|(index, bytes)| crate::payload::PageDelta {
                    index,
                    bytes: std::sync::Arc::from(bytes),
                })
                .collect(),
        }
    }

    #[test]
    fn xor_runs_coalesce_adjacent_pages() {
        let base = vec![0x11u8; 64];
        // Pages 2 and 3 are adjacent, page 0 stands alone.
        let p = incremental(
            vec![
                (0, vec![0x12; 16]),
                (2, vec![0x13; 16]),
                (3, vec![0x14; 16]),
            ],
            16,
            64,
        );
        let (epoch, runs) = xor_runs(&p, &base).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].offset, 0);
        assert_eq!(runs[0].bytes, vec![0x11 ^ 0x12; 16]);
        assert_eq!(runs[1].offset, 32);
        assert_eq!(runs[1].len(), 32);
        assert_eq!(&runs[1].bytes[..16], &[0x11 ^ 0x13u8; 16][..]);
        assert_eq!(&runs[1].bytes[16..], &[0x11 ^ 0x14u8; 16][..]);
        assert!(!runs[1].is_empty());
    }

    #[test]
    fn xor_runs_applied_to_base_rebuild_new_image() {
        let base: Vec<u8> = (0..64u8).collect();
        let p = incremental(vec![(1, vec![9; 16]), (3, vec![7; 16])], 16, 64);
        let (_, runs) = xor_runs(&p, &base).unwrap();
        let mut rebuilt = base.clone();
        for run in &runs {
            for (i, b) in run.bytes.iter().enumerate() {
                rebuilt[run.offset + i] ^= b;
            }
        }
        assert_eq!(rebuilt, p.apply_to(&base));
    }

    #[test]
    fn xor_runs_absent_for_full_payloads() {
        let p = CheckpointPayload::Full {
            image: std::sync::Arc::from(vec![1u8; 32]),
            page_size: 16,
        };
        assert_eq!(xor_runs(&p, &[0u8; 32]), None);
    }

    #[test]
    fn xor_runs_empty_increment_yields_no_runs() {
        let p = incremental(vec![], 16, 64);
        let (_, runs) = xor_runs(&p, &[0u8; 64]).unwrap();
        assert!(runs.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_runs_wrong_base_panics() {
        let p = incremental(vec![], 16, 64);
        let _ = xor_runs(&p, &[0u8; 32]);
    }
}
