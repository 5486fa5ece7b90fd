//! The workspace's one non-cryptographic hash and one integer mixer.
//!
//! * [`fnv64`] — FNV-1a/64, the checksum on every frame, checkpoint
//!   block and parity block, and the fingerprint for pages and names.
//! * [`splitmix64`] — the SplitMix64 step, used wherever a seed must be
//!   spread into well-mixed bits (stream derivation, fault activation,
//!   jitter, synthetic fill).
//!
//! A stateful SplitMix64 generator is `splitmix64` over a counter that
//! advances by [`GOLDEN`]:
//!
//! ```
//! use dvdc_simcore::hash::{splitmix64, GOLDEN};
//!
//! let mut s = 0u64;
//! let mut next = || {
//!     let out = splitmix64(s);
//!     s = s.wrapping_add(GOLDEN);
//!     out
//! };
//! // The published first outputs of SplitMix64 seeded with 0.
//! assert_eq!(next(), 0xe220_a839_7b1d_cdaf);
//! assert_eq!(next(), 0x6e78_9e6a_a1b9_65f4);
//! assert_eq!(next(), 0x06c4_5d18_8009_454f);
//! ```

/// The SplitMix64 increment, ⌊2⁶⁴/φ⌋ (odd, so it walks all of `u64`).
pub const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a/64 digest of `bytes`, one byte at a time. Not cryptographic; a
/// single flipped byte changes the digest with probability ~1 − 2⁻⁶⁴.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One SplitMix64 step: adds [`GOLDEN`] to `x`, then applies the
/// finalizer. A cheap, well-mixed bijection on `u64`.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        // Published FNV-1a/64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_is_positional_and_catches_single_flips() {
        assert_ne!(fnv64(b"abc"), fnv64(b"acb"));
        assert_ne!(fnv64(b""), fnv64(b"\0"));
        let block = vec![0x5Au8; 4096];
        let sum = fnv64(&block);
        for offset in [0usize, 1, 2047, 4095] {
            let mut tampered = block.clone();
            tampered[offset] ^= 0x01;
            assert_ne!(fnv64(&tampered), sum, "flip at {offset} went unnoticed");
        }
    }
}
