//! End-to-end checkpoint integrity: per-block checksums.
//!
//! Diskless checkpointing trusts RAM on surviving nodes for the whole
//! lifetime of an epoch. A silently flipped bit in a stored checkpoint or
//! parity block is worse than a crash: recovery would *use* it, decoding
//! garbage into a restored VM with no error anywhere. Following stdchk
//! (Al Kiswany et al.), every stored block therefore carries a checksum
//! computed when the block is written through the store API, and every
//! consumer (recovery decode, scrub, commit promotion) verifies before
//! trusting the bytes.
//!
//! The checksum is the workspace's one hash, FNV-1a/64
//! ([`dvdc_simcore::hash::fnv64`]) — not cryptographic, but cheap and
//! more than strong enough to catch the random corruptions the fault
//! injector models.

use dvdc_simcore::hash::fnv64;

/// True when `bytes` still matches the `expected` digest recorded at
/// write time.
pub fn verify(bytes: &[u8], expected: u64) -> bool {
    fnv64(bytes) == expected
}
