//! Golden values for every seeded stream in the workspace.
//!
//! The determinism tests elsewhere compare two runs of the same build, so
//! they cannot notice a change to a hash or mixer that shifts every
//! stream at once. These constants were recorded from the implementation
//! before the hash functions were consolidated; any edit to FNV-1a,
//! SplitMix64 or the way a component folds its seed must keep them.

use dvdc::protocol::{fnv64, initial_image};
use dvdc_faults::buggify::{points, FaultRegistry, Intensity};
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::ids::NodeId;
use dvdc_vcluster::messaging::RetryPolicy;
use rand::Rng;

#[test]
fn fnv64_matches_published_vectors() {
    assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    assert_eq!(fnv64(b"dvdc"), 0x1269_3666_eedd_e8e6);
}

#[test]
fn initial_image_is_a_splitmix64_chain() {
    // Word i+1 is splitmix64(word i); word 0 is splitmix64 of the
    // node's seed, itself splitmix64(cluster_id) + node index.
    let words: Vec<u64> = initial_image(1, NodeId(2), 24)
        .chunks(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(
        words,
        [
            0xbcd9_dbb4_9673_066b,
            0xe68e_6fc0_1df0_8360,
            0x7569_3551_cf81_461c
        ]
    );
}

#[test]
fn rng_hub_streams_are_pinned() {
    let hub = RngHub::new(7);
    let plain: Vec<u64> = hub.stream("x").random_iter().take(4).collect();
    assert_eq!(
        plain,
        [
            0xe963_70df_4de9_a99a,
            0x9da2_6fd7_4d4d_c3fe,
            0xc315_4013_0fae_dd31,
            0x5376_ed25_2884_4796
        ]
    );
    let indexed: Vec<u64> = hub.stream_indexed("x", 3).random_iter().take(4).collect();
    assert_eq!(
        indexed,
        [
            0x5c43_6830_acf1_23f5,
            0x9846_0ed5_994d_fbe2,
            0xa021_4695_2380_d14b,
            0x2215_4b04_ff42_c8b5
        ]
    );
    let sub: Vec<u64> = hub
        .subhub("trial", 2)
        .stream("x")
        .random_iter()
        .take(2)
        .collect();
    assert_eq!(sub, [0xfab1_6138_e0e9_feab, 0x6784_ea5c_cd45_9ba2]);
}

#[test]
fn buggify_activation_pattern_is_pinned() {
    let reg = FaultRegistry::new(42, Intensity::Aggressive);
    // Bit i set = evaluation i fired; plus the first firing magnitudes
    // (as f64 bits) from the independent magnitude stream.
    let pattern = |point: &'static str| {
        let mut mask = 0u64;
        let mut mags = Vec::new();
        for i in 0..64 {
            if let Some(m) = reg.roll(point) {
                mask |= 1 << i;
                mags.push(m.to_bits());
            }
        }
        mags.truncate(3);
        (mask, mags)
    };
    assert_eq!(
        pattern(points::CLOCK_JITTER),
        (
            0x1c04_0201_4020_2eac,
            vec![
                0x3fea_e2e5_c7a2_5161,
                0x3fe5_df50_2aaa_328b,
                0x3f87_2782_2b2c_bd00
            ]
        )
    );
    assert_eq!(
        pattern(points::TRANSFER_ARRIVE_DROP),
        (
            0x0808_8810_0004_0003,
            vec![
                0x3fb2_9163_4c5f_ca28,
                0x3fed_bf66_3ae1_1375,
                0x3fe8_3a12_2c6d_846a
            ]
        )
    );
}

#[test]
fn retry_jitter_is_pinned() {
    let policy = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(2.0),
    };
    let got: Vec<u64> = [(1u32, 0u64), (2, 42), (3, 7), (5, u64::MAX)]
        .into_iter()
        .map(|(attempt, seed)| {
            policy
                .backoff_with_jitter(attempt, seed)
                .as_secs()
                .to_bits()
        })
        .collect();
    assert_eq!(
        got,
        [
            0x3f5c_dad9_2e9f_83a2,
            0x3f74_b4de_0e90_d794,
            0x3f81_6a35_1b14_b479,
            0x3fa0_6a82_b996_829a
        ]
    );
}
