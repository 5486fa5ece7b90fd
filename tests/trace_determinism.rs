//! Trace determinism: the simulation is seeded and single-threaded, so
//! two runs from the same seed must emit the *same event stream* — and
//! therefore byte-identical Chrome trace and metrics exports. Any
//! divergence means nondeterminism crept into the protocol, the fault
//! plan, or the exporters (e.g. hash-map iteration order), which would
//! also break seed-repro debugging.

use std::rc::Rc;

use dvdc::placement::GroupPlacement;
use dvdc::protocol::DvdcProtocol;
use dvdc::sim::JobRunner;
use dvdc_faults::dist::Exponential;
use dvdc_faults::injector::FaultInjector;
use dvdc_observe::chrome::chrome_trace;
use dvdc_observe::metrics::metrics_snapshot;
use dvdc_observe::{RecorderHandle, SyncRingRecorder};
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::ClusterBuilder;

/// One fully traced job run — the same flow `dvdc-sim run --trace-out`
/// drives — returning both exports plus the raw event count.
fn traced_job(seed: u64) -> (String, String, usize) {
    let mut cluster = ClusterBuilder::new()
        .physical_nodes(4)
        .vms_per_node(3)
        .vm_memory(8, 32)
        .writes_per_sec(300.0)
        .build(seed);
    let placement = GroupPlacement::orthogonal(&cluster, 3).unwrap();
    let hub = RngHub::new(seed);
    let plan = FaultInjector::new(
        4,
        Exponential::from_mtbf(Duration::from_secs(400.0)),
        Duration::from_secs(5.0),
    )
    .plan(Duration::from_secs(600.0 * 20.0), &hub);
    let runner = JobRunner::new(Duration::from_secs(600.0), Duration::from_secs(30.0));

    let buf = Rc::new(SyncRingRecorder::unbounded());
    let recorder = RecorderHandle::new(buf.clone());
    let mut p = DvdcProtocol::new(placement).with_recorder(recorder.clone());
    runner
        .run_with_recorder(&mut p, &mut cluster, &plan, &hub, &recorder)
        .unwrap();

    let events = buf.events();
    (
        chrome_trace(&events, &[]),
        metrics_snapshot(&events),
        events.len(),
    )
}

#[test]
fn same_seed_exports_are_byte_identical() {
    for seed in [42u64, 7, 1001] {
        let (chrome_a, metrics_a, n_a) = traced_job(seed);
        let (chrome_b, metrics_b, n_b) = traced_job(seed);
        assert!(n_a > 0, "seed={seed}: a traced run must emit events");
        assert_eq!(n_a, n_b, "seed={seed}: event counts diverged");
        assert_eq!(
            chrome_a, chrome_b,
            "seed={seed}: Chrome trace export is nondeterministic"
        );
        assert_eq!(
            metrics_a, metrics_b,
            "seed={seed}: metrics snapshot is nondeterministic"
        );
    }
}

#[test]
fn different_seeds_actually_diverge() {
    // Guards the identity test against vacuous passes (e.g. a recorder
    // that stopped recording would make every export trivially equal).
    let (chrome_a, _, _) = traced_job(42);
    let (chrome_b, _, _) = traced_job(43);
    assert_ne!(
        chrome_a, chrome_b,
        "different seeds should produce different traces"
    );
}
