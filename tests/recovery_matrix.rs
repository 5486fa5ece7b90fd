//! Exhaustive recovery drills across cluster shapes, capture modes, and
//! failure points — the fault-tolerance contract of the paper, tested
//! byte-for-byte.

use std::rc::Rc;

use dvdc::placement::GroupPlacement;
use dvdc::protocol::{
    run_round_with_faults, CheckpointProtocol, CodeKind, DvdcProtocol, FirstShotProtocol,
    PhasedOutcome, RebuildMode, RebuildPhase, RebuildStep, RecoverError, RoundPhase, RoundStep,
};
use dvdc_checkpoint::strategy::Mode;
use dvdc_faults::{ClusterFaultPlan, DetectorConfig, NodeFault, PlanCursor};
use dvdc_observe::audit::InvariantAuditor;
use dvdc_observe::{Event, Fanout, RecorderHandle, SyncRingRecorder};
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::cluster::{Cluster, ClusterBuilder};
use dvdc_vcluster::ids::NodeId;
use dvdc_vcluster::topology::RackId;

/// Attaches the invariant auditor to a protocol; the returned guard
/// asserts a violation-free event stream when the drill's scope ends
/// (skipped if the drill is already panicking, to keep the original
/// assertion message on top).
fn audited(p: DvdcProtocol) -> (DvdcProtocol, AuditGuard) {
    let audit = Rc::new(InvariantAuditor::new());
    let p = p.with_recorder(RecorderHandle::new(audit.clone()));
    (p, AuditGuard(audit))
}

struct AuditGuard(Rc<InvariantAuditor>);

impl Drop for AuditGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.0.assert_clean();
            assert!(self.0.events_seen() > 0, "auditor saw no events");
        }
    }
}

fn build(nodes: usize, vms: usize) -> Cluster {
    ClusterBuilder::new()
        .physical_nodes(nodes)
        .vms_per_node(vms)
        .vm_memory(8, 32)
        .writes_per_sec(200.0)
        .build(nodes as u64 * 31 + vms as u64)
}

fn snapshots(c: &Cluster) -> Vec<Vec<u8>> {
    c.vm_ids()
        .iter()
        .map(|&v| c.vm(v).memory().snapshot())
        .collect()
}

fn assert_state(c: &Cluster, want: &[Vec<u8>], ctx: &str) {
    for (i, vm) in c.vm_ids().into_iter().enumerate() {
        assert_eq!(c.vm(vm).memory().snapshot(), want[i], "{ctx}: vm{i}");
    }
}

#[test]
fn dvdc_matrix_shapes_modes_victims() {
    for (nodes, vms, k) in [(4usize, 3usize, 3usize), (5, 4, 4), (6, 2, 3), (8, 2, 4)] {
        for mode in [Mode::Full, Mode::Incremental, Mode::Forked] {
            for victim in 0..nodes {
                let mut c = build(nodes, vms);
                let placement = GroupPlacement::orthogonal(&c, k)
                    .unwrap_or_else(|e| panic!("{nodes}x{vms} k={k}: {e}"));
                let (mut p, _audit) = audited(DvdcProtocol::with_options(
                    placement,
                    mode,
                    true,
                    Duration::from_millis(40.0),
                ));
                // Two rounds with guest activity in between, so modes
                // actually diverge in payload.
                let hub = RngHub::new(victim as u64);
                p.run_round(&mut c).unwrap();
                c.run_all(Duration::from_secs(0.5), |vm| {
                    hub.stream_indexed("w", vm.index() as u64)
                });
                p.run_round(&mut c).unwrap();
                let want = snapshots(&c);

                // More progress past the commit, then the crash.
                c.run_all(Duration::from_secs(0.5), |vm| {
                    hub.stream_indexed("w2", vm.index() as u64)
                });
                c.fail_node(NodeId(victim));
                p.recover(&mut c, NodeId(victim)).unwrap_or_else(|e| {
                    panic!("{nodes}x{vms} k={k} mode={mode:?} victim={victim}: {e}")
                });
                assert_state(
                    &c,
                    &want,
                    &format!("{nodes}x{vms} k={k} mode={mode:?} victim={victim}"),
                );
            }
        }
    }
}

#[test]
fn dvdc_failure_mid_progress_rolls_back_cleanly() {
    // Failure strikes when the current round's captures never happened —
    // the committed epoch is the recovery point, and dirty progress on
    // survivors is discarded too (global consistency).
    let mut c = build(4, 3);
    let (mut p, _audit) = audited(DvdcProtocol::new(
        GroupPlacement::orthogonal(&c, 3).unwrap(),
    ));
    p.run_round(&mut c).unwrap();
    let want = snapshots(&c);
    let hub = RngHub::new(3);
    c.run_all(Duration::from_secs(2.0), |vm| {
        hub.stream_indexed("w", vm.index() as u64)
    });
    c.fail_node(NodeId(1));
    p.recover(&mut c, NodeId(1)).unwrap();
    assert_state(&c, &want, "mid-progress rollback");
}

#[test]
fn dvdc_incremental_rounds_then_failure_then_more_rounds() {
    // The incremental transport in steady state: several delta-parity
    // rounds, a crash, byte-exact recovery, and then the protocol must
    // keep working (first post-recovery round falls back to a full
    // re-encode, later rounds go incremental again).
    for m in [1usize, 2] {
        let mut c = build(6, 2);
        let placement = GroupPlacement::orthogonal_with_parity(&c, 3, m).unwrap();
        let (mut p, _audit) = audited(DvdcProtocol::with_options(
            placement,
            Mode::Incremental,
            true,
            Duration::from_millis(40.0),
        ));
        let hub = RngHub::new(7 + m as u64);
        p.run_round(&mut c).unwrap();
        for round in 0..4u64 {
            c.run_all(Duration::from_secs(0.3), |vm| {
                hub.subhub("r", round)
                    .stream_indexed("vm", vm.index() as u64)
            });
            let r = p.run_round(&mut c).unwrap();
            // Steady state charges parity work by dirty bytes: every
            // payload byte lands in the m parity blocks of its group.
            assert_eq!(
                r.parity_update_bytes,
                r.payload_bytes * m,
                "m={m} round={round}"
            );
        }
        let want = snapshots(&c);

        // Crash mid-interval: progress since the commit is discarded.
        c.run_all(Duration::from_secs(0.4), |vm| {
            hub.stream_indexed("lost", vm.index() as u64)
        });
        c.fail_node(NodeId(2));
        p.recover(&mut c, NodeId(2)).unwrap();
        assert_state(&c, &want, &format!("m={m} post-recovery"));

        // Recovery invalidated the delta base: full re-encode once…
        let r = p.run_round(&mut c).unwrap();
        assert_eq!(
            r.parity_update_bytes, r.redundancy_bytes,
            "m={m} re-encode round"
        );
        // …then the incremental transport resumes, and a second failure
        // still recovers byte-exactly.
        c.run_all(Duration::from_secs(0.3), |vm| {
            hub.stream_indexed("again", vm.index() as u64)
        });
        let r2 = p.run_round(&mut c).unwrap();
        assert_eq!(
            r2.parity_update_bytes,
            r2.payload_bytes * m,
            "m={m} resumed"
        );
        let want2 = snapshots(&c);
        c.fail_node(NodeId(4));
        p.recover(&mut c, NodeId(4)).unwrap();
        assert_state(&c, &want2, &format!("m={m} second recovery"));
    }
}

#[test]
fn default_double_parity_survives_all_node_pairs() {
    // m = 2 now routes through the paper-cited RDP by default; every
    // node pair must still be recoverable.
    let nodes = 6;
    for a in 0..nodes {
        for b in (a + 1)..nodes {
            let mut c = build(nodes, 2);
            let placement = GroupPlacement::orthogonal_with_parity(&c, 3, 2).unwrap();
            let (mut p, _audit) = audited(DvdcProtocol::with_options(
                placement,
                Mode::Incremental,
                true,
                Duration::from_millis(40.0),
            ));
            p.run_round(&mut c).unwrap();
            let want = snapshots(&c);
            c.fail_node(NodeId(a));
            c.fail_node(NodeId(b));
            p.recover(&mut c, NodeId(a))
                .unwrap_or_else(|e| panic!("pair ({a},{b}) first: {e}"));
            p.recover(&mut c, NodeId(b))
                .unwrap_or_else(|e| panic!("pair ({a},{b}) second: {e}"));
            assert_state(&c, &want, &format!("pair ({a},{b})"));
        }
    }
}

/// The four code families the mid-round matrix sweeps: label, kind, k,
/// m, and a cluster shape whose placement supports them. Image length is
/// 8 × 32 = 256 bytes, compatible with every family's row constraint
/// (RDP-exact k=4 → p=5, rows=4; zero-padded RDP k=3 → p=5, rows=4).
const MID_ROUND_FAMILIES: [(&str, CodeKind, usize, usize, usize, usize); 4] = [
    ("xor", CodeKind::Xor, 3, 1, 6, 2),
    ("rdp-exact", CodeKind::RdpExact, 4, 2, 8, 2),
    ("rdp-padded", CodeKind::Rdp, 3, 2, 6, 2),
    ("rs", CodeKind::ReedSolomon, 3, 2, 6, 2),
];

/// Mid-round failure matrix: (phase × code family × victim role). A node
/// dies after the round reached each phase — captures staged, transfers
/// in flight, parity partially folded, commit acks collecting — and
/// recovery must restore the last *committed* epoch byte-exactly, never
/// a torn mix. The victim is either a data-holder of group 0 or its
/// first parity holder.
#[test]
fn dvdc_mid_round_matrix_phase_family_victim() {
    let phases = [
        RoundPhase::Capture,
        RoundPhase::Transfer,
        RoundPhase::Fold,
        RoundPhase::Commit,
    ];
    for (family, kind, k, m, nodes, vms) in MID_ROUND_FAMILIES {
        for phase in phases {
            for parity_victim in [false, true] {
                let mut c = build(nodes, vms);
                let placement = GroupPlacement::orthogonal_with_parity(&c, k, m)
                    .unwrap_or_else(|e| panic!("{family}: {e}"));
                let group0 = placement.groups()[0].clone();
                let victim = if parity_victim {
                    group0.parity_nodes[0]
                } else {
                    c.node_of(group0.data[0])
                };
                let (mut p, _audit) = audited(
                    DvdcProtocol::with_options(
                        placement,
                        Mode::Incremental,
                        true,
                        Duration::from_millis(40.0),
                    )
                    .with_code(kind),
                );
                let ctx = format!(
                    "family={family} phase={phase:?} victim={victim} parity_victim={parity_victim}"
                );
                let hub = RngHub::new(97 * k as u64 + m as u64);

                // Two committed rounds so the interrupted one runs the
                // steady-state incremental transport, not the first-round
                // full encode.
                p.run_round(&mut c).unwrap();
                c.run_all(Duration::from_secs(0.4), |vm| {
                    hub.stream_indexed("w1", vm.index() as u64)
                });
                p.run_round(&mut c).unwrap();
                let want = snapshots(&c);

                // Uncommitted guest progress the rollback must discard.
                c.run_all(Duration::from_secs(0.4), |vm| {
                    hub.stream_indexed("w2", vm.index() as u64)
                });

                let mut round = p.begin_round(&c).unwrap();
                while round.phase() < phase {
                    match p
                        .step_round(&mut c, &mut round)
                        .unwrap_or_else(|e| panic!("{ctx}: step failed: {e}"))
                    {
                        RoundStep::Progress { .. } => {}
                        RoundStep::Committed(_) => {
                            panic!("{ctx}: round committed before reaching {phase:?}")
                        }
                    }
                }
                assert_eq!(round.phase(), phase, "{ctx}");

                c.fail_node(victim);
                assert!(
                    p.round_involves(&c, &round, victim),
                    "{ctx}: chosen victim must hold round state"
                );
                p.abort_round(round);
                let report = p
                    .recover(&mut c, victim)
                    .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
                assert_eq!(report.rolled_back_to, Some(1), "{ctx}");
                assert_state(&c, &want, &ctx);

                // The epoch number of the aborted round is reused and the
                // cluster keeps protecting state: commit one more round
                // and survive one more failure.
                c.run_all(Duration::from_secs(0.3), |vm| {
                    hub.stream_indexed("w3", vm.index() as u64)
                });
                let r = p.run_round(&mut c).unwrap();
                assert_eq!(r.epoch, 2, "{ctx}: aborted epoch must be reused");
                let want2 = snapshots(&c);
                c.fail_node(victim);
                p.recover(&mut c, victim)
                    .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
                assert_state(&c, &want2, &format!("{ctx} second recovery"));
            }
        }
    }
}

/// Failure in the instant *after* the promote: the new epoch is
/// committed, so recovery restores it — not the previous one.
#[test]
fn dvdc_failure_right_after_commit_recovers_new_epoch() {
    for (family, kind, k, m, nodes, vms) in MID_ROUND_FAMILIES {
        for parity_victim in [false, true] {
            let mut c = build(nodes, vms);
            let placement = GroupPlacement::orthogonal_with_parity(&c, k, m).unwrap();
            let group0 = placement.groups()[0].clone();
            let victim = if parity_victim {
                group0.parity_nodes[0]
            } else {
                c.node_of(group0.data[0])
            };
            let (mut p, _audit) = audited(
                DvdcProtocol::with_options(
                    placement,
                    Mode::Incremental,
                    true,
                    Duration::from_millis(40.0),
                )
                .with_code(kind),
            );
            let ctx = format!("family={family} victim={victim} parity_victim={parity_victim}");
            let hub = RngHub::new(5 + m as u64);

            p.run_round(&mut c).unwrap();
            c.run_all(Duration::from_secs(0.4), |vm| {
                hub.stream_indexed("w", vm.index() as u64)
            });
            let mut round = p.begin_round(&c).unwrap();
            loop {
                match p.step_round(&mut c, &mut round).unwrap() {
                    RoundStep::Progress { .. } => {}
                    RoundStep::Committed(report) => {
                        assert_eq!(report.epoch, 1, "{ctx}");
                        break;
                    }
                }
            }
            let want = snapshots(&c);

            c.fail_node(victim);
            let report = p
                .recover(&mut c, victim)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(
                report.rolled_back_to,
                Some(1),
                "{ctx}: promote preceded the failure"
            );
            assert_state(&c, &want, &ctx);
        }
    }
}

/// Second-failure-during-rebuild matrix: (rebuild phase × code family ×
/// second-victim role). The first victim's phased rebuild is interrupted
/// at each pipeline phase by a second crash striking a data-holder or a
/// parity-holder of the same group. The pipeline mutates nothing before
/// its readmit step, so the canonical response — cancel the rebuild and
/// restart it against the enlarged down set — must recover byte-exactly
/// whenever redundancy remains (m = 2), and must surface honest
/// [`RecoverError::DataLoss`] as a value (never a panic) when it does
/// not (m = 1).
#[test]
fn dvdc_second_failure_during_rebuild_matrix() {
    let phases = [
        RebuildPhase::FetchSurvivors,
        RebuildPhase::Decode,
        RebuildPhase::Place,
        RebuildPhase::Readmit,
    ];
    for (family, kind, k, m, nodes, vms) in MID_ROUND_FAMILIES {
        for phase in phases {
            for second_parity in [false, true] {
                let mut c = build(nodes, vms);
                let placement = GroupPlacement::orthogonal_with_parity(&c, k, m)
                    .unwrap_or_else(|e| panic!("{family}: {e}"));
                let group0 = placement.groups()[0].clone();
                let first = c.node_of(group0.data[0]);
                let second = if second_parity {
                    group0.parity_nodes[0]
                } else {
                    c.node_of(group0.data[1])
                };
                assert_ne!(first, second, "{family}: victims must differ");
                let (mut p, _audit) = audited(
                    DvdcProtocol::with_options(
                        placement,
                        Mode::Incremental,
                        true,
                        Duration::from_millis(40.0),
                    )
                    .with_code(kind),
                );
                let ctx = format!(
                    "family={family} phase={phase:?} second={second} parity={second_parity}"
                );
                let hub = RngHub::new(131 * k as u64 + m as u64);

                p.run_round(&mut c).unwrap();
                c.run_all(Duration::from_secs(0.4), |vm| {
                    hub.stream_indexed("w1", vm.index() as u64)
                });
                p.run_round(&mut c).unwrap();
                let want = snapshots(&c);

                c.fail_node(first);
                let mut rebuild = p.begin_rebuild(&c, first, RebuildMode::InPlace).unwrap();
                while rebuild.phase() < phase {
                    match p.step_rebuild(&mut c, &mut rebuild) {
                        Ok(RebuildStep::Progress { .. }) => {}
                        Ok(RebuildStep::Completed(_)) => {
                            panic!("{ctx}: rebuild completed before reaching {phase:?}")
                        }
                        Err(e) => panic!("{ctx}: step failed early: {e}"),
                    }
                }
                assert_eq!(rebuild.phase(), phase, "{ctx}");

                // The cascading failure: a second node of the same group
                // dies with the rebuild mid-flight. Nothing has been
                // mutated, so cancelling is a pure drop.
                c.fail_node(second);
                p.abort_rebuild(rebuild);

                // Restart against the enlarged down set.
                let restarted = p.begin_rebuild(&c, first, RebuildMode::InPlace);
                if m >= 2 {
                    let mut rebuild = restarted.unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                    let report = loop {
                        match p.step_rebuild(&mut c, &mut rebuild) {
                            Ok(RebuildStep::Progress { .. }) => {}
                            Ok(RebuildStep::Completed(r)) => break r,
                            Err(e) => panic!("{ctx}: m=2 restart must recover: {e}"),
                        }
                    };
                    assert!(
                        report.repair_time > Duration::ZERO,
                        "{ctx}: rebuild time must elapse on the simulated clock"
                    );
                    p.recover(&mut c, second)
                        .unwrap_or_else(|e| panic!("{ctx}: second victim: {e}"));
                    assert_state(&c, &want, &ctx);
                } else {
                    // m = 1: two failures in one group exceed tolerance.
                    // Honest data loss as a value — never a panic.
                    let outcome = (|| -> Result<(), RecoverError> {
                        let mut rebuild = restarted?;
                        loop {
                            match p.step_rebuild(&mut c, &mut rebuild) {
                                Ok(RebuildStep::Progress { .. }) => {}
                                Ok(RebuildStep::Completed(_)) => return Ok(()),
                                Err(e) => {
                                    // Dispose of the carcass so the event
                                    // stream terminates the rebuild span.
                                    p.abort_rebuild(rebuild);
                                    return Err(e);
                                }
                            }
                        }
                    })();
                    match outcome {
                        Err(RecoverError::DataLoss { node, .. }) => {
                            assert_eq!(node, first, "{ctx}: loss names the rebuild victim");
                        }
                        other => panic!("{ctx}: expected DataLoss, got {other:?}"),
                    }
                }
            }
        }
    }
}

/// Silent-corruption scrub matrix across the code families: rot committed
/// blocks on a data-holder and on a parity-holder, and the scrub pass
/// must find every one (checksums), repair them all from group
/// redundancy, and leave the cluster byte-exactly restorable.
#[test]
fn dvdc_scrub_detects_and_repairs_all_injected_corruption() {
    for (family, kind, k, m, nodes, vms) in MID_ROUND_FAMILIES {
        for parity_victim in [false, true] {
            let mut c = build(nodes, vms);
            let placement = GroupPlacement::orthogonal_with_parity(&c, k, m)
                .unwrap_or_else(|e| panic!("{family}: {e}"));
            let group0 = placement.groups()[0].clone();
            let target = if parity_victim {
                group0.parity_nodes[0]
            } else {
                c.node_of(group0.data[0])
            };
            let (mut p, _audit) = audited(
                DvdcProtocol::with_options(
                    placement,
                    Mode::Incremental,
                    true,
                    Duration::from_millis(40.0),
                )
                .with_code(kind),
            );
            let ctx = format!("family={family} target={target} parity_victim={parity_victim}");
            let hub = RngHub::new(17 * k as u64 + m as u64);

            p.run_round(&mut c).unwrap();
            c.run_all(Duration::from_secs(0.4), |vm| {
                hub.stream_indexed("w", vm.index() as u64)
            });
            p.run_round(&mut c).unwrap();
            let want = snapshots(&c);

            // Silently rot stored blocks on the target node; the cluster
            // notices nothing until checksums are checked.
            let hit = p.apply_corruption(&c, target, 3, 0xDEAD_BEEF ^ k as u64);
            assert!(hit > 0, "{ctx}: corruption must land");

            let scrub = p.scrub(&mut c).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert!(
                scrub.corrupt_found > 0,
                "{ctx}: scrub must detect the injected rot"
            );
            assert_eq!(
                scrub.corrupt_found, scrub.repaired,
                "{ctx}: every rotten block must be repaired from parity"
            );

            // A second scrub finds a clean store…
            let again = p.scrub(&mut c).unwrap();
            assert_eq!(again.corrupt_found, 0, "{ctx}: scrub must converge");
            // …and recovery after the repair is still byte-exact.
            c.fail_node(target);
            p.recover(&mut c, target)
                .unwrap_or_else(|e| panic!("{ctx}: post-scrub recovery: {e}"));
            assert_state(&c, &want, &ctx);
        }
    }
}

#[test]
fn first_shot_matrix() {
    for (nodes, vms) in [(3usize, 1usize), (5, 1), (4, 3), (5, 2)] {
        let parity = NodeId(nodes - 1);
        for victim in 0..nodes {
            let mut c = build(nodes, vms);
            let mut p = FirstShotProtocol::new(parity);
            p.run_round(&mut c).unwrap();
            let want = snapshots(&c);
            c.fail_node(NodeId(victim));
            p.recover(&mut c, NodeId(victim))
                .unwrap_or_else(|e| panic!("{nodes}x{vms} victim={victim}: {e}"));
            assert_state(&c, &want, &format!("{nodes}x{vms} victim={victim}"));
        }
    }
}

#[test]
fn recovery_after_migration_keeps_working_when_orthogonal() {
    // Migrate a VM to a node that keeps its group orthogonal, re-run a
    // round, then fail its *new* host: the checkpoint now lives there.
    let mut c = build(6, 2);
    let placement = GroupPlacement::orthogonal(&c, 3).unwrap();
    let vm = placement.groups()[0].data[0];
    let group = placement.group_of(vm).clone();
    let forbidden: Vec<NodeId> = group
        .data
        .iter()
        .map(|&m| c.node_of(m))
        .chain(group.parity_nodes.iter().copied())
        .collect();
    let dest = c
        .node_ids()
        .into_iter()
        .find(|n| !forbidden.contains(n))
        .expect("destination");
    c.migrate_vm(vm, dest);
    placement.validate(&c).expect("still orthogonal");

    let (mut p, _audit) = audited(DvdcProtocol::new(placement));
    p.run_round(&mut c).unwrap();
    let want = snapshots(&c);
    c.fail_node(dest);
    p.recover(&mut c, dest).unwrap();
    assert_state(&c, &want, "post-migration recovery");
}

#[test]
fn non_orthogonal_migration_is_detected_before_it_bites() {
    // Migrating a VM onto a group peer's node breaks the guarantee; the
    // placement validator is the guard rail that must catch it.
    let mut c = build(4, 3);
    let placement = GroupPlacement::orthogonal(&c, 3).unwrap();
    let group = placement.groups()[0].clone();
    let (a, b) = (group.data[0], group.data[1]);
    c.migrate_vm(a, c.node_of(b));
    assert!(placement.validate(&c).is_err());
}

/// Rack-victim axis: a whole-rack kill mid-round on a rack-aware
/// placement. Every node of the rack must draw its **own** `Confirmed`
/// verdict within the detector's worst-case window of the injection (the
/// first confirmation aborts the round, but the detector still owes the
/// other victims their verdicts), recovery must restore the committed
/// epoch byte-exactly for every rack choice, and fence epochs must never
/// move backwards across the batch.
#[test]
fn rack_kill_matrix_confirms_every_rack_node_and_recovers() {
    let racks = 4usize;
    let nodes_per_rack = 2usize;
    for rack in 0..racks {
        let ctx = format!("rack={rack}");
        let mut c = ClusterBuilder::new()
            .physical_nodes(racks * nodes_per_rack)
            .vms_per_node(3)
            .vm_memory(8, 32)
            .writes_per_sec(200.0)
            .racks(nodes_per_rack)
            .build(31 + rack as u64);
        let placement = GroupPlacement::orthogonal_with_parity(&c, 3, 1).unwrap();
        assert!(placement.is_rack_orthogonal(&c), "{ctx}");
        let audit = Rc::new(InvariantAuditor::new());
        let trace = Rc::new(SyncRingRecorder::unbounded());
        let mut p = DvdcProtocol::new(placement).with_recorder(RecorderHandle::new(Rc::new(
            Fanout::new(vec![
                RecorderHandle::new(trace.clone()),
                RecorderHandle::new(audit.clone()),
            ]),
        )));
        p.run_round(&mut c).unwrap();
        let want = snapshots(&c);
        let epochs_before: Vec<u64> = c
            .node_ids()
            .iter()
            .map(|&n| p.fences().epoch_of(n))
            .collect();

        let inject_at = SimTime::from_secs(1e-7);
        let plan = ClusterFaultPlan::new(vec![NodeFault::rack_failure(
            rack,
            inject_at,
            Duration::ZERO,
        )]);
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, _end) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        let victims = c.topology().nodes_in_rack(RackId(rack));
        assert_eq!(victims.len(), nodes_per_rack, "{ctx}");
        match outcome {
            PhasedOutcome::RolledBack {
                victim,
                recoveries,
                data_loss,
                detection,
                ..
            } => {
                assert!(victims.contains(&victim), "{ctx}: victim {victim}");
                assert_eq!(
                    detection.confirmations,
                    victims.len() as u64,
                    "{ctx}: every rack node draws its own verdict"
                );
                assert!(data_loss.is_empty(), "{ctx}: rack-aware m=1 survives");
                assert_eq!(recoveries.len(), victims.len(), "{ctx}");
            }
            other => panic!("{ctx}: expected rollback, got {other:?}"),
        }

        // Each victim's Confirmed event lands inside the worst-case
        // detection window of the (shared) injection instant, with a
        // small slack for heartbeat phase.
        let window = DetectorConfig::default().worst_case_detection() + Duration::from_millis(5.0);
        for v in &victims {
            let confirmed_at = trace
                .events()
                .iter()
                .find_map(|e| match e.event {
                    Event::Confirmed { node } if node == v.index() => Some(e.at),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{ctx}: node {v} never confirmed"));
            assert!(
                confirmed_at <= inject_at + window,
                "{ctx}: node {v} confirmed at {confirmed_at}, window closes at {}",
                inject_at + window
            );
        }

        assert_state(&c, &want, &format!("{ctx} post-rack-kill"));
        assert!(c.node_ids().iter().all(|&n| c.is_up(n)), "{ctx}");
        // Fence epochs are monotone across the whole batch: recovery may
        // rotate them forward, never backwards.
        for (i, n) in c.node_ids().into_iter().enumerate() {
            assert!(
                p.fences().epoch_of(n) >= epochs_before[i],
                "{ctx}: node {n} fence epoch went backwards"
            );
        }
        audit.assert_clean();
    }
}

/// Hierarchical link asymmetry: the same node rebuild on the same
/// 2-DC topology takes measurably longer when the fabric charges
/// cross-DC fetches at WAN rates than when every link is the flat
/// datacenter network. With k+m = 4 rack-distinct members over 3 racks
/// per DC, every group is forced to span both DCs, so a rebuild always
/// pulls at least one survivor shard across the WAN tier.
#[test]
fn tiered_fabric_makes_cross_dc_rebuild_measurably_slower() {
    use dvdc_vcluster::fabric::{FabricModel, NetworkModel, TieredNetwork};

    let repair = |fabric: FabricModel| {
        let mut c = ClusterBuilder::new()
            .physical_nodes(12)
            .vms_per_node(2)
            .vm_memory(8, 32)
            .writes_per_sec(200.0)
            .topology(dvdc_vcluster::cluster::TopologySpec::UniformRacks {
                nodes_per_rack: 2,
                racks_per_dc: 3,
            })
            .fabric(fabric)
            .build(77);
        let placement = GroupPlacement::orthogonal_with_parity(&c, 3, 1).unwrap();
        let (mut p, _audit) = audited(DvdcProtocol::new(placement));
        p.run_round(&mut c).unwrap();
        let want = snapshots(&c);
        let victim = NodeId(0);
        c.fail_node(victim);
        let report = p.recover_typed(&mut c, victim).unwrap();
        assert_state(&c, &want, "rebuild restores bytes regardless of fabric");
        report.repair_time
    };

    let flat = repair(FabricModel::default());
    let flat_tiered =
        repair(FabricModel::default().with_tiers(TieredNetwork::flat(NetworkModel::default())));
    let wan_tiered = repair(FabricModel::default().with_tiers(TieredNetwork::datacenter()));

    assert_eq!(
        flat, flat_tiered,
        "uniform tiers must charge exactly like the untiered fabric"
    );
    assert!(
        wan_tiered > flat * 1.5,
        "cross-DC fetches at WAN rates must dominate the rebuild window: \
         tiered {wan_tiered} vs flat {flat}"
    );
}
