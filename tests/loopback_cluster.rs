//! Five `NodeCore` replicas over the deterministic `SimNet` loopback:
//! the distributed DVDC protocol end to end, without an oracle and
//! without a global state machine.
//!
//! This is the sim twin of `crates/node/tests/process_cluster.rs` — the
//! *same* per-node state machines the `dvdc-node` daemon runs over TCP,
//! driven here over an in-process transport so the whole
//! kill → detect → fence → rebuild → resync → readmit arc is tier-1
//! testable in milliseconds of wall time.

use std::collections::BTreeSet;

use dvdc::protocol::node_core::{fnv64, Action, ClusterSpec, Msg, NodeCore, Note, CTL};
use dvdc::protocol::transport::{SimNet, Transport};
use dvdc_faults::detector::DetectorConfig;
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::ids::NodeId;

/// Deterministic driver: a cluster of `NodeCore`s over one `SimNet`.
struct Sim {
    spec: ClusterSpec,
    net: SimNet,
    nodes: Vec<Option<NodeCore>>,
    notes: Vec<(NodeId, Note)>,
    now: SimTime,
    tick: Duration,
    hold: Option<HeldRoundBegin>,
}

/// A coordinator `RoundBegin` held back from one parity holder until
/// every data source's `Payload` for that round has reached the holder —
/// the order real TCP produces when the payloads' connections win the
/// race, which `SimNet`'s per-destination FIFO never does on its own.
struct HeldRoundBegin {
    holder: NodeId,
    /// The intercepted `(sender, RoundBegin)`, until released.
    held: Option<(NodeId, Msg)>,
    /// Sources whose payload for the held round reached the holder.
    arrived: BTreeSet<NodeId>,
    released: bool,
}

impl Sim {
    fn new(spec: ClusterSpec) -> Self {
        let nodes = (0..spec.total())
            .map(|i| Some(NodeCore::new(NodeId(i), spec.clone())))
            .collect();
        Sim {
            net: SimNet::new(Duration::from_millis(1.0)),
            nodes,
            notes: Vec::new(),
            now: SimTime::ZERO,
            tick: Duration::from_millis(1.0),
            spec,
            hold: None,
        }
    }

    fn node(&self, id: usize) -> &NodeCore {
        self.nodes[id].as_ref().expect("node is live")
    }

    fn apply(&mut self, id: NodeId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    if let Some(hold) = self.hold.as_mut() {
                        if to == hold.holder
                            && !hold.released
                            && matches!(msg, Msg::RoundBegin { .. })
                        {
                            hold.held = Some((id, msg));
                            continue;
                        }
                    }
                    // Sends to dead peers fail typed — expected during the
                    // detection window, never a panic.
                    let _ = self.net.send(id, to, msg);
                }
                Action::Note(note) => self.notes.push((id, note)),
            }
        }
    }

    /// One time step: deliver due messages, then tick every live node.
    fn step(&mut self) {
        self.now += self.tick;
        self.net.advance(self.now);
        for i in 0..self.nodes.len() {
            let id = NodeId(i);
            if self.nodes[i].is_none() {
                continue;
            }
            let due = self.net.take_due(id, self.now);
            for (from, msg) in due {
                let Some(node) = self.nodes[i].as_mut() else {
                    break;
                };
                if let (Some(hold), Msg::Payload { source, .. }) = (self.hold.as_mut(), &msg) {
                    if hold.holder == id && hold.held.is_some() {
                        hold.arrived.insert(*source);
                    }
                }
                let actions = node.on_message(from, msg, self.now);
                self.apply(id, actions);
            }
            self.release_held_round_begin();
            if let Some(node) = self.nodes[i].as_mut() {
                let actions = node.on_tick(self.now);
                self.apply(id, actions);
            }
        }
    }

    /// Sends the held `RoundBegin` on once every source it names has
    /// delivered its payload to the holder.
    fn release_held_round_begin(&mut self) {
        let Some(hold) = self.hold.as_mut() else {
            return;
        };
        let ready = match &hold.held {
            Some((_, Msg::RoundBegin { sources, .. })) => {
                sources.iter().all(|s| hold.arrived.contains(s))
            }
            _ => false,
        };
        if ready {
            let (from, msg) = hold.held.take().expect("held message");
            hold.released = true;
            let _ = self.net.send(from, hold.holder, msg);
        }
    }

    /// Runs until `pred` holds, failing the test after `max_ms`.
    fn run_until(&mut self, max_ms: f64, what: &str, mut pred: impl FnMut(&Sim) -> bool) {
        let deadline = self.now + Duration::from_millis(max_ms);
        while self.now < deadline {
            self.step();
            if pred(self) {
                return;
            }
        }
        let tail = &self.notes[self.notes.len().saturating_sub(20)..];
        panic!("timed out after {max_ms} ms waiting for: {what}\nlast notes: {tail:#?}");
    }

    /// Injects a ctl-plane request at `target`; the reply lands in the
    /// CTL inbox (drain with `ctl_replies`).
    fn ctl(&mut self, target: usize, msg: Msg) {
        let Some(node) = self.nodes[target].as_mut() else {
            panic!("ctl target node{target} is dead");
        };
        let actions = node.on_message(CTL, msg, self.now);
        self.apply(NodeId(target), actions);
    }

    /// Drains replies addressed to the ctl pseudo-node.
    fn ctl_replies(&mut self) -> Vec<Msg> {
        self.net
            .take_due(CTL, self.now)
            .into_iter()
            .map(|(_, m)| m)
            .collect()
    }

    /// SIGKILL semantics: the process is gone, its queued and in-flight
    /// traffic with it.
    fn kill(&mut self, id: usize) {
        self.net.kill(NodeId(id));
        self.nodes[id] = None;
    }

    /// Restart at the same address with **empty** state — diskless.
    fn revive(&mut self, id: usize) {
        self.net.revive(NodeId(id));
        self.nodes[id] = Some(NodeCore::new(NodeId(id), self.spec.clone()));
    }

    fn fully_meshed(&self) -> bool {
        self.nodes.iter().flatten().all(|n| {
            (0..self.spec.total())
                .map(NodeId)
                .filter(|p| *p != n.id())
                .all(|p| self.nodes[p.index()].is_none() || n.has_session(p))
        })
    }
}

fn spec_k3_m2() -> ClusterSpec {
    ClusterSpec {
        cluster_id: 42,
        data_nodes: 3,
        parity_nodes: 2,
        image_len: 512,
        detector: DetectorConfig {
            heartbeat_interval: Duration::from_millis(10.0),
            timeout: Duration::from_millis(35.0),
            confirm_grace: Duration::from_millis(25.0),
        },
        round_timeout: Duration::from_millis(200.0),
        rebuild_timeout: Duration::from_millis(200.0),
        capture_delay: Duration::from_millis(20.0),
    }
}

/// Runs one ctl-requested checkpoint to its typed outcome.
fn run_checkpoint(sim: &mut Sim, coordinator: usize, max_ms: f64) -> Result<u64, String> {
    sim.ctl(coordinator, Msg::CheckpointReq);
    wait_ctl_outcome(sim, max_ms)
}

/// Waits for the next CheckpointDone/CheckpointFailed ctl reply.
fn wait_ctl_outcome(sim: &mut Sim, max_ms: f64) -> Result<u64, String> {
    let deadline = sim.now + Duration::from_millis(max_ms);
    while sim.now < deadline {
        sim.step();
        for m in sim.ctl_replies() {
            match m {
                Msg::CheckpointDone { epoch } => return Ok(epoch),
                Msg::CheckpointFailed { reason } => return Err(reason),
                _ => {}
            }
        }
    }
    panic!("checkpoint neither committed nor failed in {max_ms} ms");
}

#[test]
fn cluster_survives_sigkill_mid_round_and_victim_rejoins() {
    let mut sim = Sim::new(spec_k3_m2());
    sim.run_until(500.0, "full mesh", |s| s.fully_meshed());

    // Three committed rounds; every replica agrees on the epoch.
    for want in 1..=3u64 {
        let epoch = run_checkpoint(&mut sim, 0, 1000.0).expect("healthy round commits");
        assert_eq!(epoch, want);
    }
    for i in 0..5 {
        assert_eq!(sim.node(i).status().committed_epoch, 3, "node{i}");
    }

    // Record the victim's pre-kill committed state (epoch 3).
    let victim = 2;
    let (pre_epoch, pre_image) = {
        let (e, img) = sim.node(victim).committed().expect("victim committed");
        (e, img.to_vec())
    };
    assert_eq!(pre_epoch, 3);
    let pre_digest = fnv64(&pre_image);

    // Open round 4 and SIGKILL the victim inside its capture-delay
    // window: its epoch-4 payload never ships, so the round must die.
    sim.ctl(0, Msg::CheckpointReq);
    for _ in 0..5 {
        sim.step();
    }
    sim.kill(victim);

    // The open round fails typed — no panic, no hang.
    let err = wait_ctl_outcome(&mut sim, 2000.0).expect_err("mid-round kill aborts the round");
    assert!(
        err.contains("confirmed failed") || err.contains("timed out"),
        "unexpected abort reason: {err}"
    );

    // Survivors detect via missed heartbeats: Suspected then Confirmed.
    sim.run_until(2000.0, "coordinator confirms the victim", |s| {
        s.node(0).status().confirmed.contains(&NodeId(victim))
    });
    assert!(
        sim.notes.iter().any(|(n, note)| *n == NodeId(0)
            && matches!(note, Note::PeerVerdict { node, verdict }
                if *node == NodeId(victim)
                    && *verdict == dvdc_faults::detector::Verdict::Suspected)),
        "a Suspected verdict must precede confirmation"
    );

    // The coordinator fences the victim and rebuilds its block from
    // survivor data + parity — byte-exact against the pre-kill image.
    sim.run_until(2000.0, "victim block in custody", |s| {
        s.node(0).custody_block(NodeId(victim)).is_some()
    });
    let (cust_epoch, cust_bytes) = sim.node(0).custody_block(NodeId(victim)).unwrap();
    assert_eq!(cust_epoch, 3, "rebuild must target the committed epoch");
    assert_eq!(cust_bytes, &pre_image[..], "rebuild must be byte-exact");
    assert!(sim.notes.iter().any(|(_, n)| matches!(
        n,
        Note::RebuildCompleted { victim: v, epoch: 3, digest }
            if *v == NodeId(victim) && *digest == pre_digest
    )));

    // Peers converged on the fence via broadcast.
    for i in [1, 3, 4] {
        assert!(
            sim.notes.iter().any(|(n, note)| *n == NodeId(i)
                && matches!(note, Note::Fenced { node, .. } if *node == NodeId(victim))),
            "node{i} must learn the fence"
        );
    }

    // Degraded rounds commit with custody standing in for the victim.
    let degraded_epoch =
        run_checkpoint(&mut sim, 0, 2000.0).expect("degraded round with custody commits");
    assert!(degraded_epoch >= 4);

    // The victim restarts EMPTY (diskless) at the same address, is
    // rejected at the handshake for its pre-fence epoch, resyncs from
    // custody, and is readmitted at a post-fence epoch.
    sim.revive(victim);
    sim.run_until(3000.0, "victim resynced and readmitted", |s| {
        let v = s.node(victim).status();
        v.committed_epoch == degraded_epoch && v.fence_epoch >= 1
    });
    assert!(
        sim.notes
            .iter()
            .any(|(n, note)| *n == NodeId(victim) && matches!(note, Note::HelloRejected { .. })),
        "the restarted victim must be rejected before resync"
    );
    // Its resynced image is the custody bytes (frozen since epoch 3).
    assert_eq!(
        sim.node(victim).committed().unwrap().1,
        &pre_image[..],
        "resynced state must match the rebuilt block"
    );
    // Custody is dropped on readmission.
    sim.run_until(1000.0, "custody dropped after readmit", |s| {
        s.node(0).custody_block(NodeId(victim)).is_none()
    });

    // Full mesh again, then a full-strength round commits with the
    // victim participating as a live member.
    sim.run_until(2000.0, "mesh restored", |s| s.fully_meshed());
    let final_epoch = run_checkpoint(&mut sim, 0, 2000.0).expect("post-rejoin round commits");
    assert!(final_epoch > degraded_epoch);
    for i in 0..5 {
        assert_eq!(
            sim.node(i).status().committed_epoch,
            final_epoch,
            "node{i} must commit the post-rejoin round"
        );
    }
    // The whole arc ran without a single data-loss event.
    assert!(sim.nodes.iter().flatten().all(|n| !n.saw_data_loss()));
}

#[test]
fn two_failures_with_m2_both_rebuilt() {
    let mut sim = Sim::new(spec_k3_m2());
    sim.run_until(500.0, "full mesh", |s| s.fully_meshed());
    let epoch = run_checkpoint(&mut sim, 0, 1000.0).expect("round 1");
    assert_eq!(epoch, 1);

    let pre1 = sim.node(1).committed().expect("node1 committed").1.to_vec();
    let pre2 = sim.node(2).committed().expect("node2 committed").1.to_vec();

    sim.kill(1);
    sim.kill(2);
    sim.run_until(3000.0, "both victims in custody", |s| {
        let n0 = s.node(0);
        n0.custody_block(NodeId(1)).is_some() && n0.custody_block(NodeId(2)).is_some()
    });
    assert_eq!(sim.node(0).custody_block(NodeId(1)).unwrap().1, &pre1[..]);
    assert_eq!(sim.node(0).custody_block(NodeId(2)).unwrap().1, &pre2[..]);
    assert!(!sim.node(0).saw_data_loss());

    // Degraded round still commits: custody stands in for both victims.
    let epoch = run_checkpoint(&mut sim, 0, 2000.0).expect("degraded round");
    assert!(epoch >= 2);
}

#[test]
fn three_failures_exceed_m2_and_surface_typed_data_loss() {
    let mut sim = Sim::new(spec_k3_m2());
    sim.run_until(500.0, "full mesh", |s| s.fully_meshed());
    run_checkpoint(&mut sim, 0, 1000.0).expect("round 1");

    sim.kill(1);
    sim.kill(2);
    sim.kill(3);
    // Every victim's rebuild must end in a typed DataLoss (never a panic,
    // never an eternal retry loop).
    sim.run_until(5000.0, "typed data loss for all three victims", |s| {
        s.notes
            .iter()
            .filter(|(_, n)| matches!(n, Note::DataLoss { .. }))
            .count()
            >= 3
    });
    assert!(sim.node(0).saw_data_loss());

    // A round cannot start with an unrebuildable member — typed, no hang.
    let err = run_checkpoint(&mut sim, 0, 1000.0).expect_err("round must fail");
    assert!(err.contains("not yet rebuilt"), "got: {err}");
}

#[test]
fn payloads_that_overtake_round_begin_are_held_and_folded() {
    let mut sim = Sim::new(spec_k3_m2());
    sim.run_until(500.0, "full mesh", |s| s.fully_meshed());

    // Parity holder 4 sees every data payload of round 1 before the
    // coordinator's RoundBegin reaches it.
    sim.hold = Some(HeldRoundBegin {
        holder: NodeId(4),
        held: None,
        arrived: BTreeSet::new(),
        released: false,
    });
    let epoch = run_checkpoint(&mut sim, 0, 2000.0).expect("the round commits");
    assert_eq!(epoch, 1);
    let hold = sim.hold.take().expect("hold armed");
    assert!(hold.released, "RoundBegin was released after the payloads");
    assert_eq!(
        hold.arrived.len(),
        3,
        "every data source's payload came first"
    );
    let dropped: Vec<_> = sim
        .notes
        .iter()
        .filter(|(_, n)| matches!(n, Note::PayloadDropped { .. }))
        .collect();
    assert!(dropped.is_empty(), "payloads dropped: {dropped:?}");
    for i in 0..5 {
        assert_eq!(sim.node(i).status().committed_epoch, 1, "node{i}");
    }
}
