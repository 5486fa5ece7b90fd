//! In-process smoke test for the TCP runtime: three `NodeRuntime`s in
//! threads of one test process, talking over real loopback sockets, form
//! a k=2+m=1 group, and a `dvdc-ctl`-style client drives a checkpoint
//! round end to end. The full multi-*process* SIGKILL test lives in the
//! `dvdc-node` crate; this one keeps the runtime honest under plain
//! `cargo test` without spawning binaries.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use dvdc::protocol::node_core::{ClusterSpec, Msg, StatusView, CTL};
use dvdc_faults::detector::DetectorConfig;
use dvdc_observe::registry::MetricsHub;
use dvdc_simcore::time::Duration;
use dvdc_transport::frame::{read_frame, write_frame};
use dvdc_transport::runtime::{NodeRuntime, ObserveConfig, RuntimeConfig};
use dvdc_transport::wire::{decode_envelope, encode_envelope};
use dvdc_vcluster::ids::NodeId;

fn spec() -> ClusterSpec {
    ClusterSpec {
        cluster_id: 7,
        data_nodes: 2,
        parity_nodes: 1,
        image_len: 256,
        // Generous wall-clock windows: the test asserts liveness, not
        // latency, and CI machines stall.
        detector: DetectorConfig::from_millis(50.0, 250.0, 200.0),
        round_timeout: Duration::from_secs(3.0),
        rebuild_timeout: Duration::from_secs(3.0),
        capture_delay: Duration::from_millis(5.0),
    }
}

fn ctl_request(addr: SocketAddr, msg: &Msg) -> Msg {
    let mut s = TcpStream::connect(addr).expect("ctl connect");
    s.set_read_timeout(Some(StdDuration::from_secs(10)))
        .expect("set timeout");
    write_frame(&mut s, &encode_envelope(CTL, msg)).expect("ctl send");
    let payload = read_frame(&mut s).expect("ctl reply frame");
    let (from, reply) = decode_envelope(&payload).expect("ctl reply envelope");
    assert_ne!(from, CTL, "reply must come from a member");
    reply
}

fn status(addr: SocketAddr) -> StatusView {
    match ctl_request(addr, &Msg::StatusReq) {
        Msg::StatusResp(view) => view,
        other => panic!("expected StatusResp, got {other:?}"),
    }
}

#[test]
fn three_process_style_runtimes_commit_a_round_over_loopback() {
    let spec = spec();
    let n = spec.total();

    // Claim ephemeral ports first so every config can name every peer.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let peers: Vec<(NodeId, SocketAddr)> = (0..n)
            .filter(|j| *j != i)
            .map(|j| (NodeId(j), addrs[j]))
            .collect();
        let config = RuntimeConfig::new(NodeId(i), spec.clone(), peers, 0xDECAF + i as u64);
        let runtime = NodeRuntime::new(config, listener);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            runtime.run(stop, |_, _| {}).expect("runtime run");
        }));
    }

    // Wait until node 0 has sessions with both peers.
    let deadline = Instant::now() + StdDuration::from_secs(10);
    loop {
        let view = status(addrs[0]);
        if view.peers_established.len() == n - 1 {
            assert_eq!(view.coordinator, NodeId(0));
            break;
        }
        assert!(Instant::now() < deadline, "mesh never formed: {view:?}");
        std::thread::sleep(StdDuration::from_millis(20));
    }

    // Drive one checkpoint round through the coordinator.
    match ctl_request(addrs[0], &Msg::CheckpointReq) {
        Msg::CheckpointDone { epoch } => assert_eq!(epoch, 1),
        other => panic!("expected CheckpointDone, got {other:?}"),
    }

    // Every member (not just the coordinator) must have committed it.
    let deadline = Instant::now() + StdDuration::from_secs(10);
    loop {
        let committed: Vec<u64> = addrs.iter().map(|a| status(*a).committed_epoch).collect();
        if committed.iter().all(|e| *e == 1) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "commit never propagated: {committed:?}"
        );
        std::thread::sleep(StdDuration::from_millis(20));
    }

    // A non-coordinator refuses ctl checkpoint requests with a typed
    // reason, not a hang.
    match ctl_request(addrs[1], &Msg::CheckpointReq) {
        Msg::CheckpointFailed { reason } => {
            assert!(reason.contains("not the coordinator"), "reason: {reason}");
        }
        other => panic!("expected CheckpointFailed, got {other:?}"),
    }

    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("runtime thread join");
    }
}

#[test]
fn frames_to_an_unreachable_peer_are_counted_as_dropped() {
    // A port that was bound and released: nothing listens there, so
    // every dial to it is refused.
    let dead = TcpListener::bind("127.0.0.1:0")
        .expect("bind")
        .local_addr()
        .expect("addr");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let spec = ClusterSpec {
        data_nodes: 1,
        ..spec()
    };
    let mut config = RuntimeConfig::new(NodeId(0), spec, vec![(NodeId(1), dead)], 0xD0D);
    let hub = MetricsHub::new();
    config.observe = ObserveConfig {
        metrics: hub.clone(),
        ring: None,
    };
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        let runtime = NodeRuntime::new(config, listener);
        std::thread::spawn(move || runtime.run(stop, |_, _| {}).expect("runtime run"))
    };

    // Hellos and heartbeats repeat every 50 ms; each one is shed.
    let dropped = hub.counter("transport.frames_dropped");
    let deadline = Instant::now() + StdDuration::from_secs(10);
    while dropped.get() == 0 {
        assert!(Instant::now() < deadline, "no frame was counted as dropped");
        std::thread::sleep(StdDuration::from_millis(20));
    }
    assert!(hub.snapshot().counter("transport.frames_dropped").unwrap() > 0);

    stop.store(true, Ordering::Relaxed);
    handle.join().expect("runtime thread join");
}
