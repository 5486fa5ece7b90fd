//! Loopback cluster throughput — ROADMAP item 2's deployment numbers.
//!
//! Spins a real N-node DVDC cluster inside one process (every node a
//! full `NodeRuntime` on its own loopback TCP port, exactly the daemon's
//! transport) and drives back-to-back checkpoint rounds through the ctl
//! plane. Two configurations run interleaved:
//!
//! * `metrics-off` — the default [`ObserveConfig`]: a no-op hub, every
//!   instrument one branch. This is the deployment baseline.
//! * `metrics-on`  — a live [`MetricsHub`] plus a trace ring per node,
//!   the full observability plane `dvdc-ctl metrics` scrapes.
//!
//! Reported: wall-clock per config (min over reps), rounds/s, cluster
//! message throughput (sum of `transport.frames_in` over elapsed), and
//! the coordinator's round-latency histogram — against drfe-r's
//! 100-node / 220k msg/s reference bar. The metrics plane is all relaxed
//! atomics off the event loop's critical path, so `metrics-on` must stay
//! within noise of `metrics-off` (asserted, same 20% headroom as the
//! buggify/trace overhead benches).
//!
//! Knobs: `DVDC_LOOPBACK_NODES` (default 25), `DVDC_LOOPBACK_ROUNDS`
//! (default 200), `DVDC_LOOPBACK_REPS` (default 5). At the defaults each
//! rep drives over a second of back-to-back rounds, so the min-of-reps
//! gate compares seconds, not a ~0.1 s burst that scheduler noise can
//! swing by 20%.
//!
//! Run: `cargo run --release -p dvdc-bench --bin loopback_throughput`

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use dvdc::protocol::node_core::{ClusterSpec, Msg};
use dvdc_bench::{render_table, results_dir, write_json};
use dvdc_faults::detector::DetectorConfig;
use dvdc_node::{ctl_request, ctl_status, ctl_trace_tail, note_event, NodeMetrics};
use dvdc_observe::chrome::merge_node_traces;
use dvdc_observe::registry::{MetricsHub, MetricsSnapshot};
use dvdc_observe::{Recorder, SyncRingRecorder};
use dvdc_simcore::time::Duration;
use dvdc_transport::runtime::{NodeRuntime, ObserveConfig, RuntimeConfig};
use dvdc_vcluster::ids::NodeId;
use serde::Value;

const RPC: StdDuration = StdDuration::from_secs(60);

/// Newest ring events scraped per node for the merged trace: the last
/// few rounds on every lane, while the committed artifact stays the
/// size it was when a run had only a dozen rounds.
const TRACE_TAIL: u32 = 40;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn spec(n: usize) -> ClusterSpec {
    ClusterSpec {
        cluster_id: 7,
        data_nodes: n - 1,
        parity_nodes: 1,
        image_len: 1024,
        // Generous detector: a single-core runner scheduling ~50 threads
        // per node must not confirm anyone dead mid-bench.
        detector: DetectorConfig::from_millis(200.0, 2000.0, 1000.0),
        round_timeout: Duration::from_millis(30_000.0),
        rebuild_timeout: Duration::from_millis(30_000.0),
        // The shipped default: capture the moment the round opens.
        capture_delay: Duration::from_millis(0.0),
    }
}

struct Cluster {
    addrs: Vec<SocketAddr>,
    stops: Vec<Arc<AtomicBool>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    hubs: Vec<MetricsHub>,
}

fn launch(n: usize, live_metrics: bool) -> Cluster {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect();
    let mut stops = Vec::new();
    let mut handles = Vec::new();
    let mut hubs = Vec::new();
    for (id, listener) in listeners.into_iter().enumerate() {
        let peers: Vec<(NodeId, SocketAddr)> = addrs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != id)
            .map(|(i, a)| (NodeId(i), *a))
            .collect();
        let mut config = RuntimeConfig::new(NodeId(id), spec(n), peers, 7 + id as u64);
        let hub = if live_metrics {
            MetricsHub::new()
        } else {
            MetricsHub::noop()
        };
        let ring = live_metrics.then(|| Arc::new(SyncRingRecorder::ring(512)));
        config.observe = ObserveConfig {
            metrics: hub.clone(),
            ring: ring.clone(),
        };
        hubs.push(hub);
        let stop = Arc::new(AtomicBool::new(false));
        stops.push(Arc::clone(&stop));
        let runtime = NodeRuntime::new(config, listener);
        let mut metrics = NodeMetrics::new(&hubs[id]);
        handles.push(std::thread::spawn(move || {
            runtime
                .run(stop, move |at, note| {
                    metrics.observe(at, note);
                    if let (Some(ring), Some(event)) = (ring.as_deref(), note_event(note)) {
                        ring.record(at, &event);
                    }
                })
                .expect("runtime");
        }));
    }
    Cluster {
        addrs,
        stops,
        handles,
        hubs,
    }
}

impl Cluster {
    fn wait_mesh(&self) {
        let n = self.addrs.len();
        let deadline = Instant::now() + StdDuration::from_secs(120);
        loop {
            if let Ok(view) = ctl_status(self.addrs[0], StdDuration::from_secs(2)) {
                if view.peers_established.len() == n - 1 {
                    return;
                }
            }
            assert!(Instant::now() < deadline, "mesh never formed");
            std::thread::sleep(StdDuration::from_millis(50));
        }
    }

    fn drive_rounds(&self, rounds: usize) {
        for want in 1..=rounds as u64 {
            match ctl_request(self.addrs[0], &Msg::CheckpointReq, RPC).expect("checkpoint rpc") {
                Msg::CheckpointDone { epoch } => assert_eq!(epoch, want),
                other => panic!("round {want} failed: {other:?}"),
            }
        }
    }

    fn shutdown(self) {
        for stop in &self.stops {
            stop.store(true, Ordering::Relaxed);
        }
        for handle in self.handles {
            handle.join().expect("node thread");
        }
    }
}

struct RepOutcome {
    elapsed_secs: f64,
    merged: Option<MetricsSnapshot>,
    coordinator: Option<MetricsSnapshot>,
    trace_json: Option<String>,
}

fn rep(n: usize, rounds: usize, live_metrics: bool, scrape_trace: bool) -> RepOutcome {
    let cluster = launch(n, live_metrics);
    cluster.wait_mesh();
    let start = Instant::now();
    cluster.drive_rounds(rounds);
    let elapsed_secs = start.elapsed().as_secs_f64();
    let (merged, coordinator) = if live_metrics {
        // The runtime writes the ctl reply before it hands the round's
        // notes to `NodeMetrics`, so the last commit can reach the
        // coordinator's hub just after the reply reaches us.
        let committed = cluster.hubs[0].counter("node.rounds_committed");
        let deadline = Instant::now() + StdDuration::from_secs(5);
        while committed.get() < rounds as u64 && Instant::now() < deadline {
            std::thread::sleep(StdDuration::from_millis(1));
        }
        let mut merged = MetricsSnapshot::default();
        for hub in &cluster.hubs {
            merged.merge(&hub.snapshot());
        }
        (Some(merged), Some(cluster.hubs[0].snapshot()))
    } else {
        (None, None)
    };
    let trace_json = scrape_trace.then(|| {
        let tails: Vec<_> = cluster
            .addrs
            .iter()
            .map(|&a| ctl_trace_tail(a, TRACE_TAIL, RPC).expect("trace tail"))
            .collect();
        merge_node_traces(&tails, &[])
    });
    cluster.shutdown();
    RepOutcome {
        elapsed_secs,
        merged,
        coordinator,
        trace_json,
    }
}

fn main() {
    let nodes = env_usize("DVDC_LOOPBACK_NODES", 25);
    let rounds = env_usize("DVDC_LOOPBACK_ROUNDS", 200);
    let reps = env_usize("DVDC_LOOPBACK_REPS", 5);
    assert!(nodes >= 3, "need k>=2 data + 1 parity");

    // Interleaved reps, min-of-reps: same discipline as the other
    // overhead benches so scheduler drift spreads across configs.
    let mut off_secs = Vec::new();
    let mut on_secs = Vec::new();
    let mut last_on: Option<RepOutcome> = None;
    for r in 0..reps {
        off_secs.push(rep(nodes, rounds, false, false).elapsed_secs);
        let scrape = r == reps - 1;
        let outcome = rep(nodes, rounds, true, scrape);
        on_secs.push(outcome.elapsed_secs);
        last_on = Some(outcome);
    }
    let last_on = last_on.expect("reps >= 1");
    let merged = last_on.merged.expect("metrics-on rep has a snapshot");
    let coordinator = last_on.coordinator.expect("coordinator snapshot");

    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let off_min = min(&off_secs);
    let on_min = min(&on_secs);
    let on_last = *on_secs.last().expect("reps >= 1");

    let frames_in = merged.counter("transport.frames_in").unwrap_or(0);
    let frames_out = merged.counter("transport.frames_out").unwrap_or(0);
    let bytes_in = merged.counter("transport.bytes_in").unwrap_or(0);
    let msg_per_sec = frames_in as f64 / on_last;
    let rounds_per_sec = rounds as f64 / on_last;
    let round_hist = coordinator
        .histogram("node.round_latency_ns")
        .expect("coordinator measured rounds");
    assert_eq!(round_hist.count, rounds as u64);

    let table = vec![
        vec![
            "metrics-off".to_owned(),
            format!("{:.3}", off_min),
            "-".to_owned(),
            "-".to_owned(),
        ],
        vec![
            "metrics-on".to_owned(),
            format!("{:.3}", on_min),
            format!("{:.0}", msg_per_sec),
            format!("{:.2}", round_hist.p50() as f64 / 1e6),
        ],
    ];
    println!(
        "nodes={nodes} rounds={rounds} reps={reps}  frames_in={frames_in} frames_out={frames_out}"
    );
    println!(
        "{}",
        render_table(&["config", "min s", "msg/s", "round p50 ms"], &table)
    );

    let report = Value::Object(vec![
        (
            "config".to_owned(),
            Value::Object(vec![
                ("nodes".to_owned(), Value::U64(nodes as u64)),
                ("rounds".to_owned(), Value::U64(rounds as u64)),
                ("reps".to_owned(), Value::U64(reps as u64)),
                ("image_len".to_owned(), Value::U64(1024)),
            ]),
        ),
        ("metrics_off_min_secs".to_owned(), Value::F64(off_min)),
        ("metrics_on_min_secs".to_owned(), Value::F64(on_min)),
        (
            "overhead_pct".to_owned(),
            Value::F64((on_min / off_min - 1.0) * 100.0),
        ),
        ("msg_per_sec".to_owned(), Value::F64(msg_per_sec)),
        ("rounds_per_sec".to_owned(), Value::F64(rounds_per_sec)),
        ("frames_in_total".to_owned(), Value::U64(frames_in)),
        ("bytes_in_total".to_owned(), Value::U64(bytes_in)),
        ("round_latency_ns".to_owned(), round_hist.to_value()),
        (
            "heartbeat_gap_ns".to_owned(),
            coordinator
                .histogram("node.heartbeat_gap_ns")
                .map(|h| h.to_value())
                .unwrap_or(Value::Null),
        ),
        (
            "reference".to_owned(),
            Value::Object(vec![
                ("source".to_owned(), Value::Str("drfe-r".to_owned())),
                ("nodes".to_owned(), Value::U64(100)),
                ("msg_per_sec".to_owned(), Value::U64(220_000)),
            ]),
        ),
    ]);
    write_json("loopback_throughput", &report);

    if let Some(trace) = last_on.trace_json {
        let path = results_dir().join("loopback_trace.json");
        match std::fs::write(&path, trace.as_bytes()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warn: cannot write {}: {e}", path.display()),
        }
    }

    // The whole metrics plane is relaxed atomics behind Option gates; if
    // turning it on moves round pacing past noise, an instrument landed
    // on the critical path. Same 20% headroom as buggify_overhead.
    assert!(
        on_min <= off_min * 1.20,
        "metrics-on cost {on_min:.3} s vs metrics-off {off_min:.3} s — \
         the observability plane is perturbing the protocol"
    );
}
