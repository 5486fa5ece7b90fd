//! The DVDC checkpoint daemon: one OS process hosting one
//! [`NodeCore`](dvdc::protocol::node_core::NodeCore) over real loopback
//! TCP, driven by the `dvdc-transport` runtime.
//!
//! The daemon is diskless by design: it persists nothing, and a
//! SIGKILLed instance restarted with the same flags comes back empty and
//! re-enters the cluster through the fence/resync protocol. All state it
//! ever gets back was reconstructed from surviving peers' parity.
//!
//! ```text
//! dvdc-node --id 0 --cluster-id 99 --data 4 --parity 1 --image-len 4096 \
//!   --addrs 127.0.0.1:7101,...,127.0.0.1:7105 \
//!   --hb-ms 50 --timeout-ms 250 --grace-ms 200 \
//!   --round-ms 5000 --rebuild-ms 5000 --capture-ms 400 --seed 7
//! ```
//!
//! Every structured protocol note goes to stderr with its wall-clock
//! offset; an observe ring (`--ring-events`, default 256) rides along,
//! and a panic hook dumps its tail plus the seed and last committed
//! epoch before the process dies — the deployment analogue of the chaos
//! suite's `TraceDumpGuard`. A live metrics registry fed by the
//! transport and the note stream is scrapeable over the ctl port
//! (`dvdc-ctl metrics` / `trace-tail`) and logged as a JSON snapshot
//! every `--metrics-ms` (0 disables the log line, never the registry).

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use dvdc::protocol::node_core::Note;
use dvdc_node::{note_event, NodeMetrics, NodeOptions};
use dvdc_observe::registry::MetricsHub;
use dvdc_observe::{dump_tail, Recorder, SyncRingRecorder};
use dvdc_transport::runtime::{NodeRuntime, ObserveConfig, RuntimeConfig};
use dvdc_vcluster::ids::NodeId;

/// Bind retry budget: a restarted daemon may race the kernel reclaiming
/// its old port.
const BIND_ATTEMPTS: u32 = 40;
const BIND_BACKOFF: StdDuration = StdDuration::from_millis(250);

fn main() -> ExitCode {
    let opts = match NodeOptions::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("dvdc-node: {err}");
            eprintln!(
                "usage: dvdc-node --id N --addrs HOST:PORT,... [--cluster-id N] [--data K] \
                 [--parity M] [--image-len BYTES] [--hb-ms F] [--timeout-ms F] [--grace-ms F] \
                 [--round-ms F] [--rebuild-ms F] [--capture-ms F] [--seed N] \
                 [--metrics-ms F] [--ring-events N]"
            );
            return ExitCode::from(2);
        }
    };

    let ring = Arc::new(SyncRingRecorder::ring(opts.ring_events));
    let hub = MetricsHub::new();
    let committed = Arc::new(AtomicU64::new(0));

    // Panic hook: ship the trace tail + seed/epoch to stderr before the
    // process dies, whatever thread panicked.
    {
        let ring = Arc::clone(&ring);
        let committed = Arc::clone(&committed);
        let id = opts.id;
        let seed = opts.seed;
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            default_hook(info);
            dump_tail(
                &ring.events(),
                ring.dropped(),
                &format!(
                    "dvdc-node id={id} seed={seed} committed_epoch={}",
                    committed.load(Ordering::Relaxed)
                ),
            );
        }));
    }

    let listen = opts.listen();
    let listener = match bind_with_retry(listen) {
        Ok(l) => l,
        Err(err) => {
            eprintln!("dvdc-node {}: cannot bind {listen}: {err}", opts.id);
            return ExitCode::from(1);
        }
    };

    eprintln!(
        "dvdc-node {} up: listen={listen} cluster={} k={} m={} image_len={} seed={}",
        opts.id, opts.cluster_id, opts.data, opts.parity, opts.image_len, opts.seed
    );

    // Periodic metrics publisher: one JSON snapshot line per period so
    // log scrapers get wall-clock series without polling the ctl port.
    if opts.metrics_ms > 0.0 {
        let hub = hub.clone();
        let id = opts.id;
        let period = StdDuration::from_secs_f64(opts.metrics_ms / 1e3);
        std::thread::spawn(move || loop {
            std::thread::sleep(period);
            eprintln!("dvdc-node {id} metrics {}", hub.snapshot().to_json());
        });
    }

    let mut config = RuntimeConfig::new(NodeId(opts.id), opts.spec(), opts.peers(), opts.seed);
    config.observe = ObserveConfig {
        metrics: hub.clone(),
        ring: Some(Arc::clone(&ring)),
    };
    let runtime = NodeRuntime::new(config, listener);
    let stop = Arc::new(AtomicBool::new(false)); // dies by SIGKILL, not by flag
    let id = opts.id;
    let mut metrics = NodeMetrics::new(&hub);
    let result = runtime.run(stop, move |at, note| {
        eprintln!("[{:>12.6}s] node {id}: {note:?}", at.as_secs());
        if let Note::RoundCommitted { epoch } = note {
            committed.store(*epoch, Ordering::Relaxed);
        }
        metrics.observe(at, note);
        if let Some(event) = note_event(note) {
            ring.record(at, &event);
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("dvdc-node {id}: runtime error: {err}");
            ExitCode::from(1)
        }
    }
}

fn bind_with_retry(addr: std::net::SocketAddr) -> Result<TcpListener, std::io::Error> {
    let mut last = None;
    for _ in 0..BIND_ATTEMPTS {
        match TcpListener::bind(addr) {
            Ok(l) => return Ok(l),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                last = Some(e);
                std::thread::sleep(BIND_BACKOFF);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("bind retries exhausted")))
}
