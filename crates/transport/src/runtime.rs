//! The threaded TCP driver hosting one [`NodeCore`] per OS process.
//!
//! Topology: every member listens on one TCP port. Inbound connections
//! (peer dials and `dvdc-ctl` clients alike) get a reader thread that
//! decodes frames into envelopes and queues them on the single event
//! channel. Outbound, each peer gets a writer thread owning its own
//! dialed socket, reconnecting with the cluster's
//! [`RetryPolicy`](dvdc_vcluster::messaging::RetryPolicy) jittered
//! backoff and a holdoff after exhaustion so a dead peer cannot turn the
//! writer into a dial spin-loop. The event loop is single-threaded: it
//! owns the `NodeCore`, feeds it messages and ticks stamped by
//! [`WallClock`](crate::clock::WallClock), and carries out the returned
//! actions through the shared [`dispatch`] helper — the same code path
//! the deterministic sim driver uses.
//!
//! Loss model: sends to an unreachable peer are dropped after typed
//! retry exhaustion, each counted in `transport.frames_dropped`. The
//! protocol is built for exactly that (hellos and heartbeats repeat,
//! rounds time out typed, fencing handles the rest) — it is the moral
//! equivalent of TCP to a SIGKILLed process.
//!
//! Trust model: the envelope's sender id is taken at face value, like
//! the paper's single-administrative-domain cluster fabric. The control
//! plane ([`CTL`] sender) is whoever can reach the loopback port.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant};

use dvdc::protocol::node_core::{ClusterSpec, Msg, NodeCore, Note, CTL};
use dvdc::protocol::transport::{dispatch, Clock, Transport, TransportError};
use dvdc_observe::registry::{Counter, Gauge, MetricsHub, Stamp};
use dvdc_observe::SyncRingRecorder;
use dvdc_simcore::time::SimTime;
use dvdc_vcluster::ids::NodeId;
use dvdc_vcluster::messaging::RetryPolicy;

use crate::clock::WallClock;
use crate::conn::{connect_with_retry, ConnectError, LinkState};
use crate::frame::{encode_frame, read_frame, FrameError};
use crate::wire::{decode_envelope, encode_envelope};

/// Configuration for one [`NodeRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// This node's protocol id.
    pub id: NodeId,
    /// The cluster layout and timing the hosted [`NodeCore`] runs.
    pub spec: ClusterSpec,
    /// Every *other* member: protocol id and listen address.
    pub peers: Vec<(NodeId, SocketAddr)>,
    /// Event-loop tick: the `on_tick` cadence and the `recv_timeout`
    /// granularity. Keep well under the detector heartbeat interval.
    pub tick: StdDuration,
    /// Reconnect pacing for outbound peer links.
    pub retry: RetryPolicy,
    /// Jitter seed; combined with the peer id so parallel redials to
    /// one restarted node desynchronise.
    pub seed: u64,
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: StdDuration,
    /// After a fully exhausted dial, how long the writer drops frames
    /// before dialing again.
    pub redial_holdoff: StdDuration,
    /// Observability plumbing: the metrics registry every transport
    /// instrument feeds, and the trace ring the ctl plane scrapes.
    pub observe: ObserveConfig,
}

/// The observability attachments of one runtime. Defaults to fully off
/// (a no-op [`MetricsHub`], no ring) — the attached-but-disabled path
/// costs one branch per instrument, the same zero-cost-gate discipline
/// the recorder layer keeps.
#[derive(Debug, Clone, Default)]
pub struct ObserveConfig {
    /// The live metrics registry (counters/gauges/histograms), scraped
    /// by `Msg::MetricsReq`.
    pub metrics: MetricsHub,
    /// The node's trace ring, scraped by `Msg::TraceTailReq` — normally
    /// the same ring the daemon's panic hook dumps.
    pub ring: Option<Arc<SyncRingRecorder>>,
}

impl RuntimeConfig {
    /// Sensible loopback defaults: 2 ms tick, default retry policy,
    /// 250 ms connect timeout, 200 ms redial holdoff.
    pub fn new(id: NodeId, spec: ClusterSpec, peers: Vec<(NodeId, SocketAddr)>, seed: u64) -> Self {
        RuntimeConfig {
            id,
            spec,
            peers,
            tick: StdDuration::from_millis(2),
            retry: RetryPolicy::default(),
            seed,
            connect_timeout: StdDuration::from_millis(250),
            redial_holdoff: StdDuration::from_millis(200),
            observe: ObserveConfig::default(),
        }
    }
}

/// Typed runtime startup/shutdown failures.
#[derive(Debug)]
pub enum RuntimeError {
    /// The listener could not be configured (bind succeeded earlier —
    /// the listener is handed in pre-bound — but e.g. `set_nonblocking`
    /// failed).
    Listener(std::io::Error),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Listener(e) => write!(f, "listener setup failed: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// One decoded envelope arriving from any inbound connection, paired
/// with a writable clone of that connection so control-plane replies can
/// go back where the request came from.
struct Incoming {
    writer: Option<Arc<Mutex<TcpStream>>>,
    from: NodeId,
    msg: Msg,
}

/// The real-socket [`Transport`]: peer sends are queued to per-peer
/// writer threads (never blocking the event loop), control-plane sends
/// are written inline to the requesting ctl connection.
///
/// Two ctl routes exist because checkpoint outcomes are *deferred*:
/// `CheckpointDone`/`CheckpointFailed` can surface turns later, while a
/// status poller has long since become the "most recent" ctl
/// connection. The connection that sent `CheckpointReq` is therefore
/// pinned separately until its outcome is delivered.
pub struct TcpTransport {
    peers: BTreeMap<NodeId, Sender<Vec<u8>>>,
    /// The most recent ctl connection: immediate replies (status,
    /// digest, kill-query) go here.
    ctl: Option<Arc<Mutex<TcpStream>>>,
    /// The connection awaiting a checkpoint outcome, if any.
    checkpoint_waiter: Option<Arc<Mutex<TcpStream>>>,
    /// Frames handed to any outbound path (peer queue or ctl write).
    frames_out: Counter,
    /// Encoded bytes across those frames.
    bytes_out: Counter,
    /// Per-peer write-queue depth: +1 on enqueue here, -1 when the
    /// writer thread dequeues. A stuck peer shows as a climbing gauge.
    peer_queues: BTreeMap<NodeId, Gauge>,
}

impl TcpTransport {
    /// Note an inbound [`CTL`] message: point immediate replies at its
    /// connection, and pin it as the checkpoint waiter if it is one.
    fn note_ctl_request(&mut self, conn: Option<Arc<Mutex<TcpStream>>>, msg: &Msg) {
        if conn.is_none() {
            return;
        }
        if matches!(msg, Msg::CheckpointReq) {
            self.checkpoint_waiter.clone_from(&conn);
        }
        self.ctl = conn;
    }
}

fn write_ctl(conn: &Arc<Mutex<TcpStream>>, frame: &[u8]) -> Result<(), TransportError> {
    let mut stream = conn
        .lock()
        .map_err(|_| TransportError::Closed { to: CTL })?;
    stream
        .write_all(frame)
        .and_then(|()| stream.flush())
        .map_err(|_| TransportError::Closed { to: CTL })
}

impl Transport for TcpTransport {
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg) -> Result<(), TransportError> {
        let frame = encode_frame(&encode_envelope(from, &msg));
        self.frames_out.inc();
        self.bytes_out.add(frame.len() as u64);
        if to == CTL {
            let conn = if matches!(
                msg,
                Msg::CheckpointDone { .. } | Msg::CheckpointFailed { .. }
            ) {
                // Outcome delivery consumes the pinned waiter.
                self.checkpoint_waiter.take().or_else(|| self.ctl.clone())
            } else {
                self.ctl.clone()
            };
            let conn = conn.ok_or(TransportError::Unreachable { to })?;
            write_ctl(&conn, &frame)
        } else {
            let tx = self
                .peers
                .get(&to)
                .ok_or(TransportError::Unreachable { to })?;
            tx.send(frame).map_err(|_| TransportError::Closed { to })?;
            if let Some(q) = self.peer_queues.get(&to) {
                q.add(1);
            }
            Ok(())
        }
    }
}

/// A single node's TCP runtime: listener, per-connection readers,
/// per-peer reconnecting writers, and the event loop that owns the
/// [`NodeCore`].
pub struct NodeRuntime {
    config: RuntimeConfig,
    listener: TcpListener,
    links: Arc<Mutex<BTreeMap<NodeId, LinkState>>>,
}

impl NodeRuntime {
    /// Wrap a pre-bound listener. Binding is the caller's job so tests
    /// and the daemon can claim ephemeral ports (`127.0.0.1:0`) before
    /// peer address lists are assembled.
    pub fn new(config: RuntimeConfig, listener: TcpListener) -> Self {
        let links = Arc::new(Mutex::new(
            config
                .peers
                .iter()
                .map(|(id, _)| (*id, LinkState::Disconnected))
                .collect(),
        ));
        NodeRuntime {
            config,
            listener,
            links,
        }
    }

    /// Live view of every outbound peer link's [`LinkState`]; clone it
    /// before [`run`](Self::run) to observe reconnects from outside.
    pub fn link_watch(&self) -> Arc<Mutex<BTreeMap<NodeId, LinkState>>> {
        Arc::clone(&self.links)
    }

    /// Run the node until `stop` goes true (or the event channel dies).
    /// `on_note` receives every structured protocol observation with the
    /// wall-clock [`SimTime`] it was emitted at.
    pub fn run<F>(self, stop: Arc<AtomicBool>, mut on_note: F) -> Result<(), RuntimeError>
    where
        F: FnMut(SimTime, &Note),
    {
        let NodeRuntime {
            config,
            listener,
            links,
        } = self;
        let clock = WallClock::new();
        let mut core = NodeCore::new(config.id, config.spec.clone());
        let hub = config.observe.metrics.clone();

        let (event_tx, event_rx): (Sender<Incoming>, Receiver<Incoming>) = mpsc::channel();

        // --- inbound: accept loop + per-connection readers ---
        listener
            .set_nonblocking(true)
            .map_err(RuntimeError::Listener)?;
        {
            let event_tx = event_tx.clone();
            let stop = Arc::clone(&stop);
            let reader_metrics = ReaderMetrics {
                frames_in: hub.counter("transport.frames_in"),
                bytes_in: hub.counter("transport.bytes_in"),
                frame_errors: hub.counter("transport.frame_errors"),
                codec_errors: hub.counter("transport.codec_errors"),
            };
            std::thread::spawn(move || accept_loop(listener, event_tx, stop, reader_metrics));
        }

        // --- outbound: one reconnecting writer thread per peer ---
        let mut transport = TcpTransport {
            peers: BTreeMap::new(),
            ctl: None,
            checkpoint_waiter: None,
            frames_out: hub.counter("transport.frames_out"),
            bytes_out: hub.counter("transport.bytes_out"),
            peer_queues: BTreeMap::new(),
        };
        // Every frame the runtime gives up on, whatever the reason: a
        // peer in redial holdoff, an exhausted dial, a second write
        // failure, or a send the transport refused outright.
        let frames_dropped = hub.counter("transport.frames_dropped");
        let connects = hub.counter("transport.connects");
        let connect_retries = hub.counter("transport.connect_retries");
        let redials = hub.counter("transport.redials");
        for (peer, addr) in &config.peers {
            let (tx, rx) = mpsc::channel::<Vec<u8>>();
            transport.peers.insert(*peer, tx);
            let queue = hub.gauge(&format!("transport.write_queue.peer{}", peer.0));
            transport.peer_queues.insert(*peer, queue.clone());
            let writer = WriterConfig {
                addr: *addr,
                retry: config.retry,
                // Distinct per (our id, peer id): redials desynchronise.
                seed: config.seed
                    ^ (config.id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (peer.0 as u64),
                connect_timeout: config.connect_timeout,
                redial_holdoff: config.redial_holdoff,
                connects: connects.clone(),
                connect_retries: connect_retries.clone(),
                redials: redials.clone(),
                frames_dropped: frames_dropped.clone(),
                queue,
            };
            let peer = *peer;
            let links = Arc::clone(&links);
            std::thread::spawn(move || writer_loop(peer, writer, rx, links));
        }

        // --- event loop: owns the NodeCore ---
        let hb_gap = hub.histogram("node.heartbeat_gap_ns");
        let mut last_hb: BTreeMap<NodeId, SimTime> = BTreeMap::new();
        let mut last_tick = Instant::now();
        loop {
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            match event_rx.recv_timeout(config.tick) {
                Ok(incoming) => {
                    if incoming.from == CTL {
                        transport.note_ctl_request(incoming.writer.clone(), &incoming.msg);
                        // Observability scrapes are answered by the
                        // runtime, not the core: the registry and the
                        // trace ring live out here beside it.
                        match incoming.msg {
                            Msg::MetricsReq => {
                                let resp = Msg::MetricsResp(hub.snapshot());
                                if transport.send(config.id, CTL, resp).is_err() {
                                    frames_dropped.inc();
                                }
                                continue;
                            }
                            Msg::TraceTailReq { max } => {
                                let (mut events, mut dropped) = match &config.observe.ring {
                                    Some(ring) => (ring.events(), ring.dropped()),
                                    None => (Vec::new(), 0),
                                };
                                if max > 0 && events.len() > max as usize {
                                    let cut = events.len() - max as usize;
                                    dropped += cut as u64;
                                    events.drain(..cut);
                                }
                                let resp = Msg::TraceTailResp {
                                    node: config.id,
                                    now_secs: clock.now().as_secs(),
                                    dropped,
                                    events,
                                };
                                if transport.send(config.id, CTL, resp).is_err() {
                                    frames_dropped.inc();
                                }
                                continue;
                            }
                            _ => {}
                        }
                    }
                    let now = clock.now();
                    if hub.enabled() {
                        if let Msg::Heartbeat { node } = &incoming.msg {
                            if let Some(prev) = last_hb.insert(*node, now) {
                                hb_gap.record(Stamp::Sim(now).nanos_since(Stamp::Sim(prev)));
                            }
                        }
                    }
                    let actions = core.on_message(incoming.from, incoming.msg, now);
                    let out = dispatch(&mut transport, config.id, actions);
                    frames_dropped.add(out.failed.len() as u64);
                    for note in out.notes {
                        on_note(now, &note);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return Ok(()),
            }
            if last_tick.elapsed() >= config.tick {
                last_tick = Instant::now();
                let now = clock.now();
                let actions = core.on_tick(now);
                let out = dispatch(&mut transport, config.id, actions);
                frames_dropped.add(out.failed.len() as u64);
                for note in out.notes {
                    on_note(now, &note);
                }
            }
        }
    }
}

/// The inbound-side counters every reader thread feeds. Cloning is a
/// handful of `Arc` bumps (or nothing when metrics are off).
#[derive(Clone)]
struct ReaderMetrics {
    frames_in: Counter,
    bytes_in: Counter,
    frame_errors: Counter,
    codec_errors: Counter,
}

/// Accept inbound connections until `stop`; each gets a reader thread.
fn accept_loop(
    listener: TcpListener,
    event_tx: Sender<Incoming>,
    stop: Arc<AtomicBool>,
    metrics: ReaderMetrics,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                // Blocking reads on the per-connection reader thread.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let writer = stream.try_clone().ok().map(|w| Arc::new(Mutex::new(w)));
                let event_tx = event_tx.clone();
                let metrics = metrics.clone();
                std::thread::spawn(move || reader_loop(stream, writer, event_tx, metrics));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(StdDuration::from_millis(5));
            }
            Err(_) => std::thread::sleep(StdDuration::from_millis(5)),
        }
    }
}

/// Decode frames off one inbound connection until it closes or violates
/// framing; every envelope becomes an event. Framing violations kill
/// only this connection — the peer's reconnect machinery dials anew.
fn reader_loop(
    mut stream: TcpStream,
    writer: Option<Arc<Mutex<TcpStream>>>,
    event_tx: Sender<Incoming>,
    metrics: ReaderMetrics,
) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(FrameError::Io(_)) => return, // closed / reset / torn
            Err(_) => {
                // Framing violation: drop conn.
                metrics.frame_errors.inc();
                return;
            }
        };
        metrics.frames_in.inc();
        metrics.bytes_in.add(payload.len() as u64);
        let (from, msg) = match decode_envelope(&payload) {
            Ok(x) => x,
            Err(_) => {
                // Hostile or version-skewed peer: drop conn.
                metrics.codec_errors.inc();
                return;
            }
        };
        let incoming = Incoming {
            writer: writer.clone(),
            from,
            msg,
        };
        if event_tx.send(incoming).is_err() {
            return; // runtime stopped
        }
    }
}

struct WriterConfig {
    addr: SocketAddr,
    retry: RetryPolicy,
    seed: u64,
    connect_timeout: StdDuration,
    redial_holdoff: StdDuration,
    connects: Counter,
    connect_retries: Counter,
    redials: Counter,
    frames_dropped: Counter,
    queue: Gauge,
}

fn set_link(links: &Arc<Mutex<BTreeMap<NodeId, LinkState>>>, peer: NodeId, state: LinkState) {
    if let Ok(mut map) = links.lock() {
        map.insert(peer, state);
    }
}

/// Own the outbound socket to one peer: dial lazily, write queued
/// frames, reconnect with jittered backoff on failure, hold off after
/// exhaustion. Frames that cannot be delivered are dropped and counted
/// in `transport.frames_dropped` — the protocol retries at its own
/// layer.
fn writer_loop(
    peer: NodeId,
    cfg: WriterConfig,
    rx: Receiver<Vec<u8>>,
    links: Arc<Mutex<BTreeMap<NodeId, LinkState>>>,
) {
    let mut stream: Option<TcpStream> = None;
    let mut holdoff_until: Option<Instant> = None;
    let mut was_established = false;
    while let Ok(frame) = rx.recv() {
        cfg.queue.add(-1);
        // During holdoff the peer is known-dead: shed load instead of
        // dialing per frame.
        if let Some(until) = holdoff_until {
            if Instant::now() < until {
                cfg.frames_dropped.inc();
                continue;
            }
            holdoff_until = None;
        }
        // One reconnect attempt per frame: a write failure invalidates
        // the socket, the retry dials fresh, a second failure drops the
        // frame.
        for attempt in 0..2 {
            if stream.is_none() {
                set_link(&links, peer, LinkState::Connecting { attempt: 1 });
                if was_established {
                    cfg.redials.inc();
                }
                match connect_with_retry(cfg.addr, &cfg.retry, cfg.seed, cfg.connect_timeout) {
                    Ok((s, attempts)) => {
                        set_link(&links, peer, LinkState::Established);
                        cfg.connects.inc();
                        cfg.connect_retries
                            .add(u64::from(attempts.saturating_sub(1)));
                        was_established = true;
                        stream = Some(s);
                    }
                    Err(ConnectError::Exhausted { attempts, .. }) => {
                        set_link(&links, peer, LinkState::Disconnected);
                        cfg.connect_retries.add(u64::from(attempts));
                        holdoff_until = Some(Instant::now() + cfg.redial_holdoff);
                        cfg.frames_dropped.inc();
                        break; // drop this frame
                    }
                    Err(ConnectError::NoAttempts) => {
                        set_link(&links, peer, LinkState::Disconnected);
                        holdoff_until = Some(Instant::now() + cfg.redial_holdoff);
                        cfg.frames_dropped.inc();
                        break; // drop this frame
                    }
                }
            }
            let ok = match stream.as_mut() {
                Some(s) => s.write_all(&frame).and_then(|()| s.flush()).is_ok(),
                None => false,
            };
            if ok {
                break;
            }
            stream = None;
            set_link(&links, peer, LinkState::Disconnected);
            if attempt == 1 {
                cfg.frames_dropped.inc();
                break; // second failure: drop the frame
            }
        }
    }
}
