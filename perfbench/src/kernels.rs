//! Per-layer timings: each layer's public functions called on inputs of
//! the workload's size, timed with `Instant` around the call.

use std::io::{Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dvdc::protocol::node_core::{
    fnv64, initial_image, Action, BlockInfo, BlockKind, ClusterSpec, Msg, NodeCore, CTL,
};
use dvdc::protocol::transport::{SimNet, Transport};
use dvdc_parity::code::ErasureCode;
use dvdc_parity::raid5::XorCode;
use dvdc_simcore::time::{Duration as SimDuration, SimTime};
use dvdc_transport::frame::{encode_frame, read_frame};
use dvdc_transport::wire::{decode_envelope, encode_envelope};
use dvdc_vcluster::ids::NodeId;

use crate::cluster::{DATA, NODES};
use crate::stats::median;

/// Median wall time of one call in ms. Calls `f` at least five times
/// and until `budget` has been spent (at most 10 000 calls).
fn time_ms(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 10_000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples).expect("at least five samples")
}

const BUDGET: Duration = Duration::from_millis(150);

/// Layer call times at one image size.
#[derive(Debug, Clone)]
pub struct Kernels {
    /// Bytes of one framed `Payload` envelope.
    pub payload_frame_len: usize,
    /// `fnv64` throughput, GB/s.
    pub checksum_gb_s: f64,
    /// `encode_frame` of one `Payload` envelope, ms.
    pub frame_encode_ms: f64,
    /// `read_frame` of that frame from memory, ms.
    pub frame_read_ms: f64,
    /// `encode_envelope` of one `Payload`, ms.
    pub wire_payload_encode_ms: f64,
    /// `decode_envelope` of one `Payload`, ms.
    pub wire_payload_decode_ms: f64,
    /// `encode_envelope` of a survivor's one-block `FetchBlocks`, ms.
    pub wire_fetch_encode_ms: f64,
    /// `decode_envelope` of that `FetchBlocks`, ms.
    pub wire_fetch_decode_ms: f64,
    /// `XorCode(k).encode` over `k` images, ms.
    pub parity_encode_ms: f64,
    /// `XorCode(k).reconstruct` of one lost image, ms.
    pub parity_reconstruct_ms: f64,
    /// One payload frame over a loopback `TcpStream` pair, GB/s.
    pub socket_gb_s: f64,
}

impl Kernels {
    /// Time of one payload frame on the socket, ms.
    pub fn socket_ms(&self) -> f64 {
        self.payload_frame_len as f64 / (self.socket_gb_s * 1e9) * 1e3
    }
}

/// Times every kernel on `image_len`-byte images of cluster `cluster_id`.
pub fn measure(cluster_id: u64, image_len: usize) -> Result<Kernels, String> {
    let images: Vec<Vec<u8>> = (0..DATA)
        .map(|i| initial_image(cluster_id, NodeId(i), image_len))
        .collect();
    let payload = Msg::Payload {
        epoch: 1,
        source: NodeId(1),
        fence_epoch: 0,
        data: images[1].clone(),
    };
    let fetch = Msg::FetchBlocks {
        node: NodeId(1),
        fence_epoch: 0,
        blocks: vec![BlockInfo {
            holder: NodeId(1),
            kind: BlockKind::Data,
            epoch: 1,
            data: images[1].clone(),
        }],
    };
    let payload_env = encode_envelope(NodeId(1), &payload);
    let fetch_env = encode_envelope(NodeId(1), &fetch);
    let frame = encode_frame(&payload_env);
    let decoded = read_frame(&mut Cursor::new(&frame)).map_err(|e| format!("read_frame: {e}"))?;
    if decode_envelope(&decoded)
        .map_err(|e| format!("decode: {e}"))?
        .1
        != payload
    {
        return Err("payload did not survive the wire and frame round trip".into());
    }

    let checksum_ms = time_ms(BUDGET, || {
        std::hint::black_box(fnv64(std::hint::black_box(&images[1])));
    });
    let frame_encode_ms = time_ms(BUDGET, || {
        std::hint::black_box(encode_frame(std::hint::black_box(&payload_env)));
    });
    let frame_read_ms = time_ms(BUDGET, || {
        let got = read_frame(&mut Cursor::new(std::hint::black_box(&frame)));
        std::hint::black_box(got.expect("frame encoded above reads back"));
    });
    let wire_payload_encode_ms = time_ms(BUDGET, || {
        std::hint::black_box(encode_envelope(NodeId(1), std::hint::black_box(&payload)));
    });
    let wire_payload_decode_ms = time_ms(BUDGET, || {
        let got = decode_envelope(std::hint::black_box(&payload_env));
        std::hint::black_box(got.expect("envelope encoded above decodes"));
    });
    let wire_fetch_encode_ms = time_ms(BUDGET, || {
        std::hint::black_box(encode_envelope(NodeId(1), std::hint::black_box(&fetch)));
    });
    let wire_fetch_decode_ms = time_ms(BUDGET, || {
        let got = decode_envelope(std::hint::black_box(&fetch_env));
        std::hint::black_box(got.expect("envelope encoded above decodes"));
    });

    let code = XorCode::new(DATA);
    let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
    let parity_encode_ms = time_ms(BUDGET, || {
        std::hint::black_box(code.encode(std::hint::black_box(&refs)));
    });
    let mut shards: Vec<Option<Vec<u8>>> = images.iter().cloned().map(Some).collect();
    shards.extend(code.encode(&refs).into_iter().map(Some));
    let lost = shards[2].take();
    let mut reconstruct_samples = Vec::new();
    let start = Instant::now();
    while reconstruct_samples.len() < 5 || start.elapsed() < BUDGET {
        shards[2] = None;
        let t = Instant::now();
        code.reconstruct(&mut shards)
            .map_err(|e| format!("reconstruct: {e}"))?;
        reconstruct_samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    if shards[2] != lost {
        return Err("XOR reconstruct did not restore the lost image".into());
    }

    Ok(Kernels {
        payload_frame_len: frame.len(),
        checksum_gb_s: image_len as f64 / (checksum_ms * 1e-3) / 1e9,
        frame_encode_ms,
        frame_read_ms,
        wire_payload_encode_ms,
        wire_payload_decode_ms,
        wire_fetch_encode_ms,
        wire_fetch_decode_ms,
        parity_encode_ms,
        parity_reconstruct_ms: median(&reconstruct_samples).expect("five samples"),
        socket_gb_s: socket_gb_s(&frame)?,
    })
}

/// Throughput of one `frame`-sized write over a loopback `TcpStream`
/// pair: from the start of `write_all` until the reader has every byte.
fn socket_gb_s(frame: &[u8]) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let mut tx = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (mut rx, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
    let _ = tx.set_nodelay(true);
    let len = frame.len();
    let (done_tx, done_rx) = mpsc::channel::<Instant>();
    let reader = std::thread::spawn(move || {
        let mut buf = vec![0u8; len];
        while rx.read_exact(&mut buf).is_ok() {
            if done_tx.send(Instant::now()).is_err() {
                break;
            }
        }
    });
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut result = Ok(());
    while samples.len() < 5 || (start.elapsed() < BUDGET && samples.len() < 10_000) {
        let t = Instant::now();
        if let Err(e) = tx.write_all(frame) {
            result = Err(format!("socket write: {e}"));
            break;
        }
        match done_rx.recv() {
            Ok(end) => samples.push(end.duration_since(t).as_secs_f64()),
            Err(_) => {
                result = Err("socket reader ended early".into());
                break;
            }
        }
    }
    drop(tx);
    reader
        .join()
        .map_err(|_| "socket reader panicked".to_string())?;
    result?;
    Ok(len as f64 / median(&samples).expect("five samples") / 1e9)
}

/// Protocol-core cost of one round, from five `NodeCore`s over `SimNet`.
#[derive(Debug, Clone)]
pub struct CoreCost {
    /// Rounds driven.
    pub rounds: usize,
    /// `on_message` plus `on_tick` time of all five cores per round, µs.
    pub handler_us_per_round: f64,
    /// Messages delivered per round, heartbeats excluded.
    pub msgs_per_round: f64,
}

/// Five cores over one `SimNet` with a 1 ms step, timing only the cores'
/// own handlers.
struct SimGroup {
    net: SimNet,
    cores: Vec<NodeCore>,
    now: SimTime,
    /// Time spent inside `on_message` and `on_tick`.
    busy: Duration,
    /// Messages delivered between cores, heartbeats excluded.
    msgs: u64,
}

impl SimGroup {
    const STEP_MS: f64 = 1.0;

    /// Delivers `msg` from `from` to core `to` and queues its sends.
    fn deliver(&mut self, to: usize, from: NodeId, msg: Msg) {
        let t = Instant::now();
        let actions = self.cores[to].on_message(from, msg, self.now);
        self.busy += t.elapsed();
        self.send_all(to, actions);
    }

    fn send_all(&mut self, from: usize, actions: Vec<Action>) {
        for action in actions {
            if let Action::Send { to, msg } = action {
                // Every member is up; a refused send would show as a stall.
                let _ = self.net.send(NodeId(from), to, msg);
            }
        }
    }

    /// One step: deliver what is due, tick every core, and return the
    /// replies addressed to the ctl client.
    fn step(&mut self) -> Vec<Msg> {
        self.now += SimDuration::from_millis(Self::STEP_MS);
        self.net.advance(self.now);
        for i in 0..self.cores.len() {
            for (from, msg) in self.net.take_due(NodeId(i), self.now) {
                if !matches!(msg, Msg::Heartbeat { .. }) {
                    self.msgs += 1;
                }
                self.deliver(i, from, msg);
            }
            let t = Instant::now();
            let actions = self.cores[i].on_tick(self.now);
            self.busy += t.elapsed();
            self.send_all(i, actions);
        }
        self.net
            .take_due(CTL, self.now)
            .into_iter()
            .map(|(_, m)| m)
            .collect()
    }

    fn meshed(&self) -> bool {
        self.cores.iter().all(|c| {
            (0..NODES)
                .filter(|&p| p != c.id().0)
                .all(|p| c.has_session(NodeId(p)))
        })
    }
}

/// Drives five cores over `SimNet`: mesh, then `rounds` checkpoint
/// rounds, each asked for as the ctl client would.
pub fn core_cost(spec: &ClusterSpec, rounds: usize) -> Result<CoreCost, String> {
    const MAX_STEPS: usize = 5_000;
    let mut sim = SimGroup {
        net: SimNet::new(SimDuration::from_millis(SimGroup::STEP_MS)),
        cores: (0..NODES)
            .map(|i| NodeCore::new(NodeId(i), spec.clone()))
            .collect(),
        now: SimTime::ZERO,
        busy: Duration::ZERO,
        msgs: 0,
    };
    let mut steps = 0;
    while !sim.meshed() {
        sim.step();
        steps += 1;
        if steps > MAX_STEPS {
            return Err("SimNet group never meshed".into());
        }
    }

    sim.busy = Duration::ZERO;
    sim.msgs = 0;
    for want in 1..=rounds as u64 {
        sim.deliver(0, CTL, Msg::CheckpointReq);
        let mut steps = 0;
        loop {
            match sim.step().first() {
                Some(Msg::CheckpointDone { epoch }) if *epoch == want => break,
                Some(other) => return Err(format!("SimNet round {want}: {other:?}")),
                None => {}
            }
            steps += 1;
            if steps > MAX_STEPS {
                return Err(format!("SimNet round {want} never finished"));
            }
        }
    }
    Ok(CoreCost {
        rounds,
        handler_us_per_round: sim.busy.as_secs_f64() * 1e6 / rounds as f64,
        msgs_per_round: sim.msgs as f64 / rounds as f64,
    })
}
