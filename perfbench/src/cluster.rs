//! One k=4 + m=1 DVDC group hosted in this process: five
//! `NodeRuntime`s on loopback TCP, exactly the daemon's transport.
//!
//! The benchmark instruments nothing inside the program. It passes its
//! own `on_note` callback to every runtime and stamps each protocol note
//! with its own `Instant`, so all five nodes share one time base.

use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dvdc::protocol::node_core::{ClusterSpec, Note};
use dvdc_node::{ctl_status, note_event, NodeMetrics, NodeOptions};
use dvdc_observe::registry::MetricsHub;
use dvdc_observe::{Recorder, SyncRingRecorder};
use dvdc_transport::runtime::{NodeRuntime, ObserveConfig, RuntimeConfig};
use dvdc_vcluster::ids::NodeId;

/// Group size: `DATA` data nodes plus one XOR parity holder.
pub const DATA: usize = 4;
/// Members in the group.
pub const NODES: usize = DATA + 1;
/// The node that coordinates rounds (the lowest live member).
pub const COORD: usize = 0;

/// Bound on every ctl round trip the benchmark makes.
pub const CTL_TIMEOUT: Duration = Duration::from_secs(5);

/// The group's spec: the daemon's defaults for k=4 + m=1, with the
/// benchmark's detector, round timeout and 1 ms capture window.
pub fn spec(cluster_id: u64, image_len: usize) -> ClusterSpec {
    NodeOptions {
        cluster_id,
        data: DATA,
        parity: 1,
        image_len,
        hb_ms: 100.0,
        timeout_ms: 1000.0,
        grace_ms: 500.0,
        round_ms: 2000.0,
        capture_ms: 1.0,
        ..NodeOptions::default()
    }
    .spec()
}

/// One protocol note as the benchmark saw it.
#[derive(Debug, Clone)]
pub struct Stamped {
    /// The emitting node.
    pub node: usize,
    /// When the runtime handed the note to the callback.
    pub at: Instant,
    /// The note.
    pub note: Note,
}

/// Every note of every node, in arrival order.
#[derive(Default)]
pub struct NoteLog {
    notes: Mutex<Vec<Stamped>>,
    arrived: Condvar,
}

impl NoteLog {
    fn push(&self, stamped: Stamped) {
        self.notes.lock().expect("note log poisoned").push(stamped);
        self.arrived.notify_all();
    }

    /// Number of notes so far: a cursor for [`since`](Self::since).
    pub fn len(&self) -> usize {
        self.notes.lock().expect("note log poisoned").len()
    }

    /// Copies of every note from index `from` on.
    pub fn since(&self, from: usize) -> Vec<Stamped> {
        self.notes.lock().expect("note log poisoned")[from..].to_vec()
    }

    /// Waits until a note at index `from` or later satisfies `pred` and
    /// returns it, or `None` after `timeout`.
    pub fn wait_for(
        &self,
        from: usize,
        timeout: Duration,
        pred: impl Fn(&Stamped) -> bool,
    ) -> Option<Stamped> {
        let deadline = Instant::now() + timeout;
        let mut notes = self.notes.lock().expect("note log poisoned");
        let mut scanned = from;
        loop {
            if let Some(hit) = notes[scanned..].iter().find(|s| pred(s)) {
                return Some(hit.clone());
            }
            scanned = notes.len();
            let left = deadline.checked_duration_since(Instant::now())?;
            notes = self
                .arrived
                .wait_timeout(notes, left)
                .expect("note log poisoned")
                .0;
        }
    }
}

struct Member {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

/// A running group. Dropping it stops every member.
pub struct Group {
    spec: ClusterSpec,
    seed: u64,
    addrs: Vec<SocketAddr>,
    members: Vec<Option<Member>>,
    /// Every note of every node, stamped by the benchmark.
    pub log: Arc<NoteLog>,
    /// Per-node metrics registries: live in a traced group, no-op
    /// otherwise. A restarted node keeps its registry.
    pub hubs: Vec<MetricsHub>,
    traced: bool,
}

impl Group {
    /// Binds five loopback listeners and starts a runtime on each.
    /// `traced` turns on the daemon's observability plane: a live
    /// `MetricsHub`, `NodeMetrics` and a trace ring per node.
    pub fn launch(spec: ClusterSpec, seed: u64, traced: bool) -> Result<Group, String> {
        let listeners = (0..NODES)
            .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let addrs = listeners
            .iter()
            .map(|l| l.local_addr().map_err(|e| format!("local addr: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let hubs = (0..NODES)
            .map(|_| {
                if traced {
                    MetricsHub::new()
                } else {
                    MetricsHub::noop()
                }
            })
            .collect();
        let mut group = Group {
            spec,
            seed,
            addrs,
            members: (0..NODES).map(|_| None).collect(),
            log: Arc::new(NoteLog::default()),
            hubs,
            traced,
        };
        for (id, listener) in listeners.into_iter().enumerate() {
            group.start(id, listener);
        }
        Ok(group)
    }

    fn start(&mut self, id: usize, listener: TcpListener) {
        let peers = (0..NODES)
            .filter(|&p| p != id)
            .map(|p| (NodeId(p), self.addrs[p]))
            .collect();
        let jitter_seed = self.seed.wrapping_mul(31).wrapping_add(id as u64);
        let mut config = RuntimeConfig::new(NodeId(id), self.spec.clone(), peers, jitter_seed);
        let ring = self.traced.then(|| Arc::new(SyncRingRecorder::ring(4096)));
        config.observe = ObserveConfig {
            metrics: self.hubs[id].clone(),
            ring: ring.clone(),
        };
        let mut metrics = NodeMetrics::new(&self.hubs[id]);
        let log = Arc::clone(&self.log);
        let stop = Arc::new(AtomicBool::new(false));
        let runtime = NodeRuntime::new(config, listener);
        let run_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let result = runtime.run(run_stop, move |at, note| {
                log.push(Stamped {
                    node: id,
                    at: Instant::now(),
                    note: note.clone(),
                });
                metrics.observe(at, note);
                if let (Some(ring), Some(event)) = (ring.as_deref(), note_event(note)) {
                    ring.record(at, &event);
                }
            });
            if let Err(e) = result {
                eprintln!("node {id}: runtime failed: {e}");
            }
        });
        self.members[id] = Some(Member { stop, handle });
    }

    /// Listen address of node `id`.
    pub fn addr(&self, id: usize) -> SocketAddr {
        self.addrs[id]
    }

    /// Waits until every node of a fresh group has noted a session with
    /// each of its four peers and returns the instant of the note that
    /// completed the mesh.
    pub fn wait_mesh(&self, timeout: Duration) -> Result<Instant, String> {
        let deadline = Instant::now() + timeout;
        let mut cursor = 0;
        let mut sessions: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); NODES];
        loop {
            for s in self.log.since(cursor) {
                cursor += 1;
                if let Note::SessionEstablished { peer } = s.note {
                    sessions[s.node].insert(peer.0);
                    if sessions.iter().all(|p| p.len() == NODES - 1) {
                        return Ok(s.at);
                    }
                }
            }
            let left = deadline
                .checked_duration_since(Instant::now())
                .ok_or("mesh did not form in time")?;
            let _ = self.log.wait_for(cursor, left, |_| true);
        }
    }

    /// True when every node's status reports all four peers established
    /// and nothing suspected, confirmed or held in custody.
    pub fn whole(&self) -> Result<bool, String> {
        for addr in &self.addrs {
            let view = ctl_status(*addr, CTL_TIMEOUT)?;
            if view.peers_established.len() != NODES - 1
                || !view.suspected.is_empty()
                || !view.confirmed.is_empty()
                || !view.custody.is_empty()
            {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Polls [`whole`](Self::whole) until it holds.
    pub fn wait_whole(&self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        while !self.whole()? {
            if Instant::now() >= deadline {
                return Err("group did not become whole in time".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }

    /// The in-process SIGKILL: stops node `id`'s runtime and joins its
    /// event loop. Its listener and sockets close as their threads see
    /// the stop.
    pub fn stop(&mut self, id: usize) {
        if let Some(m) = self.members[id].take() {
            m.stop.store(true, Ordering::Relaxed);
            if m.handle.join().is_err() {
                eprintln!("node {id}: runtime thread panicked");
            }
        }
    }

    /// Restarts node `id` empty (a fresh core, no state) on its old port.
    pub fn restart(&mut self, id: usize) -> Result<(), String> {
        // The stopped runtime's accept thread drops the old listener
        // within one accept poll; retry the bind until the port is free.
        let deadline = Instant::now() + Duration::from_secs(5);
        let listener = loop {
            match TcpListener::bind(self.addrs[id]) {
                Ok(l) => break l,
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("rebind {}: {e}", self.addrs[id]))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        self.start(id, listener);
        Ok(())
    }
}

impl Drop for Group {
    fn drop(&mut self) {
        for m in self.members.iter().flatten() {
            m.stop.store(true, Ordering::Relaxed);
        }
        for id in 0..NODES {
            self.stop(id);
        }
    }
}
