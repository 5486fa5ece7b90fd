//! The one metrics fold, shared by simulated and live runs.
//!
//! [`EventMetrics`] records [`Event`]s into [`MetricsHub`] instruments:
//! a counter per event kind, byte and scrub tallies, and log₂
//! nanosecond histograms for every span the vocabulary carries — round
//! begin→commit, round and rebuild phases, rebuild begin→end (total and
//! by mode), rebuild begin→`Decode` (the fetch) and transfer
//! launch→arrival. The `dvdc-node` daemon feeds it from its protocol
//! notes; the simulator folds a recorded timeline through it in
//! [`metrics_snapshot`]. A sim round and a live round are therefore
//! measured by the same code under the same names.
//!
//! Names follow one scheme: `node.<quantity>` is a total, and
//! `node.<quantity>.<key>` breaks that total down by node (`node3`),
//! group (`group1`), phase or mode (`Capture`, `InPlace`).
//! Histograms end in `_ns`. Snapshots sort by name, so equal event
//! streams render byte-identical JSON (the trace-determinism test relies
//! on this).

use std::collections::BTreeMap;
use std::fmt;

use dvdc_simcore::time::SimTime;

use crate::registry::{Counter, HistogramHandle, MetricsHub, Stamp};
use crate::{Event, TimedEvent};

/// Cap on each open-span map (rounds by epoch, rebuilds by victim,
/// transfers by id). A stream whose spans never close cannot grow the
/// fold without bound: past the cap the lowest key (the oldest epoch or
/// transfer) is forgotten, and its span records no sample.
pub const OPEN_SPAN_CAP: usize = 4096;

/// Every fixed-name counter: one per event kind (keep in step with
/// [`count_name`]), then the byte and scrub tallies. All register up
/// front, so a snapshot reports each quantity — zero until its first
/// event — and a live scrape shows the same set from the start.
const COUNTERS: [&str; 36] = [
    "node.rounds_begun",
    "node.round_phases",
    "node.rounds_committed",
    "node.rounds_aborted",
    "node.transfers_launched",
    "node.transfers_arrived",
    "node.transfers_fenced",
    "node.transfers_retried",
    "node.transfers_dropped",
    "node.heartbeats",
    "node.suspected",
    "node.confirmed",
    "node.refuted",
    "node.fences",
    "node.readmitted",
    "node.rebuilds",
    "node.rebuild_phases",
    "node.rebuilds_completed",
    "node.rebuilds_aborted",
    "node.scrubs",
    "node.corruptions_injected",
    "node.data_loss",
    "node.sessions_established",
    "node.hellos_rejected",
    "node.stale_dropped",
    "node.payloads_dropped",
    "node.resyncs_served",
    "node.faults_injected",
    "node.heals",
    "node.job_restarts",
    "node.transfer_bytes_launched",
    "node.transfer_bytes_completed",
    "node.transfer_bytes_dropped",
    "node.scrub_verified",
    "node.scrub_corrupt",
    "node.scrub_repaired",
];

/// Every fixed-name histogram (nanoseconds).
const HISTOGRAMS: [&str; 4] = [
    "node.round_latency_ns",
    "node.rebuild_fetch_ns",
    "node.rebuild_total_ns",
    "node.transfer_latency_ns",
];

/// The counter that tallies events of this kind.
fn count_name(event: &Event) -> &'static str {
    match event {
        Event::RoundBegin { .. } => "node.rounds_begun",
        Event::RoundPhase { .. } => "node.round_phases",
        Event::RoundCommitted { .. } => "node.rounds_committed",
        Event::RoundAborted { .. } => "node.rounds_aborted",
        Event::TransferLaunched { .. } => "node.transfers_launched",
        Event::TransferArrived { .. } => "node.transfers_arrived",
        Event::TransferFenced { .. } => "node.transfers_fenced",
        Event::TransferRetried { .. } => "node.transfers_retried",
        Event::TransferDropped { .. } => "node.transfers_dropped",
        Event::HeartbeatArrived { .. } => "node.heartbeats",
        Event::Suspected { .. } => "node.suspected",
        Event::Confirmed { .. } => "node.confirmed",
        Event::Refuted { .. } => "node.refuted",
        Event::FenceRaised { .. } => "node.fences",
        Event::FenceReadmitted { .. } => "node.readmitted",
        Event::RebuildBegin { .. } => "node.rebuilds",
        Event::RebuildPhase { .. } => "node.rebuild_phases",
        Event::RebuildCompleted { .. } => "node.rebuilds_completed",
        Event::RebuildAborted { .. } => "node.rebuilds_aborted",
        Event::ScrubCompleted { .. } => "node.scrubs",
        Event::CorruptionInjected { .. } => "node.corruptions_injected",
        Event::DataLoss { .. } => "node.data_loss",
        Event::SessionEstablished { .. } => "node.sessions_established",
        Event::SessionRejected { .. } => "node.hellos_rejected",
        Event::StaleDropped { .. } => "node.stale_dropped",
        Event::PayloadDropped { .. } => "node.payloads_dropped",
        Event::ResyncServed { .. } => "node.resyncs_served",
        Event::FaultInjected { .. } => "node.faults_injected",
        Event::NodeHealed { .. } => "node.heals",
        Event::JobRestarted { .. } => "node.job_restarts",
    }
}

/// The breakdown part of a `node.<quantity>.<key>` name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Node(usize),
    Group(usize),
    Name(&'static str),
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Node(n) => write!(f, "node{n}"),
            Key::Group(g) => write!(f, "group{g}"),
            Key::Name(s) => f.write_str(s),
        }
    }
}

/// An instrument's name: the quantity plus an optional breakdown key.
type Name = (&'static str, Option<Key>);

fn full_name((quantity, key): Name) -> String {
    match key {
        Some(key) => format!("{quantity}.{key}"),
        None => quantity.to_owned(),
    }
}

/// Inserts into an open-span map, evicting the lowest key at the cap.
fn capped_insert<K: Ord, V>(map: &mut BTreeMap<K, V>, key: K, value: V) {
    if map.len() >= OPEN_SPAN_CAP && !map.contains_key(&key) {
        map.pop_first();
    }
    map.insert(key, value);
}

/// Folds [`Event`]s into [`MetricsHub`] instruments (see the module
/// docs for what is measured and how it is named).
///
/// Instruments resolve once per name and are cached, so a recorded
/// event costs map lookups and relaxed atomics. Against a no-op hub,
/// [`record`](Self::record) returns at its first branch.
#[derive(Debug)]
pub struct EventMetrics {
    hub: MetricsHub,
    counters: BTreeMap<Name, Counter>,
    histograms: BTreeMap<Name, HistogramHandle>,
    /// Open rounds: epoch → begin instant.
    rounds: BTreeMap<u64, SimTime>,
    /// Open round phases: epoch → (phase, start).
    round_phases: BTreeMap<u64, (&'static str, SimTime)>,
    /// Open rebuilds: victim → (mode, begin instant).
    rebuilds: BTreeMap<usize, (&'static str, SimTime)>,
    /// Open rebuild phases: victim → (phase, start).
    rebuild_phases: BTreeMap<usize, (&'static str, SimTime)>,
    /// In-flight transfers: id → (launch instant, bytes).
    transfers: BTreeMap<u64, (SimTime, usize)>,
}

impl EventMetrics {
    /// A fold feeding `hub`, with every fixed-name instrument
    /// registered. Breakdown names register on first use.
    pub fn new(hub: &MetricsHub) -> Self {
        let mut fold = EventMetrics {
            hub: hub.clone(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            rounds: BTreeMap::new(),
            round_phases: BTreeMap::new(),
            rebuilds: BTreeMap::new(),
            rebuild_phases: BTreeMap::new(),
            transfers: BTreeMap::new(),
        };
        for quantity in COUNTERS {
            fold.counter((quantity, None));
        }
        for quantity in HISTOGRAMS {
            fold.histogram((quantity, None));
        }
        fold
    }

    /// Rounds begun and not yet committed or aborted (at most
    /// [`OPEN_SPAN_CAP`]).
    pub fn open_rounds(&self) -> usize {
        self.rounds.len()
    }

    fn counter(&mut self, name: Name) -> &Counter {
        let hub = &self.hub;
        self.counters
            .entry(name)
            .or_insert_with(|| hub.counter(&full_name(name)))
    }

    fn histogram(&mut self, name: Name) -> &HistogramHandle {
        let hub = &self.hub;
        self.histograms
            .entry(name)
            .or_insert_with(|| hub.histogram(&full_name(name)))
    }

    /// Adds `n` to the total `quantity` and to its `key` breakdown.
    fn tally(&mut self, quantity: &'static str, key: Key, n: u64) {
        self.counter((quantity, None)).add(n);
        self.counter((quantity, Some(key))).add(n);
    }

    fn span(&mut self, name: Name, from: SimTime, to: SimTime) {
        self.histogram(name)
            .record(Stamp::Sim(to).nanos_since(Stamp::Sim(from)));
    }

    fn close_round_phase(&mut self, epoch: u64, at: SimTime) {
        if let Some((phase, start)) = self.round_phases.remove(&epoch) {
            self.span(("node.round_phase_ns", Some(Key::Name(phase))), start, at);
        }
    }

    fn close_rebuild_phase(&mut self, victim: usize, at: SimTime) {
        if let Some((phase, start)) = self.rebuild_phases.remove(&victim) {
            self.span(("node.rebuild_phase_ns", Some(Key::Name(phase))), start, at);
        }
    }

    /// Folds one event stamped `at`.
    pub fn record(&mut self, at: SimTime, event: &Event) {
        if !self.hub.enabled() {
            return;
        }
        self.counter((count_name(event), None)).inc();
        match *event {
            Event::RoundBegin { epoch } => capped_insert(&mut self.rounds, epoch, at),
            Event::RoundPhase { epoch, phase } => {
                self.close_round_phase(epoch, at);
                capped_insert(&mut self.round_phases, epoch, (phase, at));
            }
            Event::RoundCommitted { epoch } | Event::RoundAborted { epoch, .. } => {
                self.close_round_phase(epoch, at);
                let begun = self.rounds.remove(&epoch);
                if let (Some(begun), Event::RoundCommitted { .. }) = (begun, event) {
                    self.span(("node.round_latency_ns", None), begun, at);
                }
            }
            Event::RebuildBegin { victim, mode, .. } => {
                capped_insert(&mut self.rebuilds, victim, (mode, at));
            }
            Event::RebuildPhase { victim, phase } => {
                self.close_rebuild_phase(victim, at);
                // "Decode" ends the fetch: every fragment is home.
                if phase == "Decode" {
                    if let Some(&(_, begun)) = self.rebuilds.get(&victim) {
                        self.span(("node.rebuild_fetch_ns", None), begun, at);
                    }
                }
                capped_insert(&mut self.rebuild_phases, victim, (phase, at));
            }
            Event::RebuildCompleted { victim } | Event::RebuildAborted { victim, .. } => {
                self.close_rebuild_phase(victim, at);
                let open = self.rebuilds.remove(&victim);
                if let (Some((mode, begun)), Event::RebuildCompleted { .. }) = (open, event) {
                    self.span(("node.rebuild_total_ns", None), begun, at);
                    self.span(("node.rebuild_total_ns", Some(Key::Name(mode))), begun, at);
                }
            }
            Event::TransferLaunched {
                id, from, bytes, ..
            } => {
                capped_insert(&mut self.transfers, id, (at, bytes));
                self.counter(("node.transfers_launched", Some(Key::Node(from))))
                    .inc();
                self.tally(
                    "node.transfer_bytes_launched",
                    Key::Node(from),
                    bytes as u64,
                );
            }
            Event::TransferArrived { id, to, bytes, .. } => {
                if let Some((launched, _)) = self.transfers.remove(&id) {
                    self.span(("node.transfer_latency_ns", None), launched, at);
                }
                self.counter(("node.transfers_arrived", Some(Key::Node(to))))
                    .inc();
                self.tally("node.transfer_bytes_completed", Key::Node(to), bytes as u64);
            }
            Event::TransferFenced { id, .. } => {
                if let Some((_, bytes)) = self.transfers.remove(&id) {
                    self.counter(("node.transfer_bytes_dropped", None))
                        .add(bytes as u64);
                }
            }
            Event::TransferDropped { id, bytes, .. } => {
                self.transfers.remove(&id);
                self.counter(("node.transfer_bytes_dropped", None))
                    .add(bytes as u64);
            }
            Event::Suspected { node }
            | Event::Confirmed { node }
            | Event::Refuted { node }
            | Event::FenceRaised { node, .. } => {
                self.counter((count_name(event), Some(Key::Node(node))))
                    .inc();
            }
            Event::ScrubCompleted {
                verified,
                corrupt,
                repaired,
            } => {
                for (quantity, n) in [
                    ("node.scrub_verified", verified),
                    ("node.scrub_corrupt", corrupt),
                    ("node.scrub_repaired", repaired),
                ] {
                    self.counter((quantity, None)).add(n as u64);
                }
            }
            Event::DataLoss { group, .. } => {
                self.counter(("node.data_loss", Some(Key::Group(group))))
                    .inc();
            }
            _ => {}
        }
    }
}

/// Folds a recorded timeline into a fresh [`MetricsHub`] and renders
/// its snapshot as pretty JSON (`counters`, `gauges`, `histograms`).
pub fn metrics_snapshot(events: &[TimedEvent]) -> String {
    let hub = MetricsHub::new();
    let mut fold = EventMetrics::new(&hub);
    for te in events {
        fold.record(te.at, &te.event);
    }
    hub.snapshot().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn fold(events: &[(f64, Event)]) -> crate::MetricsSnapshot {
        let hub = MetricsHub::new();
        let mut m = EventMetrics::new(&hub);
        for (at, event) in events {
            m.record(t(*at), event);
        }
        hub.snapshot()
    }

    fn phase(epoch: u64, phase: &'static str) -> Event {
        Event::RoundPhase { epoch, phase }
    }

    #[test]
    fn snapshot_aggregates_rounds_and_transfers() {
        let snap = fold(&[
            (0.0, Event::RoundBegin { epoch: 1 }),
            (0.0, phase(1, "Capture")),
            (1.0, phase(1, "Transfer")),
            (
                1.0,
                Event::TransferLaunched {
                    id: 0,
                    from: 0,
                    to: 1,
                    bytes: 100,
                    token_epoch: 0,
                },
            ),
            (
                1.5,
                Event::TransferArrived {
                    id: 0,
                    from: 0,
                    to: 1,
                    bytes: 100,
                },
            ),
            (2.0, Event::RoundCommitted { epoch: 1 }),
        ]);
        assert_eq!(snap.counter("node.rounds_committed"), Some(1));
        assert_eq!(snap.counter("node.rounds_aborted"), Some(0));
        // The round took 2.0 simulated seconds; the mean is exact.
        let round = snap.histogram("node.round_latency_ns").unwrap();
        assert_eq!((round.count, round.mean()), (1, 2e9));
        assert_eq!(snap.counter("node.transfer_bytes_completed"), Some(100));
        // Per-node tallies: node0 sent, node1 received.
        assert_eq!(snap.counter("node.transfers_launched.node0"), Some(1));
        assert_eq!(
            snap.counter("node.transfer_bytes_launched.node0"),
            Some(100)
        );
        assert_eq!(snap.counter("node.transfers_arrived.node1"), Some(1));
        let latency = snap.histogram("node.transfer_latency_ns").unwrap();
        assert_eq!((latency.count, latency.mean()), (1, 5e8));
        // One Capture sample (1 s) and one Transfer sample (1 s, closed
        // by the commit).
        let capture = snap.histogram("node.round_phase_ns.Capture").unwrap();
        assert_eq!((capture.count, capture.mean()), (1, 1e9));
        assert_eq!(
            snap.histogram("node.round_phase_ns.Transfer")
                .map(|h| h.count),
            Some(1)
        );
        let json = metrics_snapshot(&[]);
        assert!(json.contains("\"counters\"") && json.contains("\"histograms\""));
    }

    #[test]
    fn empty_stream_renders_cleanly() {
        let json = metrics_snapshot(&[]);
        assert!(json.contains("\"node.rounds_committed\": 0"));
        assert!(json.contains("\"node.round_latency_ns\""));
        assert!(!json.contains("node.round_phase_ns"));
    }

    #[test]
    fn aborts_close_spans_without_a_latency_sample() {
        let snap = fold(&[
            (0.0, Event::RoundBegin { epoch: 4 }),
            (0.0, phase(4, "Capture")),
            (
                1.0,
                Event::RoundAborted {
                    epoch: 4,
                    phase: "Capture",
                },
            ),
        ]);
        assert_eq!(snap.counter("node.rounds_aborted"), Some(1));
        assert_eq!(snap.histogram("node.round_latency_ns").unwrap().count, 0);
        assert_eq!(
            snap.histogram("node.round_phase_ns.Capture")
                .map(|h| h.count),
            Some(1)
        );
    }

    #[test]
    fn rebuilds_fold_by_mode_and_phase() {
        let snap = fold(&[
            (
                0.0,
                Event::RebuildBegin {
                    victim: 2,
                    mode: "InPlace",
                    epoch: 1,
                },
            ),
            (
                0.0,
                Event::RebuildPhase {
                    victim: 2,
                    phase: "FetchSurvivors",
                },
            ),
            (
                0.5,
                Event::RebuildPhase {
                    victim: 2,
                    phase: "Decode",
                },
            ),
            (1.0, Event::RebuildCompleted { victim: 2 }),
            (1.0, Event::DataLoss { node: 3, group: 1 }),
            (
                1.0,
                Event::ScrubCompleted {
                    verified: 5,
                    corrupt: 2,
                    repaired: 1,
                },
            ),
        ]);
        assert_eq!(snap.counter("node.rebuilds"), Some(1));
        assert_eq!(snap.counter("node.rebuilds_completed"), Some(1));
        let by_mode = snap.histogram("node.rebuild_total_ns.InPlace").unwrap();
        assert_eq!((by_mode.count, by_mode.mean()), (1, 1e9));
        assert_eq!(snap.histogram("node.rebuild_fetch_ns").unwrap().mean(), 5e8);
        for p in ["FetchSurvivors", "Decode"] {
            let name = format!("node.rebuild_phase_ns.{p}");
            assert_eq!(snap.histogram(&name).unwrap().mean(), 5e8, "{name}");
        }
        assert_eq!(snap.counter("node.data_loss.group1"), Some(1));
        assert_eq!(snap.counter("node.scrub_corrupt"), Some(2));
    }

    #[test]
    fn noop_hub_records_nothing_and_open_spans_are_capped() {
        let mut off = EventMetrics::new(&MetricsHub::noop());
        off.record(t(0.0), &Event::RoundBegin { epoch: 1 });
        assert_eq!(off.open_rounds(), 0);

        let mut on = EventMetrics::new(&MetricsHub::new());
        for epoch in 0..(OPEN_SPAN_CAP as u64 + 10) {
            on.record(t(epoch as f64), &Event::RoundBegin { epoch });
        }
        assert_eq!(on.open_rounds(), OPEN_SPAN_CAP);
    }
}
