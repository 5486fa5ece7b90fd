//! Chrome trace-event JSON export.
//!
//! Renders a recorded timeline in the [Trace Event Format] consumed by
//! Perfetto and `chrome://tracing`. The mapping:
//!
//! * **pid 0** is the cluster: rounds (tid 0) and rebuilds/scrubs
//!   (tid 1) as nested `B`/`E` duration slices — the round slice wraps
//!   one slice per phase, so the Capture→Transfer→Fold→Commit
//!   decomposition reads directly off the timeline.
//! * **pid n+1** is physical node *n*: transfers appear as `X` complete
//!   slices on the *sender's* process (one track per destination, named
//!   `→ node m`), with launch→arrival duration and byte counts in
//!   `args`; detector verdicts, fences, faults, corruption, and data
//!   loss are `i` instant events.
//! * A `M` metadata record names every process/track, and caller-supplied
//!   run metadata (RNG seed, config) lands in `otherData`.
//!
//! Everything is rendered through the deterministic `serde::Value` tree,
//! so equal event streams produce byte-identical JSON.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeMap;

use serde::Value;

use crate::{Event, TimedEvent};

use dvdc_simcore::time::SimTime;

/// Cluster-wide spans (rounds, rebuilds) live on this pid.
const CLUSTER_PID: u64 = 0;
/// Round slices on the cluster process.
const ROUNDS_TID: u64 = 0;
/// Rebuild/scrub slices on the cluster process.
const REBUILDS_TID: u64 = 1;

/// `[track name, span category, phase category]` of the round and
/// rebuild slice tracks.
const ROUND_TRACK: [&str; 3] = ["rounds", "round", "phase"];
const REBUILD_TRACK: [&str; 3] = ["rebuilds", "rebuild", "rebuild-phase"];

/// Physical node `n` renders as process `n + 1`.
fn node_pid(node: usize) -> u64 {
    node as u64 + 1
}

/// Trace timestamps are microseconds.
fn us(at: SimTime) -> f64 {
    at.as_secs() * 1e6
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn base(
    ph: &str,
    name: &str,
    cat: &str,
    ts: f64,
    pid: u64,
    tid: u64,
    mut extra: Vec<(&str, Value)>,
) -> Value {
    let mut entries = vec![
        ("name", Value::Str(name.to_owned())),
        ("cat", Value::Str(cat.to_owned())),
        ("ph", Value::Str(ph.to_owned())),
        ("ts", Value::F64(ts)),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(tid)),
    ];
    entries.append(&mut extra);
    obj(entries)
}

fn args(entries: Vec<(&str, Value)>) -> (&'static str, Value) {
    ("args", obj(entries))
}

/// Process name of a trace pid: the cluster, or physical node `pid - 1`.
fn process_name(pid: u64) -> String {
    if pid == CLUSTER_PID {
        "cluster".to_owned()
    } else {
        format!("node{}", pid - 1)
    }
}

/// A trace under construction: the rendered records plus the name of
/// every `(pid, tid)` track they landed on. Both exporters build through
/// it, so instants and metadata render one way.
#[derive(Default)]
struct Trace {
    records: Vec<Value>,
    tracks: BTreeMap<(u64, u64), String>,
}

impl Trace {
    /// Names track `(pid, tid)` unless it already has a name.
    fn track(&mut self, pid: u64, tid: u64, name: &str) {
        self.tracks
            .entry((pid, tid))
            .or_insert_with(|| name.to_owned());
    }

    /// Renders `event` as a thread-scoped instant on the `events` track
    /// `(pid, tid)`, named by [`Event::name`], with [`event_args`].
    fn instant(&mut self, ts: f64, pid: u64, tid: u64, event: &Event) {
        self.track(pid, tid, "events");
        let name = event.name();
        self.records.push(base(
            "i",
            name,
            name,
            ts,
            pid,
            tid,
            vec![("s", Value::Str("t".to_owned())), args(event_args(event))],
        ));
    }

    /// The trace envelope: `M` records naming every process in `pids`
    /// or on a track, then every track, then the records.
    fn finish(
        self,
        pids: impl IntoIterator<Item = u64>,
        other_data: Vec<(String, Value)>,
    ) -> Value {
        let mut pids: std::collections::BTreeSet<u64> = pids.into_iter().collect();
        pids.extend(self.tracks.keys().map(|&(pid, _)| pid));
        let meta = |kind: &str, pid: u64, tid: u64, name: String| {
            obj(vec![
                ("name", Value::Str(kind.to_owned())),
                ("ph", Value::Str("M".to_owned())),
                ("pid", Value::U64(pid)),
                ("tid", Value::U64(tid)),
                ("args", obj(vec![("name", Value::Str(name))])),
            ])
        };
        let mut events: Vec<Value> = pids
            .into_iter()
            .map(|pid| meta("process_name", pid, 0, process_name(pid)))
            .collect();
        events.extend(
            self.tracks
                .into_iter()
                .map(|((pid, tid), name)| meta("thread_name", pid, tid, name)),
        );
        events.extend(self.records);
        Value::Object(vec![
            ("traceEvents".to_owned(), Value::Array(events)),
            ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
            ("otherData".to_owned(), Value::Object(other_data)),
        ])
    }
}

/// How a span-closing event ended its span.
fn outcome(event: &Event) -> &'static str {
    match event {
        Event::RoundCommitted { .. } => "committed",
        Event::RebuildCompleted { .. } => "completed",
        _ => "aborted",
    }
}

/// One track of nested slices: an outer span (a round, a rebuild)
/// wrapping one slice per phase, rendered as balanced `B`/`E` pairs.
struct SpanTrack {
    pid: u64,
    tid: u64,
    /// Track name, and the categories of outer and phase slices.
    name: &'static str,
    cat: &'static str,
    phase_cat: &'static str,
    /// `Some(phase slice open?)` while the outer span is open.
    open: Option<bool>,
}

impl SpanTrack {
    /// A track named `[track, outer category, phase category]`.
    fn new(pid: u64, tid: u64, [name, cat, phase_cat]: [&'static str; 3]) -> Self {
        SpanTrack {
            pid,
            tid,
            name,
            cat,
            phase_cat,
            open: None,
        }
    }

    fn push(
        &self,
        trace: &mut Trace,
        ph: &str,
        name: &str,
        cat: &str,
        ts: f64,
        fields: Vec<(&str, Value)>,
    ) {
        let extra = if fields.is_empty() {
            vec![]
        } else {
            vec![args(fields)]
        };
        trace
            .records
            .push(base(ph, name, cat, ts, self.pid, self.tid, extra));
    }

    /// Opens the outer span `event` begins (closing one left open).
    fn begin(&mut self, trace: &mut Trace, ts: f64, event: &Event) {
        let name = match *event {
            Event::RebuildBegin { victim, mode, .. } => format!("rebuild node{victim} ({mode})"),
            Event::RoundBegin { epoch } => format!("round {epoch}"),
            _ => event.name().to_owned(),
        };
        self.close(trace, ts);
        trace.track(self.pid, self.tid, self.name);
        self.push(trace, "B", &name, self.cat, ts, event_args(event));
        self.open = Some(false);
    }

    /// Opens phase slice `name`, closing the previous phase.
    fn phase(&mut self, trace: &mut Trace, ts: f64, name: &str, event: &Event) {
        if let Some(phase_open) = self.open {
            if phase_open {
                self.push(trace, "E", "", self.phase_cat, ts, vec![]);
            }
            self.open = Some(true);
        }
        self.push(trace, "B", name, self.phase_cat, ts, event_args(event));
    }

    /// Closes the open span with `event`'s args and outcome. False when
    /// no span was open (its begin was never seen).
    fn end(&mut self, trace: &mut Trace, ts: f64, event: &Event) -> bool {
        let Some(phase_open) = self.open.take() else {
            return false;
        };
        if phase_open {
            self.push(trace, "E", "", self.phase_cat, ts, vec![]);
        }
        let mut fields = event_args(event);
        fields.push(("outcome", Value::Str(outcome(event).to_owned())));
        self.push(trace, "E", "", self.cat, ts, fields);
        true
    }

    /// Closes whatever is still open at `ts`.
    fn close(&mut self, trace: &mut Trace, ts: f64) {
        if let Some(phase_open) = self.open.take() {
            if phase_open {
                self.push(trace, "E", "", self.phase_cat, ts, vec![]);
            }
            self.push(trace, "E", "", self.cat, ts, vec![]);
        }
    }
}

/// Tracks a launched transfer until its terminal event arrives.
#[derive(Clone, Copy)]
struct OpenTransfer {
    at: SimTime,
    from: usize,
    to: usize,
    bytes: usize,
    token_epoch: u64,
}

/// Builds the full trace envelope as a `Value` tree. See
/// [`chrome_trace`] for the rendered form.
pub fn chrome_trace_value(events: &[TimedEvent], other_data: &[(String, Value)]) -> Value {
    let mut trace = Trace::default();
    trace.track(CLUSTER_PID, ROUNDS_TID, "rounds");
    let mut open_transfers: BTreeMap<u64, OpenTransfer> = BTreeMap::new();
    let mut rounds = SpanTrack::new(CLUSTER_PID, ROUNDS_TID, ROUND_TRACK);
    let mut rebuilds = SpanTrack::new(CLUSTER_PID, REBUILDS_TID, REBUILD_TRACK);

    for te in events {
        let at = te.at;
        let event = &te.event;
        match *event {
            Event::RoundBegin { .. } => rounds.begin(&mut trace, us(at), event),
            Event::RoundPhase { phase, .. } => rounds.phase(&mut trace, us(at), phase, event),
            Event::RoundCommitted { .. } | Event::RoundAborted { .. } => {
                rounds.end(&mut trace, us(at), event);
            }
            Event::RebuildBegin { .. } => rebuilds.begin(&mut trace, us(at), event),
            Event::RebuildPhase { phase, .. } => rebuilds.phase(&mut trace, us(at), phase, event),
            Event::RebuildCompleted { .. } | Event::RebuildAborted { .. } => {
                rebuilds.end(&mut trace, us(at), event);
            }
            Event::TransferLaunched {
                id,
                from,
                to,
                bytes,
                token_epoch,
            } => {
                open_transfers.insert(
                    id,
                    OpenTransfer {
                        at,
                        from,
                        to,
                        bytes,
                        token_epoch,
                    },
                );
            }
            Event::TransferArrived { id, .. }
            | Event::TransferFenced { id, .. }
            | Event::TransferDropped { id, .. } => {
                let outcome = match event {
                    Event::TransferArrived { .. } => "arrived",
                    Event::TransferFenced { .. } => "fenced",
                    _ => "dropped",
                };
                if let Some(open) = open_transfers.remove(&id) {
                    let pid = node_pid(open.from);
                    let tid = open.to as u64 + 1;
                    trace.track(pid, tid, &format!("\u{2192} node{}", open.to));
                    let dur = te.at.as_secs() - open.at.as_secs();
                    let mut fields = vec![("dur", Value::F64(dur * 1e6))];
                    let mut arg_fields = vec![
                        ("id", Value::U64(id)),
                        ("bytes", Value::U64(open.bytes as u64)),
                        ("outcome", Value::Str(outcome.to_owned())),
                    ];
                    if open.token_epoch != crate::event::NO_TOKEN {
                        arg_fields.push(("token_epoch", Value::U64(open.token_epoch)));
                    }
                    fields.push(args(arg_fields));
                    trace.records.push(base(
                        "X",
                        &format!("xfer node{} \u{2192} node{}", open.from, open.to),
                        "transfer",
                        us(open.at),
                        pid,
                        tid,
                        fields,
                    ));
                }
            }
            Event::TransferRetried { id, attempt } => {
                if let Some(open) = open_transfers.get(&id).copied() {
                    let pid = node_pid(open.from);
                    trace.track(pid, 0, "events");
                    trace.records.push(base(
                        "i",
                        "transfer_retry",
                        "transfer",
                        us(at),
                        pid,
                        0,
                        vec![
                            ("s", Value::Str("p".to_owned())),
                            args(vec![
                                ("id", Value::U64(id)),
                                ("attempt", Value::U64(attempt as u64)),
                            ]),
                        ],
                    ));
                }
            }
            Event::ScrubCompleted { .. } => {
                trace.track(CLUSTER_PID, REBUILDS_TID, "rebuilds");
                trace.instant(us(at), CLUSTER_PID, REBUILDS_TID, event);
            }
            Event::HeartbeatArrived { node }
            | Event::Suspected { node }
            | Event::Confirmed { node }
            | Event::Refuted { node }
            | Event::FenceRaised { node, .. }
            | Event::FenceReadmitted { node, .. }
            | Event::CorruptionInjected { node, .. }
            | Event::DataLoss { node, .. }
            | Event::SessionEstablished { peer: node }
            | Event::SessionRejected { peer: node, .. }
            | Event::StaleDropped { from: node, .. }
            | Event::PayloadDropped { from: node }
            | Event::ResyncServed { peer: node }
            | Event::FaultInjected { node, .. }
            | Event::NodeHealed { node }
            | Event::JobRestarted { node } => {
                trace.instant(us(at), node_pid(node), 0, event);
            }
        }
    }

    trace.finish([], other_data.to_vec())
}

/// Renders the trace envelope as JSON text. `other_data` entries (RNG
/// seed, config description, …) are embedded verbatim under `otherData`.
pub fn chrome_trace(events: &[TimedEvent], other_data: &[(String, Value)]) -> String {
    serde_json::to_string_pretty(&chrome_trace_value(events, other_data))
        .expect("rendering is total")
}

/// One node's scraped trace-ring tail, as fetched by
/// `Msg::TraceTailReq`/`TraceTailResp`: the node's identity, its clock
/// reading *at scrape time*, and the buffered events (oldest first).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTail {
    /// Node index (becomes the trace pid lane).
    pub node: usize,
    /// The node's own clock when the tail was scraped. Each daemon's
    /// clock starts at its own process start, so these anchors — all
    /// sampled at (nearly) the same wall instant by the scraper — are
    /// what lets the merge rebase every node onto one axis.
    pub now: SimTime,
    /// Older events evicted from the ring before the scrape.
    pub dropped: u64,
    /// The buffered tail, oldest first.
    pub events: Vec<TimedEvent>,
}

/// Argument fields for rendering any event generically (instant `args`).
fn event_args(event: &Event) -> Vec<(&'static str, Value)> {
    let n = |v: usize| Value::U64(v as u64);
    match *event {
        Event::RoundBegin { epoch } | Event::RoundCommitted { epoch } => {
            vec![("epoch", Value::U64(epoch))]
        }
        Event::RoundPhase { epoch, phase } => vec![
            ("epoch", Value::U64(epoch)),
            ("phase", Value::Str(phase.to_owned())),
        ],
        Event::RoundAborted { epoch, phase } => vec![
            ("epoch", Value::U64(epoch)),
            ("phase", Value::Str(phase.to_owned())),
        ],
        Event::TransferLaunched {
            id,
            from,
            to,
            bytes,
            token_epoch,
        } => {
            let mut fields = vec![
                ("id", Value::U64(id)),
                ("from", n(from)),
                ("to", n(to)),
                ("bytes", n(bytes)),
            ];
            if token_epoch != crate::event::NO_TOKEN {
                fields.push(("token_epoch", Value::U64(token_epoch)));
            }
            fields
        }
        Event::TransferArrived {
            id,
            from,
            to,
            bytes,
        }
        | Event::TransferDropped {
            id,
            from,
            to,
            bytes,
        } => vec![
            ("id", Value::U64(id)),
            ("from", n(from)),
            ("to", n(to)),
            ("bytes", n(bytes)),
        ],
        Event::TransferFenced {
            id,
            node,
            held_epoch,
            current_epoch,
        } => vec![
            ("id", Value::U64(id)),
            ("node", n(node)),
            ("held_epoch", Value::U64(held_epoch)),
            ("current_epoch", Value::U64(current_epoch)),
        ],
        Event::TransferRetried { id, attempt } => vec![
            ("id", Value::U64(id)),
            ("attempt", Value::U64(attempt as u64)),
        ],
        Event::HeartbeatArrived { node }
        | Event::Suspected { node }
        | Event::Confirmed { node }
        | Event::Refuted { node }
        | Event::NodeHealed { node }
        | Event::JobRestarted { node } => vec![("node", n(node))],
        Event::FenceRaised { node, epoch } | Event::FenceReadmitted { node, epoch } => {
            vec![("node", n(node)), ("epoch", Value::U64(epoch))]
        }
        Event::RebuildBegin {
            victim,
            mode,
            epoch,
        } => vec![
            ("victim", n(victim)),
            ("mode", Value::Str(mode.to_owned())),
            ("epoch", Value::U64(epoch)),
        ],
        Event::RebuildPhase { victim, phase } => vec![
            ("victim", n(victim)),
            ("phase", Value::Str(phase.to_owned())),
        ],
        Event::RebuildCompleted { victim } => vec![("victim", n(victim))],
        Event::RebuildAborted { victim, phase } => vec![
            ("victim", n(victim)),
            ("phase", Value::Str(phase.to_owned())),
        ],
        Event::ScrubCompleted {
            verified,
            corrupt,
            repaired,
        } => vec![
            ("verified", n(verified)),
            ("corrupt", n(corrupt)),
            ("repaired", n(repaired)),
        ],
        Event::CorruptionInjected { node, blocks } => {
            vec![("node", n(node)), ("blocks", n(blocks))]
        }
        Event::DataLoss { node, group } => vec![("node", n(node)), ("group", n(group))],
        Event::SessionEstablished { peer } | Event::ResyncServed { peer } => {
            vec![("peer", n(peer))]
        }
        Event::SessionRejected {
            peer,
            required_epoch,
        } => vec![
            ("peer", n(peer)),
            ("required_epoch", Value::U64(required_epoch)),
        ],
        Event::StaleDropped {
            from,
            held_epoch,
            current_epoch,
        } => vec![
            ("from", n(from)),
            ("held_epoch", Value::U64(held_epoch)),
            ("current_epoch", Value::U64(current_epoch)),
        ],
        Event::PayloadDropped { from } => vec![("from", n(from))],
        Event::FaultInjected { node, kind } => {
            vec![("node", n(node)), ("kind", Value::Str(kind.to_owned()))]
        }
    }
}

/// Merges the scraped trace tails of several live nodes into one
/// Chrome/Perfetto trace `Value` tree: one pid lane per node (`pid =
/// node + 1`), rounds as `B`/`E` slices on tid 0, rebuilds on tid 1,
/// everything else as instants on tid 2.
///
/// Each daemon's clock is anchored at its own process start, so raw
/// timestamps from different nodes do not line up. The scraper samples
/// every node's `now` at (nearly) the same wall instant; the merge
/// rebases each event to `at - now + max(now)`, aligning the scrape
/// instants at the right edge. Epoch numbers in slice `args` then
/// correlate the same round across node lanes.
///
/// Output is deterministic: tails are processed in ascending node order
/// and every map is a `BTreeMap`, so a fixed input yields byte-identical
/// JSON regardless of the order `tails` is supplied in.
pub fn merge_node_traces_value(tails: &[NodeTail], other_data: &[(String, Value)]) -> Value {
    let mut sorted: Vec<&NodeTail> = tails.iter().collect();
    sorted.sort_by_key(|t| t.node);
    sorted.dedup_by_key(|t| t.node);
    let max_now = sorted
        .iter()
        .map(|t| t.now.as_secs())
        .fold(0.0f64, f64::max);

    const ROUNDS: u64 = 0;
    const REBUILDS: u64 = 1;
    const INSTANTS: u64 = 2;

    let mut trace = Trace::default();
    for tail in &sorted {
        let pid = node_pid(tail.node);
        let rebase = |at: SimTime| (at.as_secs() - tail.now.as_secs() + max_now) * 1e6;
        let mut rounds = SpanTrack::new(pid, ROUNDS, ROUND_TRACK);
        let mut rebuilds = SpanTrack::new(pid, REBUILDS, REBUILD_TRACK);
        for te in &tail.events {
            let ts = rebase(te.at);
            let event = &te.event;
            let spanned = match *event {
                Event::RoundBegin { .. } => {
                    rounds.begin(&mut trace, ts, event);
                    true
                }
                Event::RebuildBegin { .. } => {
                    rebuilds.begin(&mut trace, ts, event);
                    true
                }
                Event::RoundCommitted { .. } | Event::RoundAborted { .. } => {
                    rounds.end(&mut trace, ts, event)
                }
                Event::RebuildCompleted { .. } | Event::RebuildAborted { .. } => {
                    rebuilds.end(&mut trace, ts, event)
                }
                _ => false,
            };
            // Everything else — including an end whose begin fell out of
            // the ring, which must not render as an unbalanced E — is an
            // instant.
            if !spanned {
                trace.instant(ts, pid, INSTANTS, event);
            }
        }
        // Close any slice still open at the scrape instant at the ruler's
        // right edge, so in-flight rounds render with real extent.
        rounds.close(&mut trace, max_now * 1e6);
        rebuilds.close(&mut trace, max_now * 1e6);
    }

    let mut other = other_data.to_vec();
    other.push((
        "dropped_per_node".to_owned(),
        Value::Object(
            sorted
                .iter()
                .map(|t| (format!("node{}", t.node), Value::U64(t.dropped)))
                .collect(),
        ),
    ));
    trace.finish(sorted.iter().map(|t| node_pid(t.node)), other)
}

/// [`merge_node_traces_value`] rendered as JSON text.
pub fn merge_node_traces(tails: &[NodeTail], other_data: &[(String, Value)]) -> String {
    serde_json::to_string_pretty(&merge_node_traces_value(tails, other_data))
        .expect("rendering is total")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, SyncRingRecorder};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn round_with_phases_nests_and_closes() {
        let rec = SyncRingRecorder::unbounded();
        rec.record(t(1.0), &Event::RoundBegin { epoch: 3 });
        rec.record(
            t(1.0),
            &Event::RoundPhase {
                epoch: 3,
                phase: "Capture",
            },
        );
        rec.record(
            t(1.5),
            &Event::RoundPhase {
                epoch: 3,
                phase: "Transfer",
            },
        );
        rec.record(t(2.0), &Event::RoundCommitted { epoch: 3 });
        let json = chrome_trace(&rec.events(), &[]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("round 3"));
        assert!(json.contains("Capture"));
        assert!(json.contains("Transfer"));
        // 2 B(phase) + 1 B(round) balanced by 2 E(phase) + 1 E(round).
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 3);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 3);
    }

    #[test]
    fn transfer_becomes_complete_slice_with_duration() {
        let rec = SyncRingRecorder::unbounded();
        rec.record(
            t(1.0),
            &Event::TransferLaunched {
                id: 9,
                from: 2,
                to: 5,
                bytes: 4096,
                token_epoch: 0,
            },
        );
        rec.record(
            t(1.25),
            &Event::TransferArrived {
                id: 9,
                from: 2,
                to: 5,
                bytes: 4096,
            },
        );
        let json = chrome_trace(&rec.events(), &[]);
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"dur\": 250000.0"));
        assert!(json.contains("xfer node2 \u{2192} node5"));
        assert!(json.contains("\"bytes\": 4096"));
    }

    fn tail(node: usize, now: f64, events: Vec<(f64, Event)>) -> NodeTail {
        NodeTail {
            node,
            now: t(now),
            dropped: 0,
            events: events
                .into_iter()
                .enumerate()
                .map(|(seq, (at, event))| TimedEvent {
                    at: t(at),
                    seq: seq as u64,
                    event,
                })
                .collect(),
        }
    }

    #[test]
    fn merged_trace_rebases_clocks_and_is_input_order_invariant() {
        // Node 0 started 1s before node 2: its clock reads 5.0 at the
        // scrape instant where node 2's reads 4.0. The same round-7
        // commit happened at the same wall instant on both.
        let a = tail(
            0,
            5.0,
            vec![
                (3.0, Event::RoundBegin { epoch: 7 }),
                (4.0, Event::RoundCommitted { epoch: 7 }),
            ],
        );
        let b = tail(
            2,
            4.0,
            vec![
                (2.0, Event::RoundBegin { epoch: 7 }),
                (3.0, Event::RoundCommitted { epoch: 7 }),
                (3.5, Event::Suspected { node: 1 }),
            ],
        );
        let fwd = merge_node_traces(&[a.clone(), b.clone()], &[]);
        let rev = merge_node_traces(&[b, a], &[]);
        assert_eq!(fwd, rev, "merge must not depend on scrape order");
        // Both commits land at the same rebased instant (4.0s = 4e6 us).
        assert_eq!(fwd.matches("\"ts\": 4000000.0").count(), 2);
        // One pid lane per node, named.
        assert!(fwd.contains("\"name\": \"node0\""));
        assert!(fwd.contains("\"name\": \"node2\""));
        assert!(fwd.contains("\"suspected\""));
        assert!(fwd.contains("\"dropped_per_node\""));
    }

    #[test]
    fn merged_trace_is_deterministic_and_closes_truncated_spans() {
        // A commit whose begin fell out of the ring must not emit an
        // unbalanced E; an open round at scrape time is closed at the
        // right edge.
        let tails = [
            tail(1, 2.0, vec![(1.0, Event::RoundCommitted { epoch: 3 })]),
            tail(4, 2.0, vec![(1.5, Event::RoundBegin { epoch: 4 })]),
        ];
        let one = merge_node_traces(&tails, &[]);
        let two = merge_node_traces(&tails, &[]);
        assert_eq!(one, two, "fixed input must render byte-identically");
        let begins = one.matches("\"ph\": \"B\"").count();
        let ends = one.matches("\"ph\": \"E\"").count();
        assert_eq!(begins, 1);
        assert_eq!(ends, 1, "open round closes at the scrape edge");
        assert!(
            one.contains("\"round_committed\""),
            "orphan commit is an instant"
        );
    }

    #[test]
    fn instants_and_metadata_round_trip() {
        let rec = SyncRingRecorder::unbounded();
        rec.record(t(0.5), &Event::Suspected { node: 4 });
        rec.record(t(0.6), &Event::Confirmed { node: 4 });
        rec.record(t(0.6), &Event::FenceRaised { node: 4, epoch: 1 });
        let json = chrome_trace(&rec.events(), &[("seed".to_owned(), Value::U64(42))]);
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("suspected"));
        assert!(json.contains("confirmed"));
        assert!(json.contains("fence_raised"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("node4"));
        assert!(json.contains("\"seed\": 42"));
    }
}
