//! Chrome/Perfetto trace JSON of a traced run, built from the notes the
//! benchmark stamped and the client's own round records: round and
//! capture spans per node, rebuild phases, detector verdicts and resync.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use dvdc::protocol::node_core::Note;

use crate::cluster::{Stamped, COORD, NODES};
use crate::drive::RoundRec;

/// Track of the benchmark's client in the trace.
const CLIENT_TID: usize = NODES;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct Writer {
    origin: Instant,
    events: Vec<String>,
}

impl Writer {
    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    fn span(&mut self, tid: usize, name: &str, start: Instant, end: Instant) {
        let ts = self.us(start);
        let dur = (self.us(end) - ts).max(0.0);
        self.events.push(format!(
            r#"{{"name":"{}","ph":"X","pid":1,"tid":{tid},"ts":{ts:.3},"dur":{dur:.3}}}"#,
            escape(name)
        ));
    }

    fn instant(&mut self, tid: usize, name: &str, at: Instant) {
        self.events.push(format!(
            r#"{{"name":"{}","ph":"i","s":"t","pid":1,"tid":{tid},"ts":{:.3}}}"#,
            escape(name),
            self.us(at)
        ));
    }

    fn thread_name(&mut self, tid: usize, name: &str) {
        self.events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{tid},"args":{{"name":"{}"}}}}"#,
            escape(name)
        ));
    }
}

/// Renders the trace. `origin` is time zero; `other_data` lands under
/// `otherData` (provenance).
pub fn chrome_json(
    origin: Instant,
    notes: &[Stamped],
    rounds: &[RoundRec],
    other_data: &[(&str, String)],
) -> String {
    let mut w = Writer {
        origin,
        events: Vec::new(),
    };
    for tid in 0..NODES {
        w.thread_name(tid, &format!("node {tid}"));
    }
    w.thread_name(CLIENT_TID, "client");

    for r in rounds {
        let name = match r.epoch {
            Some(e) => format!("CheckpointReq epoch {e}"),
            None => "CheckpointReq failed".to_string(),
        };
        w.span(CLIENT_TID, &name, r.sent, r.done);
    }

    let mut round_open: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut rebuild_open: BTreeMap<usize, Instant> = BTreeMap::new();
    for s in notes {
        match &s.note {
            Note::RoundStarted { epoch } if s.node == COORD => {
                round_open.insert(*epoch, s.at);
            }
            Note::RoundCommitted { epoch } if s.node == COORD => {
                if let Some(start) = round_open.remove(epoch) {
                    w.span(s.node, &format!("round {epoch}"), start, s.at);
                }
            }
            Note::CaptureShipped { epoch, window_secs } => {
                let start =
                    s.at.checked_sub(std::time::Duration::from_secs_f64(*window_secs))
                        .unwrap_or(s.at);
                w.span(s.node, &format!("capture {epoch}"), start, s.at);
            }
            Note::RebuildStarted { victim } => {
                rebuild_open.insert(victim.0, s.at);
            }
            Note::RebuildPhase { victim, phase } => {
                if let Some(start) = rebuild_open.insert(victim.0, s.at) {
                    if *phase == "Decode" {
                        w.span(s.node, &format!("rebuild {victim} fetch"), start, s.at);
                    }
                }
            }
            Note::RebuildCompleted { victim, .. } => {
                if let Some(start) = rebuild_open.remove(&victim.0) {
                    w.span(s.node, &format!("rebuild {victim} decode"), start, s.at);
                }
            }
            Note::SessionEstablished { .. } | Note::RoundStarted { .. } => {}
            other => w.instant(s.node, &format!("{other:?}"), s.at),
        }
    }

    let other = other_data
        .iter()
        .map(|(k, v)| format!(r#""{}":"{}""#, escape(k), escape(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{{other}}},\"traceEvents\":[\n{}\n]}}\n",
        w.events.join(",\n")
    )
}
