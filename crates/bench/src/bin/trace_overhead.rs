//! Tracing-layer overhead — what does observability cost the simulator?
//!
//! Four configurations drive the identical checkpoint/recover workload:
//!
//! * `baseline`    — no recorder ever attached (the default protocol).
//! * `noop`        — an explicit [`RecorderHandle::noop`] attached; the
//!   protocol sees `enabled() == false` and must skip every emission,
//!   so this must cost the same as `baseline` (asserted below).
//! * `trace`       — an unbounded [`SyncRingRecorder`] captures the full
//!   event stream.
//! * `trace+audit` — the trace recorder fanned out with the online
//!   [`InvariantAuditor`], the configuration the chaos suites run.
//!
//! Run: `cargo run --release -p dvdc-bench --bin trace_overhead`

use std::rc::Rc;
use std::time::Instant;

use dvdc::placement::GroupPlacement;
use dvdc::protocol::CheckpointProtocol;
use dvdc::protocol::DvdcProtocol;
use dvdc_bench::{render_table, write_json};
use dvdc_checkpoint::strategy::Mode;
use dvdc_observe::audit::InvariantAuditor;
use dvdc_observe::{Fanout, RecorderHandle, SyncRingRecorder};
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::ClusterBuilder;
use dvdc_vcluster::ids::NodeId;
use serde::Serialize;

const ROUNDS: usize = 40;
const REPS: usize = 5;

#[derive(Serialize)]
struct OverheadRow {
    config: &'static str,
    reps: usize,
    rounds_per_rep: usize,
    events_recorded: u64,
    mean_ms: f64,
    min_ms: f64,
    overhead_vs_baseline_pct: f64,
    ns_per_event: Option<f64>,
}

/// The recorder each configuration attaches (`None` = never attached).
fn recorder_for(config: &str) -> (Option<RecorderHandle>, Option<Rc<SyncRingRecorder>>) {
    match config {
        "baseline" => (None, None),
        "noop" => (Some(RecorderHandle::noop()), None),
        "trace" => {
            let buf = Rc::new(SyncRingRecorder::unbounded());
            (Some(RecorderHandle::new(buf.clone())), Some(buf))
        }
        "trace+audit" => {
            let buf = Rc::new(SyncRingRecorder::unbounded());
            let audit = Rc::new(InvariantAuditor::new());
            let fan = Fanout::new(vec![
                RecorderHandle::new(buf.clone()),
                RecorderHandle::new(audit),
            ]);
            (Some(RecorderHandle::new(Rc::new(fan))), Some(buf))
        }
        other => unreachable!("unknown config {other}"),
    }
}

/// One timed rep: `ROUNDS` incremental rounds with guest activity, with a
/// crash + in-place rebuild every eighth round. Returns (elapsed ms,
/// events recorded).
fn rep(config: &'static str) -> (f64, u64) {
    let mut cluster = ClusterBuilder::new()
        .physical_nodes(6)
        .vms_per_node(2)
        .vm_memory(8, 32)
        .writes_per_sec(200.0)
        .build(7);
    let placement =
        GroupPlacement::orthogonal_with_parity(&cluster, 3, 2).expect("6x2 supports k=3, m=2");
    let mut protocol = DvdcProtocol::with_options(
        placement,
        Mode::Incremental,
        true,
        Duration::from_millis(40.0),
    );
    let (recorder, buf) = recorder_for(config);
    if let Some(r) = recorder {
        protocol.set_recorder(r);
    }
    let hub = RngHub::new(7);

    let start = Instant::now();
    protocol.run_round(&mut cluster).unwrap();
    for round in 0..ROUNDS {
        cluster.run_all(Duration::from_secs(0.2), |vm| {
            hub.subhub("w", round as u64)
                .stream_indexed("vm", vm.index() as u64)
        });
        protocol.run_round(&mut cluster).unwrap();
        if round % 8 == 3 {
            let victim = NodeId(round % 6);
            cluster.fail_node(victim);
            protocol.recover(&mut cluster, victim).unwrap();
        }
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    (elapsed_ms, buf.map_or(0, |b| b.recorded()))
}

fn main() {
    let configs = ["baseline", "noop", "trace", "trace+audit"];

    // Warm-up rep per config, then interleave the timed reps so clock
    // drift and cache state spread evenly across configurations.
    for config in configs {
        rep(config);
    }
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut events = [0u64; 4];
    for _ in 0..REPS {
        for (i, config) in configs.iter().enumerate() {
            let (ms, ev) = rep(config);
            times[i].push(ms);
            events[i] = ev;
        }
    }

    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let baseline_min = min(&times[0]);
    let noop_min = min(&times[1]);

    let rows: Vec<OverheadRow> = configs
        .iter()
        .enumerate()
        .map(|(i, &config)| {
            let m = min(&times[i]);
            OverheadRow {
                config,
                reps: REPS,
                rounds_per_rep: ROUNDS,
                events_recorded: events[i],
                mean_ms: mean(&times[i]),
                min_ms: m,
                overhead_vs_baseline_pct: (m / baseline_min - 1.0) * 100.0,
                ns_per_event: (events[i] > 0).then(|| (m - noop_min) * 1e6 / events[i] as f64),
            }
        })
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.to_string(),
                format!("{:.2}", r.min_ms),
                format!("{:.2}", r.mean_ms),
                format!("{:+.1}%", r.overhead_vs_baseline_pct),
                r.events_recorded.to_string(),
                r.ns_per_event.map_or("-".into(), |ns| format!("{ns:.0}")),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "config",
                "min ms",
                "mean ms",
                "vs baseline",
                "events",
                "ns/event"
            ],
            &table
        )
    );
    write_json("trace_overhead", &rows);

    assert!(
        events[2] > 0 && events[3] > 0,
        "recording configs captured no events — the recorder is not wired"
    );
    assert_eq!(events[2], events[3], "fanout must not change the stream");
    // The no-op recorder must be free: the protocol caches `enabled()`
    // and skips every emission, so any measurable gap over the
    // never-attached baseline is a regression. 20% headroom absorbs
    // scheduler noise on shared CI runners.
    assert!(
        noop_min <= baseline_min * 1.20,
        "noop recorder cost {noop_min:.2} ms vs baseline {baseline_min:.2} ms — \
         the disabled path is no longer free"
    );
}
