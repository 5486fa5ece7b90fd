//! Live-cluster DVDC benchmark.
//!
//! Boots a k=4 + m=1 XOR group of five real `NodeRuntime`s on loopback
//! TCP in this process, drives it from outside through the public ctl
//! client, and reports end-to-end and per-layer metrics. See
//! `perfbench/README.md` for the workloads and what each metric means.
//!
//! Usage:
//! `dvdc-perfbench --workload <ckpt-small|ckpt-large|rebuild> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics with observability off; `--trace 1` turns the
//! observability plane on, reports the per-layer metrics and writes a
//! Chrome trace.

mod cluster;
mod drive;
mod kernels;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dvdc::protocol::node_core::{ClusterSpec, Note};
use dvdc_observe::registry::MetricsHub;

use cluster::{Group, COORD, DATA, NODES};
use drive::{ms, Client, CycleRec, RoundRec};
use stats::{median, quantile, summarize, Summary};

/// Group boots per end-to-end run; `setup_s` is their median.
const SETUP_BOOTS: usize = 5;
/// Untimed rounds after set-up, so lazy allocation is done before timing.
const WARMUP_ROUNDS: usize = 5;
/// Share of a traced run spent on the untraced baseline that
/// `observe.trace_overhead_pct` compares against.
const BASELINE_SHARE: f64 = 0.2;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    CkptSmall,
    CkptLarge,
    Rebuild,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "ckpt-small" => Some(Workload::CkptSmall),
            "ckpt-large" => Some(Workload::CkptLarge),
            "rebuild" => Some(Workload::Rebuild),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::CkptSmall => "ckpt-small",
            Workload::CkptLarge => "ckpt-large",
            Workload::Rebuild => "rebuild",
        }
    }

    fn image_len(self) -> usize {
        match self {
            Workload::CkptSmall => 4 << 10,
            Workload::CkptLarge | Workload::Rebuild => 4 << 20,
        }
    }

    /// Seconds of back-to-back rounds between two kill → rebuild →
    /// rejoin cycles. Every workload runs both, so every end-to-end
    /// metric is measured on every workload, and alternating them spreads
    /// each metric's samples over the whole run. A cycle takes about
    /// 1.6 s (4 KiB) to 2.1 s (4 MiB), most of it detector wait, so short
    /// bursts are what leave a run enough cycles for a steady rebuild
    /// median: at 50 s, about 24, 14 and 17 cycles.
    fn burst_secs(self) -> f64 {
        match self {
            Workload::CkptSmall => 0.35,
            Workload::CkptLarge => 1.0,
            Workload::Rebuild => 0.4,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The group's cluster id (and so its image bytes) from the seed.
fn cluster_id(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident memory of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Boots the group `boots` times; each boot is timed from launch until
/// every node has noted a session with all four peers, and must then
/// report a full mesh in its status. Keeps the last group, warmed up by
/// `WARMUP_ROUNDS` rounds.
fn set_up(
    spec: &ClusterSpec,
    seed: u64,
    traced: bool,
    boots: usize,
) -> Result<(Client, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..boots {
        let t0 = Instant::now();
        let group = Group::launch(spec.clone(), seed, traced)?;
        let meshed = group.wait_mesh(Duration::from_secs(30))?;
        times.push((meshed - t0).as_secs_f64());
        if !group.whole()? {
            return Err("a freshly meshed node does not report a full mesh".into());
        }
        kept = Some(group);
    }
    let group = kept.ok_or("no boots")?;
    let mut client = Client::new(group, spec.clone(), seed, traced);
    for _ in 0..WARMUP_ROUNDS {
        client.round();
    }
    Ok((client, times))
}

/// Rounds back to back until `secs` have passed. Returns the records
/// and the wall time they took.
fn round_phase(client: &mut Client, secs: f64) -> (Vec<RoundRec>, f64) {
    let start = Instant::now();
    let mut recs = Vec::new();
    while start.elapsed().as_secs_f64() < secs {
        recs.push(client.round());
    }
    (recs, start.elapsed().as_secs_f64())
}

/// Cycles back to back for about `secs`: at least one, and another
/// only while a cycle of mean length still fits.
fn cycle_phase(client: &mut Client, secs: f64) -> Vec<CycleRec> {
    let start = Instant::now();
    let mut recs = Vec::new();
    loop {
        let spent = start.elapsed().as_secs_f64();
        if !recs.is_empty() && spent + spent / recs.len() as f64 > secs {
            return recs;
        }
        recs.push(client.cycle());
    }
}

/// What one run of a workload measured.
struct Measured {
    rounds: Vec<RoundRec>,
    round_wall_s: f64,
    cycles: Vec<CycleRec>,
    /// `(frames, bytes)` sent by all nodes during the round phase.
    round_traffic: (u64, u64),
    /// Link counters accrued during the cycle phase.
    cycle_links: LinkCounts,
}

/// Runs the workload for about `secs`: bursts of back-to-back rounds
/// alternating with cycles, ending after a burst once a cycle of mean
/// length no longer fits.
fn measure(client: &mut Client, workload: Workload, secs: f64) -> Measured {
    let hubs = client.group.hubs.clone();
    let traffic = || {
        (
            counter_sum(&hubs, "transport.frames_out"),
            counter_sum(&hubs, "transport.bytes_out"),
        )
    };
    let start = Instant::now();
    let mut m = Measured {
        rounds: Vec::new(),
        round_wall_s: 0.0,
        cycles: Vec::new(),
        round_traffic: (0, 0),
        cycle_links: LinkCounts(0, 0, 0),
    };
    let mut cycle_s = 0.0;
    loop {
        let before = traffic();
        let (recs, wall) = round_phase(client, workload.burst_secs());
        let after = traffic();
        m.rounds.extend(recs);
        m.round_wall_s += wall;
        m.round_traffic.0 += after.0.saturating_sub(before.0);
        m.round_traffic.1 += after.1.saturating_sub(before.1);

        let spent = start.elapsed().as_secs_f64();
        if !m.cycles.is_empty() && spent + cycle_s / m.cycles.len() as f64 > secs {
            return m;
        }
        let before = link_counters(&hubs);
        let t = Instant::now();
        m.cycles.push(client.cycle());
        cycle_s += t.elapsed().as_secs_f64();
        m.cycle_links.add(&link_counters(&hubs).since(&before));
    }
}

/// Coordinator-side spans of one committed round, ms.
#[derive(Debug, Clone, Copy)]
struct RoundSpans {
    /// `RoundStarted` → `RoundCommitted` at the coordinator.
    core_ms: f64,
    /// `RoundStarted` → the last data node's `CaptureShipped`.
    begin_to_capture_ms: f64,
    /// That capture → `RoundCommitted`.
    capture_to_commit_ms: f64,
    /// The longest capture-timer wait of the round's data nodes: the
    /// `window_secs` their `CaptureShipped` notes carry, taken before
    /// the capture is encoded and sent.
    capture_wait_ms: f64,
}

/// Matches each committed round against the notes of its group and
/// checks that the coordinator committed exactly the epochs the client
/// saw. Returns `(client round ms, spans)` per matched round.
fn round_spans(client: &mut Client, recs: &[RoundRec]) -> Vec<(f64, RoundSpans)> {
    let mine: Vec<&RoundRec> = recs
        .iter()
        .filter(|r| r.group_gen == client.group_gen && r.epoch.is_some())
        .collect();
    // The coordinator notes a commit just after writing the reply.
    if let Some(last) = mine.last().and_then(|r| r.epoch) {
        client.group.log.wait_for(0, Duration::from_secs(1), |s| {
            s.node == COORD && s.note == Note::RoundCommitted { epoch: last }
        });
    }
    #[derive(Default)]
    struct EpochNotes {
        started: Option<Instant>,
        committed: Option<Instant>,
        last_capture: Option<Instant>,
        capture_wait_ms: f64,
    }
    let mut seen: BTreeMap<u64, EpochNotes> = BTreeMap::new();
    for s in client.group.log.since(0) {
        match s.note {
            Note::RoundStarted { epoch } if s.node == COORD => {
                seen.entry(epoch).or_default().started.get_or_insert(s.at);
            }
            Note::RoundCommitted { epoch } if s.node == COORD => {
                seen.entry(epoch).or_default().committed.get_or_insert(s.at);
            }
            Note::CaptureShipped { epoch, window_secs } => {
                let e = seen.entry(epoch).or_default();
                e.last_capture = e.last_capture.max(Some(s.at));
                e.capture_wait_ms = e.capture_wait_ms.max(window_secs * 1e3);
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for r in mine {
        let epoch = r.epoch.expect("filtered to committed rounds");
        let Some(&EpochNotes {
            started: Some(started),
            committed: Some(committed),
            last_capture: cap,
            capture_wait_ms,
        }) = seen.get(&epoch)
        else {
            client.violations.push(format!(
                "client saw epoch {epoch} commit but the coordinator noted no such round"
            ));
            continue;
        };
        let Some(cap) = cap else { continue };
        out.push((
            r.ms(),
            RoundSpans {
                core_ms: ms(committed - started),
                begin_to_capture_ms: ms(cap.saturating_duration_since(started)),
                capture_wait_ms,
                capture_to_commit_ms: ms(committed.saturating_duration_since(cap)),
            },
        ));
    }
    out
}

/// One metric of the final line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Everything the rounds of one phase yield.
struct RoundStats {
    summary: Summary,
    committed: usize,
    wall_s: f64,
    /// Time spent in rounds that failed or stalled.
    failed_s: f64,
}

impl RoundStats {
    fn new(recs: &[RoundRec], wall_s: f64) -> Result<RoundStats, String> {
        let samples: Vec<f64> = recs.iter().map(RoundRec::ms).collect();
        Ok(RoundStats {
            summary: summarize(&samples).ok_or("no rounds ran")?,
            committed: recs.iter().filter(|r| r.epoch.is_some()).count(),
            wall_s,
            failed_s: recs
                .iter()
                .filter(|r| r.epoch.is_none())
                .map(|r| r.ms() / 1e3)
                .fold(0.0, |a, b| a + b),
        })
    }

    /// Committed rounds per second of the phase's wall time, not
    /// counting time spent in failed rounds: those are counted in
    /// `failed` and enter the latency samples at the timeout, so a rare
    /// 2 s stall does not also swing the throughput figure.
    fn rounds_per_s(&self) -> f64 {
        self.committed as f64 / (self.wall_s - self.failed_s)
    }
}

/// Exact percentiles of `samples` at a few fixed ranks, for the report.
fn ladder(samples: &[f64]) -> String {
    let at = |q: f64| quantile(samples, q).unwrap_or(f64::NAN);
    format!(
        "p90={:.4} p99={:.4} p99.9={:.4} max={:.4}",
        at(0.90),
        at(0.99),
        at(0.999),
        at(1.0)
    )
}

fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.filter(|x| x.is_finite())
        .ok_or_else(|| format!("no samples for {what}"))
}

fn describe(name: &str, unit: &str, s: &Summary) -> String {
    let tail = match s.tail {
        Some(t) => format!("p{:.1}={:.4} {unit}", t.pct, t.value),
        None => "tail: fewer than 11 samples".to_string(),
    };
    format!("{name}: p50={:.4} {unit} {tail} n={}", s.p50, s.n)
}

/// Sum of `name` counters over every node's registry.
fn counter_sum(hubs: &[MetricsHub], name: &str) -> u64 {
    hubs.iter()
        .map(|h| h.snapshot().counter(name).unwrap_or(0))
        .sum()
}

/// Samples every per-peer write-queue gauge each millisecond and keeps
/// the highest depth seen.
struct QueueSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<i64>,
}

impl QueueSampler {
    fn start(hubs: &[MetricsHub]) -> QueueSampler {
        let gauges: Vec<_> = hubs
            .iter()
            .enumerate()
            .flat_map(|(id, hub)| {
                (0..NODES)
                    .filter(move |&p| p != id)
                    .map(move |p| hub.gauge(&format!("transport.write_queue.peer{p}")))
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut max = 0;
            while !flag.load(Ordering::Relaxed) {
                max = gauges.iter().map(|g| g.get()).fold(max, i64::max);
                std::thread::sleep(Duration::from_millis(1));
            }
            max
        });
        QueueSampler { stop, handle }
    }

    fn finish(self) -> i64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or(0)
    }
}

struct Outcome {
    metrics: Vec<Metric>,
    report: Vec<String>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

/// The end-to-end run: observability off.
fn run_end_to_end(args: &Args, spec: &ClusterSpec) -> Result<Outcome, String> {
    let (mut client, setups) = set_up(spec, args.seed, false, SETUP_BOOTS)?;
    let Measured {
        rounds,
        round_wall_s: wall_s,
        cycles,
        ..
    } = measure(&mut client, args.workload, args.seconds);
    let spans = round_spans(&mut client, &rounds);
    let rs = RoundStats::new(&rounds, wall_s)?;
    let rebuild = summarize(&cycles.iter().map(|c| c.rebuild_ms).collect::<Vec<_>>())
        .ok_or("no cycles ran")?;
    let recovery = summarize(&cycles.iter().map(|c| c.recovery_ms).collect::<Vec<_>>())
        .ok_or("no cycles ran")?;
    let setup = summarize(&setups).expect("five boots");
    let round_ms: Vec<f64> = rounds.iter().map(RoundRec::ms).collect();
    let round_p90 = need(quantile(&round_ms, 0.9), "round_p90_ms")?;
    let rss = peak_rss_mb()?;

    let report = vec![
        describe("setup_s", "s", &setup),
        describe("round", "ms", &rs.summary),
        format!("round ladder (ms): {}", ladder(&round_ms)),
        format!(
            "rounds: {} committed of {} in {:.3} s, {:.3} s of it in failed rounds \
             ({:.4}/s counting that time); {} matched to coordinator notes",
            rs.committed,
            rounds.len(),
            rs.wall_s,
            rs.failed_s,
            rs.committed as f64 / rs.wall_s,
            spans.len()
        ),
        describe("rebuild", "ms", &rebuild),
        format!(
            "rebuild ladder (ms): {}",
            ladder(&cycles.iter().map(|c| c.rebuild_ms).collect::<Vec<_>>())
        ),
        describe("recovery", "ms", &recovery),
        format!("peak_rss: {rss:.3} MB"),
    ];
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("setup_s", setup.p50, "s"),
        m("round_p50_ms", rs.summary.p50, "ms"),
        m("round_p90_ms", round_p90, "ms"),
        m("rounds_per_s", rs.rounds_per_s(), "1/s"),
        m("rebuild_p50_ms", rebuild.p50, "ms"),
        m("recovery_p50_ms", recovery.p50, "ms"),
        m("peak_rss_mb", rss, "MB"),
    ];
    Ok(Outcome {
        metrics,
        report,
        attempted: client.attempted,
        failed: client.failed,
        violations: client.violations,
    })
}

/// The traced run: per-layer metrics, the layer budget and the trace.
fn run_traced(args: &Args, spec: &ClusterSpec, out_dir: &str) -> Result<Outcome, String> {
    let mut report = Vec::new();

    // Baseline with observability off, for the tracing overhead.
    let (mut base, _) = set_up(spec, args.seed, false, 1)?;
    let base_secs = BASELINE_SHARE * args.seconds;
    let base_p50 = match args.workload {
        Workload::Rebuild => median(
            &cycle_phase(&mut base, base_secs)
                .iter()
                .map(|c| c.rebuild_ms)
                .collect::<Vec<_>>(),
        ),
        _ => median(
            &round_phase(&mut base, base_secs)
                .0
                .iter()
                .map(RoundRec::ms)
                .collect::<Vec<_>>(),
        ),
    };
    let (mut attempted, mut failed) = (base.attempted, base.failed);
    let mut violations = std::mem::take(&mut base.violations);
    drop(base);

    // The traced group.
    let origin = Instant::now();
    let (mut client, _) = set_up(spec, args.seed, true, 1)?;
    let hubs = client.group.hubs.clone();
    let sampler = QueueSampler::start(&hubs);
    let Measured {
        rounds,
        cycles,
        round_traffic: (round_frames, round_bytes),
        cycle_links: link_counts,
        ..
    } = measure(
        &mut client,
        args.workload,
        (1.0 - BASELINE_SHARE) * args.seconds,
    );
    let write_queue_max = sampler.finish();
    let spans = round_spans(&mut client, &rounds);
    let frame_errors = counter_sum(&hubs, "transport.frame_errors");
    let codec_errors = counter_sum(&hubs, "transport.codec_errors");
    if frame_errors + codec_errors > 0 {
        client.violations.push(format!(
            "{frame_errors} frame errors and {codec_errors} codec errors on the wire"
        ));
    }
    attempted += client.attempted;
    failed += client.failed;
    violations.append(&mut client.violations);

    let notes = client.group.log.since(0);
    let committed = rounds.iter().filter(|r| r.epoch.is_some()).count().max(1) as f64;
    let ok_cycles: Vec<&CycleRec> = cycles.iter().filter(|c| c.ok).collect();
    let cycle_count = cycles.len().max(1) as f64;
    let med = |f: &dyn Fn(&CycleRec) -> Option<f64>| {
        median(&ok_cycles.iter().filter_map(|c| f(c)).collect::<Vec<_>>())
    };
    let traced_p50 = match args.workload {
        Workload::Rebuild => median(&cycles.iter().map(|c| c.rebuild_ms).collect::<Vec<_>>()),
        _ => median(&rounds.iter().map(RoundRec::ms).collect::<Vec<_>>()),
    };
    let round_p50 = need(
        median(&rounds.iter().map(RoundRec::ms).collect::<Vec<_>>()),
        "round",
    )?;
    let span_med =
        |f: &dyn Fn(&(f64, RoundSpans)) -> f64| median(&spans.iter().map(f).collect::<Vec<_>>());
    let ctl_overhead = need(span_med(&|(c, s)| c - s.core_ms), "ctl.overhead_ms")?;
    let capture_wait = need(span_med(&|(_, s)| s.capture_wait_ms), "capture wait")?;
    let begin_to_capture = need(
        span_med(&|(_, s)| s.begin_to_capture_ms),
        "node_core.begin_to_capture_ms",
    )?;
    let capture_to_commit = need(
        span_med(&|(_, s)| s.capture_to_commit_ms),
        "node_core.capture_to_commit_ms",
    )?;

    // Single-layer timings, after the group is gone so nothing contends.
    let mut trace_rounds = rounds.clone();
    trace_rounds.extend(cycles.iter().map(|c| c.round.clone()));
    drop(client);
    let k = kernels::measure(spec.cluster_id, spec.image_len)?;
    let sim_rounds = if spec.image_len > 64 << 10 { 20 } else { 200 };
    let core = kernels::core_cost(spec, sim_rounds)?;

    // Per-round budget: each layer's call time times its calls per round.
    let data = DATA as f64;
    let budget = [
        (
            "node_core handlers (SimNet)",
            core.handler_us_per_round / 1e3,
        ),
        ("capture timer wait (CaptureShipped window)", capture_wait),
        ("ctl (client − coordinator span)", ctl_overhead),
        ("wire encode Payload ×k", data * k.wire_payload_encode_ms),
        ("frame encode ×k", data * k.frame_encode_ms),
        ("socket ×k", data * k.socket_ms()),
        ("frame read ×k", data * k.frame_read_ms),
        ("wire decode Payload ×k", data * k.wire_payload_decode_ms),
    ];
    let explained: f64 = budget.iter().map(|(_, v)| v).sum();
    report.push(format!(
        "layer budget per round against round_p50 {round_p50:.4} ms:"
    ));
    for (name, v) in &budget {
        report.push(format!("  {name}: {v:.4} ms"));
    }
    report.push(format!(
        "  sum {explained:.4} ms = {:.1}% (parity encode is inside the handlers; small \
         frames are left out; work of parallel nodes adds up, so it can pass 100%)",
        explained / round_p50 * 100.0
    ));

    let provenance = provenance(args, spec);
    let path = format!(
        "{out_dir}/trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    );
    let json = trace::chrome_json(origin, &notes, &trace_rounds, &provenance);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
    report.push(format!("trace written to {path}"));

    let overhead = match (traced_p50, base_p50) {
        (Some(t), Some(b)) => Some((t / b - 1.0) * 100.0),
        _ => None,
    };
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("ctl.overhead_ms", ctl_overhead, "ms"),
        m("node_core.begin_to_capture_ms", begin_to_capture, "ms"),
        m("node_core.capture_to_commit_ms", capture_to_commit, "ms"),
        m(
            "node_core.handler_us_per_round",
            core.handler_us_per_round,
            "us",
        ),
        m("node_core.msgs_per_round", core.msgs_per_round, "count"),
        m(
            "runtime.frames_per_round",
            round_frames as f64 / committed,
            "count",
        ),
        m(
            "runtime.bytes_per_round",
            round_bytes as f64 / committed,
            "B",
        ),
        m("runtime.write_queue_max", write_queue_max as f64, "count"),
        m(
            "runtime.connects",
            link_counts.0 as f64 / cycle_count,
            "count",
        ),
        m(
            "runtime.redials",
            link_counts.1 as f64 / cycle_count,
            "count",
        ),
        m(
            "runtime.connect_retries",
            link_counts.2 as f64 / cycle_count,
            "count",
        ),
        m("socket.loopback_gb_s", k.socket_gb_s, "GB/s"),
        m("frame.checksum_gb_s", k.checksum_gb_s, "GB/s"),
        m("frame.encode_ms", k.frame_encode_ms, "ms"),
        m("frame.read_ms", k.frame_read_ms, "ms"),
        m("frame.errors", frame_errors as f64, "count"),
        m("wire.errors", codec_errors as f64, "count"),
        m("wire.payload_encode_ms", k.wire_payload_encode_ms, "ms"),
        m("wire.payload_decode_ms", k.wire_payload_decode_ms, "ms"),
        m("wire.fetch_encode_ms", k.wire_fetch_encode_ms, "ms"),
        m("wire.fetch_decode_ms", k.wire_fetch_decode_ms, "ms"),
        m("parity.encode_ms", k.parity_encode_ms, "ms"),
        m("parity.reconstruct_ms", k.parity_reconstruct_ms, "ms"),
        m(
            "rebuild.fetch_ms",
            need(med(&|c| c.spans.fetch_ms), "rebuild.fetch_ms")?,
            "ms",
        ),
        m(
            "rebuild.decode_ms",
            need(med(&|c| c.spans.decode_ms), "rebuild.decode_ms")?,
            "ms",
        ),
        m(
            "detector.suspect_ms",
            need(med(&|c| c.spans.suspect_ms), "detector.suspect_ms")?,
            "ms",
        ),
        m(
            "detector.confirm_ms",
            need(med(&|c| c.spans.confirm_ms), "detector.confirm_ms")?,
            "ms",
        ),
        m(
            "resync.rejoin_ms",
            need(med(&|c| c.spans.rejoin_ms), "resync.rejoin_ms")?,
            "ms",
        ),
        m(
            "observe.trace_overhead_pct",
            need(overhead, "observe.trace_overhead_pct")?,
            "%",
        ),
        m("budget.explained_pct", explained / round_p50 * 100.0, "%"),
    ];
    report.push(format!(
        "traced: {} rounds, {} cycles ({} ok); SimNet: {} rounds",
        rounds.len(),
        cycles.len(),
        ok_cycles.len(),
        core.rounds
    ));
    Ok(Outcome {
        metrics,
        report,
        attempted,
        failed,
        violations,
    })
}

/// Link counters `(connects, redials, connect_retries)` over all nodes.
struct LinkCounts(u64, u64, u64);

impl LinkCounts {
    fn add(&mut self, other: &LinkCounts) {
        self.0 += other.0;
        self.1 += other.1;
        self.2 += other.2;
    }

    /// Counts accrued since `earlier`.
    fn since(&self, earlier: &LinkCounts) -> LinkCounts {
        LinkCounts(
            self.0.saturating_sub(earlier.0),
            self.1.saturating_sub(earlier.1),
            self.2.saturating_sub(earlier.2),
        )
    }
}

fn link_counters(hubs: &[MetricsHub]) -> LinkCounts {
    LinkCounts(
        counter_sum(hubs, "transport.connects"),
        counter_sum(hubs, "transport.redials"),
        counter_sum(hubs, "transport.connect_retries"),
    )
}

/// Where a result came from: commit, core count, workload and seed.
fn provenance(args: &Args, spec: &ClusterSpec) -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("commit", env("DVDC_BENCH_COMMIT")),
        ("source_sha256", env("DVDC_BENCH_SOURCE")),
        ("nproc", nproc.to_string()),
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("cluster_id", spec.cluster_id.to_string()),
        (
            "group",
            format!("k={} m={}", spec.data_nodes, spec.parity_nodes),
        ),
        ("image_len", spec.image_len.to_string()),
        (
            "capture_ms",
            (spec.capture_delay.as_secs() * 1e3).to_string(),
        ),
        (
            "round_timeout_ms",
            (spec.round_timeout.as_secs() * 1e3).to_string(),
        ),
        (
            "detector_ms",
            format!(
                "hb={} suspicion={} grace={}",
                spec.detector.heartbeat_interval.as_secs() * 1e3,
                spec.detector.timeout.as_secs() * 1e3,
                spec.detector.confirm_grace.as_secs() * 1e3
            ),
        ),
    ]
}

fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn result_line(correct: bool, o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
        o.attempted, o.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: dvdc-perfbench --workload <ckpt-small|ckpt-large|rebuild> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = std::env::var("DVDC_BENCH_OUT").unwrap_or_else(|_| "perfbench/out".into());
    let spec = cluster::spec(cluster_id(args.seed), args.workload.image_len());
    let provenance = provenance(&args, &spec);
    let mut header = String::from("perfbench");
    for (k, v) in &provenance {
        let _ = write!(header, " {k}={v}");
    }
    println!("{header}");

    let outcome = if args.trace {
        run_traced(&args, &spec, &out_dir)
    } else {
        run_end_to_end(&args, &spec)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.report {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, json_number(m.value), m.unit);
    }
    for v in &outcome.violations {
        eprintln!("CORRECTNESS: {v}");
    }
    let correct = outcome.violations.is_empty();
    let line = result_line(correct, &outcome);

    let record = format!(
        "{{\"provenance\": {{{}}}, \"report\": [{}], \"result\": {line}}}\n",
        provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect::<Vec<_>>()
            .join(", "),
        outcome
            .report
            .iter()
            .map(|r| format!("{:?}", r))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let path = format!(
        "{out_dir}/result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("warning: cannot write {path}: {e}");
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
