//! The closed-loop client: one thread, one ctl connection at a time,
//! driving checkpoint rounds and kill → rebuild → rejoin cycles against
//! a live [`Group`], checking every answer as it goes.

use std::time::{Duration, Instant};

use dvdc::protocol::node_core::{ClusterSpec, DigestSource, Msg, Note};
use dvdc_faults::detector::Verdict;
use dvdc_node::ctl_request;
use dvdc_vcluster::ids::NodeId;

use crate::cluster::{Group, Stamped, COORD, CTL_TIMEOUT};

/// The node each cycle stops and restarts: a data node, not the
/// coordinator.
pub const VICTIM: usize = 2;

/// How long a cycle waits for each of its steps before it counts as
/// failed.
const CYCLE_STEP_TIMEOUT: Duration = Duration::from_secs(10);

/// One client-observed round: `CheckpointReq` sent → reply read.
#[derive(Debug, Clone)]
pub struct RoundRec {
    /// Group incarnation the round ran on (see [`Client::relaunch`]).
    pub group_gen: u32,
    /// Request sent.
    pub sent: Instant,
    /// Reply read (or the round given up on).
    pub done: Instant,
    /// The committed epoch; `None` when the round failed.
    pub epoch: Option<u64>,
}

impl RoundRec {
    /// Client-observed round time, ms.
    pub fn ms(&self) -> f64 {
        ms(self.done - self.sent)
    }
}

/// One kill → rebuild → rejoin cycle.
#[derive(Debug, Clone)]
pub struct CycleRec {
    /// The cycle's opening round.
    pub round: RoundRec,
    /// Whether every step finished in time.
    pub ok: bool,
    /// Coordinator's `RebuildStarted` → `RebuildCompleted`, ms (the time
    /// the cycle gave up after, on failure).
    pub rebuild_ms: f64,
    /// Victim stopped → `RebuildCompleted`, ms (same on failure).
    pub recovery_ms: f64,
    /// Phase spans, present when the cycle got that far.
    pub spans: CycleSpans,
}

/// Diagnostic spans of one cycle, all in ms.
#[derive(Debug, Clone, Default)]
pub struct CycleSpans {
    /// Victim stopped → coordinator suspects it.
    pub suspect_ms: Option<f64>,
    /// Suspected → confirmed.
    pub confirm_ms: Option<f64>,
    /// `RebuildStarted` → phase `"Decode"`.
    pub fetch_ms: Option<f64>,
    /// `"Decode"` → `RebuildCompleted`.
    pub decode_ms: Option<f64>,
    /// Victim restarted → coordinator's `Readmitted`.
    pub rejoin_ms: Option<f64>,
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The benchmark's client of one group, with the run's operation and
/// correctness accounting.
pub struct Client {
    /// The group under test.
    pub group: Group,
    spec: ClusterSpec,
    seed: u64,
    traced: bool,
    /// Incremented on every relaunch.
    pub group_gen: u32,
    last_epoch: u64,
    failed_since_commit: u64,
    /// Operations (rounds and cycles) attempted.
    pub attempted: u64,
    /// Operations that failed or stalled.
    pub failed: u64,
    /// Correctness violations: any entry fails the run.
    pub violations: Vec<String>,
    /// Seeded state for the victim's stop delays.
    rng: u64,
}

impl Client {
    /// Wraps a freshly meshed group.
    pub fn new(group: Group, spec: ClusterSpec, seed: u64, traced: bool) -> Client {
        Client {
            group,
            spec,
            seed,
            traced,
            group_gen: 0,
            last_epoch: 0,
            failed_since_commit: 0,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            rng: seed,
        }
    }

    /// A seeded delay, uniform over one heartbeat interval, before the
    /// victim is stopped. The victim restarts at a fixed point of each
    /// cycle, so without it every stop would fall at the same phase of
    /// its heartbeat schedule and detection time would depend on how
    /// long the rest of the cycle takes.
    fn stop_phase(&mut self) -> Duration {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_secs_f64(self.spec.detector.heartbeat_interval.as_secs() * unit)
    }

    /// Replaces a group left broken by a failed cycle with a fresh one.
    pub fn relaunch(&mut self) -> Result<(), String> {
        let group = Group::launch(self.spec.clone(), self.seed, self.traced)?;
        group.wait_mesh(CYCLE_STEP_TIMEOUT)?;
        self.group = group;
        self.group_gen += 1;
        self.last_epoch = 0;
        self.failed_since_commit = 0;
        Ok(())
    }

    /// Sends one `CheckpointReq` to the coordinator and checks the
    /// committed epoch against the expected sequence: the next epoch,
    /// or, after failed rounds that may each have used one, a later one.
    fn try_round(&mut self) -> RoundRec {
        let cursor = self.group.log.len();
        let sent = Instant::now();
        let reply = ctl_request(self.group.addr(COORD), &Msg::CheckpointReq, CTL_TIMEOUT);
        let done = Instant::now();
        let epoch = match reply {
            Ok(Msg::CheckpointDone { epoch }) => {
                let first = self.last_epoch + 1;
                let last = first + self.failed_since_commit;
                if !(first..=last).contains(&epoch) {
                    self.violations.push(format!(
                        "round committed epoch {epoch}, expected {first}..={last}"
                    ));
                }
                self.last_epoch = epoch;
                self.failed_since_commit = 0;
                Some(epoch)
            }
            other => {
                // Every note of the failed round, so a stall shows which
                // node went quiet.
                eprintln!("round failed: {other:?}");
                for s in self.group.log.since(cursor) {
                    let at = ms(s.at.saturating_duration_since(sent));
                    eprintln!("  +{at:8.3} ms node {}: {:?}", s.node, s.note);
                }
                self.failed_since_commit += 1;
                None
            }
        };
        RoundRec {
            group_gen: self.group_gen,
            sent,
            done,
            epoch,
        }
    }

    /// One counted round.
    pub fn round(&mut self) -> RoundRec {
        let rec = self.try_round();
        self.attempted += 1;
        if rec.epoch.is_none() {
            self.failed += 1;
        }
        rec
    }

    /// One counted cycle: a full round; read the victim's committed
    /// digest; stop the victim; wait for the coordinator to confirm it,
    /// fetch the survivors' blocks and reconstruct it into custody; check
    /// the custody digest; restart the victim empty on its port; wait
    /// until it is readmitted and the group is whole again.
    ///
    /// A cycle that stalls is counted failed, its rebuild and recovery
    /// samples are the time it gave up after, and the group is relaunched.
    pub fn cycle(&mut self) -> CycleRec {
        self.attempted += 1;
        let round = self.try_round();
        let mut spans = CycleSpans::default();
        let outcome = self.cycle_steps(&round, &mut spans);
        let (ok, rebuild_ms, recovery_ms) = match outcome {
            Ok((rebuild_ms, recovery_ms)) => (true, rebuild_ms, recovery_ms),
            Err((e, waited)) => {
                eprintln!("cycle failed: {e}");
                self.failed += 1;
                if let Err(e) = self.relaunch() {
                    self.violations
                        .push(format!("relaunch after failed cycle: {e}"));
                }
                (false, waited, waited)
            }
        };
        CycleRec {
            round,
            ok,
            rebuild_ms,
            recovery_ms,
            spans,
        }
    }

    /// The steps after the opening round. `Ok` carries the rebuild and
    /// recovery times; `Err` the reason and how long the cycle waited.
    fn cycle_steps(
        &mut self,
        round: &RoundRec,
        spans: &mut CycleSpans,
    ) -> Result<(f64, f64), (String, f64)> {
        let give_up = |e: String| (e, ms(CYCLE_STEP_TIMEOUT));
        let Some(epoch) = round.epoch else {
            return Err(give_up("opening round failed".into()));
        };
        let victim = NodeId(VICTIM);
        let (committed_epoch, digest) = self
            .digest(VICTIM, DigestSource::Committed)
            .map_err(give_up)?;
        if committed_epoch != epoch {
            self.violations.push(format!(
                "victim committed epoch {committed_epoch} after round {epoch}"
            ));
        }

        std::thread::sleep(self.stop_phase());
        let cursor = self.group.log.len();
        self.group.stop(VICTIM);
        let stopped = Instant::now();
        let log = &self.group.log;
        let at_coord = |s: &Stamped, f: &dyn Fn(&Note) -> bool| s.node == COORD && f(&s.note);
        let rebuild_ended = |n: &Note| match n {
            Note::RebuildCompleted { victim: v, .. } | Note::DataLoss { victim: v, .. } => {
                *v == victim
            }
            _ => false,
        };
        let completed = log
            .wait_for(cursor, CYCLE_STEP_TIMEOUT, |s| at_coord(s, &rebuild_ended))
            .ok_or_else(|| give_up("no rebuild completed in time".into()))?;
        let Note::RebuildCompleted {
            epoch: rebuilt_epoch,
            digest: rebuilt_digest,
            ..
        } = completed.note
        else {
            self.violations.push(format!(
                "rebuild of {victim} ended in data loss: {:?}",
                completed.note
            ));
            return Err(give_up("data loss".into()));
        };
        if (rebuilt_epoch, rebuilt_digest) != (epoch, digest) {
            self.violations.push(format!(
                "rebuilt {victim} at epoch {rebuilt_epoch} digest {rebuilt_digest:#x}, \
                 committed epoch {epoch} digest {digest:#x}"
            ));
        }
        let notes = log.since(cursor);
        let first = |f: &dyn Fn(&Note) -> bool| {
            notes
                .iter()
                .find(|s| at_coord(s, f) && s.at <= completed.at)
                .map(|s| s.at)
        };
        let started = first(&|n| matches!(n, Note::RebuildStarted { victim: v } if *v == victim));
        let decode = first(
            &|n| matches!(n, Note::RebuildPhase { victim: v, phase: "Decode" } if *v == victim),
        );
        let verdict = |want: Verdict| {
            first(&move |n| {
                *n == Note::PeerVerdict {
                    node: victim,
                    verdict: want,
                }
            })
        };
        let (suspected, confirmed) = (verdict(Verdict::Suspected), verdict(Verdict::Confirmed));
        let Some(started) = started else {
            self.violations
                .push("rebuild completed without a RebuildStarted note".into());
            return Err(give_up("missing RebuildStarted".into()));
        };
        spans.suspect_ms = suspected.map(|t| ms(t.saturating_duration_since(stopped)));
        spans.confirm_ms = suspected.zip(confirmed).map(|(s, c)| ms(c - s));
        spans.fetch_ms = decode.map(|d| ms(d - started));
        spans.decode_ms = decode.map(|d| ms(completed.at - d));
        let rebuild_ms = ms(completed.at - started);
        let recovery_ms = ms(completed.at - stopped);

        let (custody_epoch, custody_digest) = self
            .digest(VICTIM, DigestSource::Custody)
            .map_err(give_up)?;
        if (custody_epoch, custody_digest) != (epoch, digest) {
            self.violations.push(format!(
                "custody copy of {victim} at epoch {custody_epoch} digest {custody_digest:#x}, \
                 committed epoch {epoch} digest {digest:#x}"
            ));
        }

        let cursor = self.group.log.len();
        self.group.restart(VICTIM).map_err(give_up)?;
        let restarted = Instant::now();
        let readmitted = self
            .group
            .log
            .wait_for(cursor, CYCLE_STEP_TIMEOUT, |s| {
                s.node == COORD && matches!(s.note, Note::Readmitted { node, .. } if node == victim)
            })
            .ok_or_else(|| give_up("victim not readmitted in time".into()))?;
        spans.rejoin_ms = Some(ms(readmitted.at.saturating_duration_since(restarted)));
        self.group.wait_whole(CYCLE_STEP_TIMEOUT).map_err(give_up)?;
        Ok((rebuild_ms, recovery_ms))
    }

    /// Asks for `node`'s digest where `source` says it lives: the node
    /// itself for its committed block, the coordinator for custody.
    fn digest(&mut self, node: usize, source: DigestSource) -> Result<(u64, u64), String> {
        let at = match source {
            DigestSource::Custody => COORD,
            _ => node,
        };
        let reply = ctl_request(
            self.group.addr(at),
            &Msg::DigestReq { node: NodeId(node) },
            CTL_TIMEOUT,
        )?;
        match reply {
            Msg::DigestResp {
                epoch,
                digest,
                source: got,
                ..
            } if got == source => Ok((epoch, digest)),
            other => {
                self.violations
                    .push(format!("digest of node {node} from node {at}: {other:?}"));
                Err("unexpected digest reply".into())
            }
        }
    }
}
