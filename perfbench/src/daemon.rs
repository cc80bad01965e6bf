//! The `daemon` workload: a recorded control-message stream replayed
//! into an in-process [`Daemon`] with the simulator dataplane backend.
//!
//! The stream is the tap of a batch run of the first jobs of the `fleet`
//! scenario for the same seed. It is recorded once, before anything is
//! timed, and every replay of it must program the same rules: the
//! backend's install CRC is compared across every replay, open- or
//! closed-loop. Open-loop replays keep the recorded arrival times,
//! compressed by a constant factor, so the bursts of the simulated run
//! (a fetch wave's messages share a timestamp) reach the daemon as
//! bursts.

use std::time::{Duration, Instant};

use pythia_cluster::{run_multi_scenario_tapped, ControlMsg, ScenarioConfig};
use pythia_daemon::{Daemon, SimDataplaneBackend};
use pythia_des::SimTime;

use crate::engine::{fleet_arrivals, fleet_cfg};
use crate::openloop::{self, Server};

/// Jobs of the `fleet` arrival trace whose control traffic is recorded.
const TAP_JOBS: usize = 200;

/// Messages replayed per operation: a fixed prefix of the recorded
/// stream, so every seed offers the same amount of work.
pub const STREAM_LEN: usize = 20_000;

/// Queue bound of every replayed daemon (the `serve` default); larger
/// than [`STREAM_LEN`], so a shed message means a broken daemon.
const QUEUE_CAPACITY: usize = 65_536;

/// The message kinds reported separately; everything else is `other`.
pub const KINDS: [&str; 6] = [
    "prediction",
    "fetch_completed",
    "reducer_launched",
    "link_loads",
    "background_update",
    "other",
];

/// Index into [`KINDS`].
pub fn kind_of(msg: &ControlMsg) -> usize {
    match msg {
        ControlMsg::Prediction(_) => 0,
        ControlMsg::FetchCompleted { .. } => 1,
        ControlMsg::ReducerLaunched { .. } => 2,
        ControlMsg::LinkLoads { .. } => 3,
        ControlMsg::BackgroundUpdate { .. } => 4,
        _ => 5,
    }
}

/// The recorded stream and the configuration to replay it under.
pub struct DaemonSetup {
    /// The `fleet` configuration of the seed.
    pub cfg: ScenarioConfig,
    /// The replayed messages, in dispatch order.
    pub stream: Vec<(SimTime, ControlMsg)>,
}

/// What a replay left behind, for the output checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Messages accepted into the queue.
    pub ingested: u64,
    /// Messages dispatched.
    pub processed: u64,
    /// Messages shed by a full queue.
    pub shed: u64,
    /// Rules that landed in a TCAM.
    pub installed: u64,
    /// Order-sensitive digest of every applied install.
    pub crc: u32,
    /// Deepest the queue got.
    pub queue_high_water: usize,
}

impl Outcome {
    /// Check a replay of the whole stream against the reference replay:
    /// nothing shed, everything ingested processed, the same rules.
    pub fn check(&self, reference: &Outcome) -> Result<(), String> {
        if self.shed != 0 {
            return Err(format!("{} messages shed", self.shed));
        }
        if self.processed != self.ingested || self.ingested != STREAM_LEN as u64 {
            return Err(format!(
                "{} processed of {} ingested ({} sent)",
                self.processed, self.ingested, STREAM_LEN
            ));
        }
        if (self.crc, self.installed) != (reference.crc, reference.installed) {
            return Err(format!(
                "install CRC {:08x} ({} rules) differs from the reference {:08x} ({} rules)",
                self.crc, self.installed, reference.crc, reference.installed
            ));
        }
        Ok(())
    }
}

impl DaemonSetup {
    /// Record the stream for `seed`. Not part of set-up time: it stands
    /// in for the agents that would feed a live daemon. The batch run is
    /// dropped before this returns; only the stream is kept.
    pub fn record(seed: u64, solver_workers: usize) -> Result<DaemonSetup, String> {
        let mut cfg = fleet_cfg(seed);
        cfg.solver_workers = solver_workers;
        let jobs: Vec<_> = fleet_arrivals().jobs().into_iter().take(TAP_JOBS).collect();
        let (_, mut stream) = run_multi_scenario_tapped(jobs, &cfg);
        if stream.len() < STREAM_LEN {
            return Err(format!(
                "the {TAP_JOBS}-job tap recorded {} messages, fewer than {STREAM_LEN}",
                stream.len()
            ));
        }
        stream.truncate(STREAM_LEN);
        Ok(DaemonSetup { cfg, stream })
    }

    /// A fresh daemon for one replay (counted as set-up).
    pub fn daemon(&self, cfg: &ScenarioConfig) -> Result<Daemon<SimDataplaneBackend>, String> {
        Daemon::new(cfg, SimDataplaneBackend::from_config(cfg), QUEUE_CAPACITY)
            .map_err(|e| format!("daemon refused the scenario: {e}"))
    }

    /// Closed-loop replay: each message is ingested and pumped before
    /// the next is sent. Returns the wall time and, when `per_kind` is
    /// given, adds each message's ingest and pump nanoseconds to it.
    pub fn closed_loop(
        &self,
        mut d: Daemon<SimDataplaneBackend>,
        mut per_kind: Option<&mut KindTimes>,
    ) -> (Duration, Daemon<SimDataplaneBackend>) {
        let t0 = Instant::now();
        for (at, msg) in &self.stream {
            match per_kind.as_deref_mut() {
                None => {
                    d.ingest(*at, msg.clone());
                    d.pump();
                }
                Some(times) => {
                    let k = kind_of(msg);
                    let a = Instant::now();
                    d.ingest(*at, msg.clone());
                    let b = Instant::now();
                    d.pump();
                    let c = Instant::now();
                    times.ingest_ns.push((b - a).as_nanos() as f64);
                    times.dispatch_ns[k].push((c - b).as_nanos() as f64);
                }
            }
        }
        d.finish();
        (t0.elapsed(), d)
    }

    /// The recorded stream's own mean arrival rate, messages per second
    /// of simulated time.
    pub fn recorded_rate(&self) -> f64 {
        let span_ns = self.stream[self.stream.len() - 1].0.as_nanos() - self.stream[0].0.as_nanos();
        (self.stream.len() - 1) as f64 / (span_ns as f64 / 1e9)
    }

    /// Due times of an open-loop replay at a mean of `rate` messages per
    /// second: the recorded arrival times, relative to the first
    /// message, divided by `rate / recorded_rate()`.
    pub fn schedule(&self, rate: f64) -> Vec<u64> {
        let speed_up = rate / self.recorded_rate();
        let t0 = self.stream[0].0.as_nanos();
        self.stream
            .iter()
            .map(|(at, _)| ((at.as_nanos() - t0) as f64 / speed_up) as u64)
            .collect()
    }

    /// Open-loop replay on the recorded arrival times, at a mean of
    /// `rate` messages per second.
    pub fn open_loop(
        &self,
        d: Daemon<SimDataplaneBackend>,
        rate: f64,
        late_after_ns: u64,
    ) -> (openloop::OpenLoopRun, Daemon<SimDataplaneBackend>) {
        let clock = openloop::WallClock::new();
        let mut server = Replay {
            d,
            stream: &self.stream,
        };
        let run = openloop::run(&clock, &mut server, &self.schedule(rate), late_after_ns);
        let mut d = server.d;
        d.finish();
        (run, d)
    }
}

/// Per-kind ingest and dispatch samples of a traced replay.
#[derive(Debug, Default)]
pub struct KindTimes {
    /// Nanoseconds per `ingest` call.
    pub ingest_ns: Vec<f64>,
    /// Nanoseconds per `pump` call, by [`KINDS`] index.
    pub dispatch_ns: [Vec<f64>; KINDS.len()],
}

struct Replay<'a> {
    d: Daemon<SimDataplaneBackend>,
    stream: &'a [(SimTime, ControlMsg)],
}

impl Server for Replay<'_> {
    fn offer(&mut self, i: usize) -> bool {
        let (at, msg) = &self.stream[i];
        self.d.ingest(*at, msg.clone())
    }

    fn serve(&mut self) {
        self.d.pump();
    }
}

/// The checks' view of a finished daemon.
pub fn outcome(d: &Daemon<SimDataplaneBackend>) -> Outcome {
    let s = d.stats();
    Outcome {
        ingested: s.ingested,
        processed: s.processed,
        shed: s.shed,
        installed: d.backend().installed(),
        crc: d.backend().install_crc(),
        queue_high_water: s.queue_high_water,
    }
}
