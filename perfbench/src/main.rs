//! End-to-end and per-layer benchmark of the Pythia reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sort60|fleet|fleet-dense|daemon> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the run measures the
//! end-to-end metrics with the flight recorder off; with `--trace 1` it
//! measures untraced runs first (the base of the tracing overhead and of
//! the rates), then traced ones, and reports the per-layer metrics. Both
//! print a table of every metric they measured with its unit, a
//! `# context` line (host, code, seed, calibration), and, last, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and what each metric should
//! move.

mod daemon;
mod engine;
mod layers;
mod openloop;
mod stats;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use daemon::{DaemonSetup, KindTimes, KINDS, STREAM_LEN};
use engine::{EngineSetup, EngineWorkload};
use layers::{Layered, PER_LAYER};
use pythia_trace::TraceConfig;

/// Engine set-up is repeated this many times before every run (the
/// daemon is built fresh for every replay); `setup_s` is the median.
const SETUP_REPS: usize = 25;

/// Iterations of the host-speed probe, `calibrate::fixed_work`, run
/// after every untraced operation (about 3 ms).
const PROBE_ITERS: u64 = 2_000_000;

/// Seconds the probe took on the reference host: the median over seeds
/// 101-104 of all four workloads on a 2-vCPU Intel Xeon host in a fast
/// phase (2.73 ms; 3.4-4.3 ms in slow phases). `wall_s` and `setup_s`
/// are scaled to this speed, frozen here so that the scale does not move
/// with the code under test.
const PROBE_REF_S: f64 = 0.00273;

/// Solver worker threads: fixed, and never more than any host has. One
/// worker keeps every workload on one thread, so contention for a
/// second core does not enter the timings; the component-parallel
/// solve showed no gain on these workloads.
const SOLVER_WORKERS: usize = 1;

/// Closed-loop drain rate of the `daemon` stream, messages/second: the
/// median `daemon.drain_msgs_s` of seeds 101-105 (117,900-132,700) on a
/// 2-vCPU Intel Xeon host. The offered rates below are fixed shares of
/// it, frozen here so that they do not move with the code under test.
const MEASURED_DRAIN_MSGS_S: f64 = 120_800.0;

/// Offered mean rates of the daemon latency measurements, on the
/// recorded arrival times (see `DaemonSetup::schedule`). At an eighth of
/// the drain rate only service stalls and the recorded bursts queue
/// messages; at three eighths the backlog is close to growing.
const RATE_LOW: f64 = MEASURED_DRAIN_MSGS_S / 8.0;
const RATE_HIGH: f64 = MEASURED_DRAIN_MSGS_S * 3.0 / 8.0;

/// Highest rate the max-rate search tries: no open loop keeps up beyond
/// the closed-loop drain rate, and four times it leaves room for a
/// faster daemon.
const RATE_CEILING: f64 = MEASURED_DRAIN_MSGS_S * 4.0;

/// The p99 limit a rate must meet to count towards `max_rate_msgs_s`,
/// as a share of the install epoch of the recorded configuration. The
/// simulated control plane holds a placement for up to one epoch before
/// its batch goes to the switches; a daemon that queues a message for at
/// most a tenth of that adds little to the delay the scenario accepts.
const P99_LIMIT_EPOCH_SHARE: f64 = 0.1;

/// A rate fails when its backlog grows faster than this share of it.
const BACKLOG_GROWTH: f64 = 0.05;

/// A message offered more than this after its due time is late.
const LATE_AFTER_NS: u64 = 10_000;

const WORKLOADS: [&str; 4] = ["sort60", "fleet", "fleet-dense", "daemon"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything one invocation measured.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    setup_s: Vec<f64>,
    /// Untraced seconds per operation.
    walls: Vec<f64>,
    /// Seconds of each host-speed probe, one after every untraced
    /// operation.
    probes: Vec<f64>,
    layered: Layered,
    /// Events (engine) or messages (daemon) per operation.
    work_per_op: u64,
    /// Servers of the fabric.
    servers: usize,
    /// Whether the peak resident set was reset after the inputs were
    /// made, so that `peak_rss_mb` covers the timed work only.
    rss_reset: bool,
}

impl Report {
    /// Record an untraced operation's wall time, then probe the host's
    /// speed right after it.
    fn untraced(&mut self, wall: f64) {
        self.walls.push(wall);
        let t0 = Instant::now();
        std::hint::black_box(pythia_experiments::calibrate::fixed_work(PROBE_ITERS));
        self.probes.push(secs(t0.elapsed()));
    }

    /// Record the outcome of one operation.
    fn tally<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
                None
            }
        }
    }
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Err(format!("panicked: {msg}"))
    })
}

fn median(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Checkpoint directory inside the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = self.0.parent().map(std::fs::remove_dir);
    }
}

/// Build an engine workload's inputs [`SETUP_REPS`] times, recording
/// each set-up time and job-list materialisation time; keep the last.
fn set_up_engine(
    kind: EngineWorkload,
    seed: u64,
    rep: &mut Report,
    gen_ms: &mut Vec<f64>,
) -> (
    EngineSetup,
    Vec<(pythia_hadoop::JobSpec, pythia_des::SimDuration)>,
) {
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = EngineSetup::new(kind, seed, SOLVER_WORKERS);
        let t1 = Instant::now();
        let jobs = s.jobs();
        rep.setup_s.push(secs(t0.elapsed()));
        gen_ms.push(secs(t1.elapsed()) * 1e3);
        built = Some((s, jobs));
    }
    built.expect("at least one set-up")
}

fn run_engine(kind: EngineWorkload, args: &Args, rep: &mut Report) -> Result<(), String> {
    let mut gen_ms = Vec::new();
    let (setup, first_jobs) = set_up_engine(kind, args.seed, rep, &mut gen_ms);
    let n_jobs = first_jobs.len();
    rep.servers = setup.cfg.topology.num_servers() as usize;
    let scratch = Scratch::new()?;
    let exact = !setup.cfg.relaxed_order;

    // The reference run of this seed: every timed run must match it,
    // and it must match the committed fingerprint where there is one.
    let committed = engine::committed_reference(kind, args.seed);
    let reference = rep
        .tally(guarded(|| {
            let (_, report, _) = setup.run(first_jobs, false, &scratch.0)?;
            let fp = engine::check(&report, n_jobs)?;
            match &committed {
                Some(c) if *c != fp => Err(format!(
                    "fingerprint {fp:?} differs from the committed {c:?}"
                )),
                _ => Ok(fp),
            }
        }))
        .or(committed)
        .ok_or("the reference run failed")?;
    rep.work_per_op = reference.events;

    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let traced_from = if args.trace { budget / 2 } else { budget };
    let mut traced: Vec<(f64, Layered)> = Vec::new();
    let mut snapshot_bytes = 0;
    phased(
        budget,
        traced_from,
        || start.elapsed(),
        |trace| {
            // Set-up is repeated before every run, so that its median spans
            // the same stretch of time as the runs.
            let (setup, jobs) = set_up_engine(kind, args.seed, rep, &mut gen_ms);
            let r = guarded(|| {
                let (wall, report, snap) = setup.run(jobs, trace, &scratch.0)?;
                let fp = engine::check(&report, n_jobs)?;
                if fp != reference {
                    return Err(format!(
                        "fingerprint {fp:?} differs from the reference {reference:?}"
                    ));
                }
                let mut m = Layered::new();
                if trace {
                    let wall_ns = wall.as_nanos() as u64;
                    layers::check(&report.trace_stats, exact, wall_ns)?;
                    m = layers::from_trace(&report.trace_stats, exact);
                }
                Ok((secs(wall), m, snap))
            });
            if let Some((wall, m, snap)) = rep.tally(r) {
                snapshot_bytes = snap.unwrap_or(0);
                if trace {
                    traced.push((wall, m));
                } else {
                    rep.untraced(wall);
                }
            }
        },
    );
    drop(scratch);

    if args.trace {
        let m = &mut rep.layered;
        median_into(m, &traced);
        let traced_wall = median(&traced.iter().map(|t| t.0).collect::<Vec<_>>());
        let wall = median(&rep.walls);
        m.insert("des.events", reference.events as f64);
        m.insert("des.events_per_s", reference.events as f64 / wall);
        m.insert("pythia.rules_installed", reference.rules as f64);
        m.insert("pythia.epoch_batches", reference.epoch_batches as f64);
        m.insert("openflow.tcam_rejected", reference.tcam_rejected as f64);
        m.insert("snapshot.bytes_per_checkpoint", snapshot_bytes as f64);
        m.insert("workloads.gen_ms", median(&gen_ms));
        m.insert("trace.overhead_frac", traced_wall / wall - 1.0);
        let frac = layers::ctrl_plane_frac(m, traced_wall * 1e3);
        m.insert("trace.ctrl_plane_frac", frac);
    }
    Ok(())
}

fn run_daemon(args: &Args, rep: &mut Report) -> Result<(), String> {
    let setup = guarded(|| DaemonSetup::record(args.seed, SOLVER_WORKERS))?;
    // The recording batch run is gone; the peak from here on is the
    // replays' own.
    rep.rss_reset = reset_peak_rss();
    rep.work_per_op = STREAM_LEN as u64;
    rep.servers = setup.cfg.topology.num_servers() as usize;
    // Every closed-loop replay gets a fresh daemon; each construction is
    // a set-up sample.
    let fresh = |rep: &mut Report| {
        let t0 = Instant::now();
        let d = setup.daemon(&setup.cfg);
        rep.setup_s.push(secs(t0.elapsed()));
        d
    };
    for _ in 1..SETUP_REPS {
        fresh(rep)?;
    }

    // The reference replay of this seed.
    let d = fresh(rep)?;
    let reference = rep
        .tally(guarded(|| {
            let (_, d) = setup.closed_loop(d, None);
            let o = daemon::outcome(&d);
            // The reference must pass the shed and count checks itself.
            o.check(&o)?;
            Ok(o)
        }))
        .ok_or("the reference replay failed")?;
    let mut shed = 0u64;

    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let closed_until = if args.trace { budget / 4 } else { budget };
    phased(
        closed_until,
        closed_until,
        || start.elapsed(),
        |_| {
            let d = fresh(rep);
            let r = guarded(|| {
                let (wall, d) = setup.closed_loop(d?, None);
                Ok((secs(wall), daemon::outcome(&d)))
            });
            if let Some((wall, _)) = rep.tally(checked_replay(r, &reference, &mut shed)) {
                rep.untraced(wall);
            }
        },
    );
    if !args.trace {
        return Ok(());
    }

    // Open loop at the two fixed rates, then the max-rate search.
    let open = |rep: &mut Report, shed: &mut u64, rate: f64| {
        let r = guarded(|| {
            let (run, d) = setup.open_loop(setup.daemon(&setup.cfg)?, rate, LATE_AFTER_NS);
            Ok((run, daemon::outcome(&d)))
        });
        rep.tally(checked_replay(r, &reference, shed))
    };
    for (rate, p50, p99) in [
        (RATE_LOW, "daemon.lat_p50_us.low", "daemon.lat_p99_us.low"),
        (
            RATE_HIGH,
            "daemon.lat_p50_us.high",
            "daemon.lat_p99_us.high",
        ),
    ] {
        if let Some((r, o)) = open(rep, &mut shed, rate) {
            let m = &mut rep.layered;
            m.insert(p50, r.latency_us(50.0));
            m.insert(p99, r.latency_us(99.0));
            if rate == RATE_HIGH {
                m.insert("daemon.late_frac", r.late_frac());
                m.insert("daemon.backlog_slope", r.backlog_slope);
                m.insert("daemon.queue_high_water", o.queue_high_water as f64);
            }
        }
    }
    let epoch = setup
        .cfg
        .install_epoch
        .ok_or("the recorded configuration has no install epoch")?;
    let p99_limit_us = epoch.as_nanos() as f64 / 1e3 * P99_LIMIT_EPOCH_SHARE;
    let max_rate = openloop::max_rate(RATE_LOW, RATE_CEILING, 1.5, 3, |rate| {
        open(rep, &mut shed, rate).is_some_and(|(r, _)| {
            r.latency_us(99.0) <= p99_limit_us && !r.backlog_grows(rate, BACKLOG_GROWTH)
        })
    });
    rep.layered
        .insert("daemon.max_rate_msgs_s", max_rate.unwrap_or(0.0));

    // Traced closed-loop replays, timing each message by kind.
    let mut traced_cfg = setup.cfg.clone();
    traced_cfg.trace = TraceConfig::enabled();
    let mut times = KindTimes::default();
    let mut traced: Vec<(f64, Layered)> = Vec::new();
    while traced.is_empty() || start.elapsed() < budget {
        let r = guarded(|| {
            let (wall, d) = setup.closed_loop(setup.daemon(&traced_cfg)?, Some(&mut times));
            let o = daemon::outcome(&d);
            let (core, _, _, _) = d.into_parts();
            let stats = core.trace.stats();
            layers::check(&stats, true, wall.as_nanos() as u64)?;
            Ok(((secs(wall), layers::from_trace(&stats, true)), o))
        });
        match rep.tally(checked_replay(r, &reference, &mut shed)) {
            Some((t, _)) => traced.push(t),
            None => break,
        }
    }

    let m = &mut rep.layered;
    median_into(m, &traced);
    for (k, kind) in KINDS.iter().enumerate() {
        let xs = &times.dispatch_ns[k];
        let tail = stats::supported_tail(xs)
            .map(|(_, v)| v)
            .or_else(|| stats::percentile(xs, 100.0))
            .unwrap_or(0.0);
        m.insert(
            per_layer_name(format!("daemon.dispatch_us.{kind}.p50")),
            median(xs) / 1e3,
        );
        m.insert(
            per_layer_name(format!("daemon.dispatch_us.{kind}.tail")),
            tail / 1e3,
        );
    }
    m.insert("daemon.ingest_us", median(&times.ingest_ns) / 1e3);
    m.insert("daemon.shed", shed as f64);
    let wall = median(&rep.walls);
    let traced_wall = median(&traced.iter().map(|t| t.0).collect::<Vec<_>>());
    m.insert("daemon.drain_msgs_s", STREAM_LEN as f64 / wall);
    m.insert("pythia.rules_installed", reference.installed as f64);
    m.insert("trace.overhead_frac", traced_wall / wall - 1.0);
    let frac = layers::ctrl_plane_frac(m, traced_wall * 1e3);
    m.insert("trace.ctrl_plane_frac", frac);
    Ok(())
}

/// Call `op` until `budget` has passed on `elapsed`: untraced
/// (`op(false)`) before `traced_from`, traced (`op(true)`) from then on.
/// Each phase that has time gets at least one attempt, and attempts are
/// counted whether they pass or fail, so a phase whose every operation
/// fails its checks still ends; the failures show in `failed`.
fn phased(
    budget: Duration,
    traced_from: Duration,
    elapsed: impl Fn() -> Duration,
    mut op: impl FnMut(bool),
) {
    let wants_traced = traced_from < budget;
    let (mut untraced, mut traced) = (0usize, 0usize);
    loop {
        let t = elapsed();
        if t >= budget && untraced > 0 && (traced > 0 || !wants_traced) {
            return;
        }
        let trace = wants_traced && untraced > 0 && t >= traced_from;
        if trace {
            traced += 1;
        } else {
            untraced += 1;
        }
        op(trace);
    }
}

/// Per-layer medians over the traced runs `(wall seconds, metrics)`.
fn median_into(m: &mut Layered, traced: &[(f64, Layered)]) {
    for (name, _) in PER_LAYER {
        let xs: Vec<f64> = traced
            .iter()
            .filter_map(|(_, t)| t.get(name).copied())
            .collect();
        if !xs.is_empty() {
            m.insert(name, median(&xs));
        }
    }
}

/// Check a replay's outcome against the reference, adding its shed
/// messages to `shed`.
fn checked_replay<T>(
    r: Result<(T, daemon::Outcome), String>,
    reference: &daemon::Outcome,
    shed: &mut u64,
) -> Result<(T, daemon::Outcome), String> {
    let (v, o) = r?;
    *shed += o.shed;
    o.check(reference)?;
    Ok((v, o))
}

/// The `&'static str` of a [`PER_LAYER`] name built at runtime.
fn per_layer_name(name: String) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

/// Hand the heap that freed inputs held back to the kernel, then reset
/// the peak resident set (`VmHWM`) to the current one, so that
/// `peak_rss_mb` covers only what follows. `false` where the kernel
/// does not support the reset; the peak is then the process's.
fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only returns free heap pages.
        unsafe { malloc_trim(0) };
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit, when the working directory is a git checkout.
fn commit() -> String {
    let here = std::env::current_dir().ok();
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env(
            "GIT_CEILING_DIRECTORIES",
            here.as_ref()
                .and_then(|p| p.parent())
                .unwrap_or(std::path::Path::new("/")),
        )
        .stderr(std::process::Stdio::null())
        .output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "none".into(),
    }
}

/// FNV-1a over the program's sources and manifests, in path order: the
/// identity of the measured code when there is no git metadata.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The legacy `BENCH_*.json` row each workload supersedes.
fn supersedes(workload: &str) -> &'static str {
    match workload {
        "sort60" => "BENCH_engine.json engine_loop/sort60_fat8_pythia (exact)",
        "fleet" => "BENCH_fleet.json engine_fleet/fleet1000_fat16_pythia",
        "fleet-dense" => "none (new: the fair-share concurrency wall)",
        _ => "BENCH_daemon.json (serve and engine_daemon rows)",
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut rep = Report::default();
    let r = match args.workload.as_str() {
        "sort60" => run_engine(EngineWorkload::Sort60, &args, &mut rep),
        "fleet" => run_engine(EngineWorkload::Fleet, &args, &mut rep),
        "fleet-dense" => run_engine(EngineWorkload::FleetDense, &args, &mut rep),
        _ => run_daemon(&args, &mut rep),
    };
    if let Err(e) = r {
        eprintln!("perfbench: {}: {e}", args.workload);
        for e in &rep.errors {
            eprintln!("perfbench:   {e}");
        }
        std::process::exit(1);
    }
    // The end-to-end times are scaled to the reference host speed. The
    // host is shared, and its co-tenants slow all code by up to 1.9x in
    // phases that last from seconds to tens of minutes; the fixed-work
    // probe slows with it (see README, "End-to-end metrics").
    let setup_raw_s = median(&rep.setup_s);
    let wall_raw_s = median(&rep.walls);
    let probe_s = median(&rep.probes);
    let scale = if probe_s > 0.0 {
        PROBE_REF_S / probe_s
    } else {
        1.0
    };
    let setup_s = setup_raw_s * scale;
    let wall_s = wall_raw_s * scale;
    let rss = peak_rss_mb();
    let tail = stats::supported_tail(&rep.walls);
    let error_rate = rep.failed as f64 / rep.attempted.max(1) as f64;
    rep.layered
        .insert("run.wall_tail_s", tail.map_or(0.0, |t| t.1));
    rep.layered
        .insert("run.wall_tail_pct", tail.map_or(0.0, |t| t.0));
    rep.layered.insert("run.wall_raw_s", wall_raw_s);
    rep.layered.insert("run.setup_raw_s", setup_raw_s);
    rep.layered.insert("run.host_probe_ms", probe_s * 1e3);
    rep.layered.insert("run.samples", rep.walls.len() as f64);
    rep.layered.insert("run.error_rate", error_rate);

    let end_to_end = [
        ("setup_s", setup_s, "s"),
        ("wall_s", wall_s, "s"),
        ("peak_rss_mb", rss, "MB"),
    ];
    println!(
        "{} seed={} trace={}",
        args.workload, args.seed, args.trace as u8
    );
    println!("end to end (flight recorder off; times scaled to the reference host speed):");
    for (name, v, unit) in end_to_end {
        println!("  {name:<42} {v:>16.6} {unit}");
    }
    println!("  {:<42} {wall_raw_s:>16.6} s", "wall_s unscaled");
    println!("  {:<42} {setup_raw_s:>16.6} s", "setup_s unscaled");
    println!("  {:<42} {:>16.6} ms", "host probe", probe_s * 1e3);
    println!(
        "  {:<42} {:>16} (n={}, {})",
        "wall_s unscaled tail",
        tail.map_or("-".into(), |(_, v)| format!("{v:.6}")),
        rep.walls.len(),
        tail.map_or(
            "no percentile has 10 samples beyond it".into(),
            |(p, _)| format!("p{p}")
        ),
    );
    println!(
        "  {:<42} {:>16.6} ratio ({} of {} failed)",
        "error_rate", error_rate, rep.failed, rep.attempted
    );
    if args.trace {
        println!("per layer (flight recorder on; _ms totals per operation):");
        for (name, unit) in PER_LAYER {
            let v = rep.layered.get(name).copied().unwrap_or(0.0);
            let note = layers::SPANS
                .iter()
                .find(|e| e.total_ms == *name)
                .map_or("", |e| if e.leaf { " (leaf)" } else { " (inclusive)" });
            println!("  {name:<42} {v:>16.4} {unit}{note}");
        }
    }
    for e in &rep.errors {
        println!("  failure: {e}");
    }

    let factor = pythia_experiments::calibrate::measured_session_factor("BENCH_HOST.json");
    let context = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"cpu_model\": {}, \"solver_workers\": {}, \"relaxed_order_feature\": {}, \
         \"commit\": {}, \"source_digest\": {}, \"session_factor\": {}, \
         \"servers\": {}, \"work_per_op\": {}, \"work_unit\": {}, \"samples\": {}, \
         \"peak_rss_reset\": {}, \"supersedes\": {}, \"process_s\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
        SOLVER_WORKERS,
        cfg!(feature = "relaxed-order"),
        json_str(&commit()),
        json_str(&source_digest()),
        json_num(factor),
        rep.servers,
        rep.work_per_op,
        json_str(if args.workload == "daemon" {
            "messages"
        } else {
            "events"
        }),
        rep.walls.len(),
        rep.rss_reset,
        json_str(supersedes(&args.workload)),
        json_num(secs(process_start.elapsed())),
    );
    println!("# context {context}");

    let mut metrics = String::new();
    let mut add = |name: &str, v: f64, unit: &str| {
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(v),
            json_str(unit)
        );
    };
    if args.trace {
        for (name, unit) in PER_LAYER {
            add(name, rep.layered.get(name).copied().unwrap_or(0.0), unit);
        }
    } else {
        for (name, v, unit) in end_to_end {
            add(name, v, unit);
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        rep.failed == 0,
        rep.attempted,
        rep.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn a_traced_phase_whose_every_run_fails_its_layer_check_still_ends() {
        // A span the layer map does not know fails every traced run.
        let unknown = layers::tests::stats(&[("brand_new_span", 1)], &[]);
        let clock = Cell::new(Duration::ZERO);
        let mut rep = Report::default();
        let mut traced_passed = 0;
        phased(
            Duration::from_secs(10),
            Duration::from_secs(5),
            || clock.get(),
            |trace| {
                clock.set(clock.get() + Duration::from_secs(1));
                let r = if trace {
                    layers::check(&unknown, true, 10)
                } else {
                    Ok(())
                };
                if rep.tally(r).is_some() && trace {
                    traced_passed += 1;
                }
            },
        );
        assert_eq!(traced_passed, 0);
        assert_eq!((rep.attempted, rep.failed), (10, 5));
        assert!(rep.errors[0].contains("brand_new_span"));
    }

    #[test]
    fn every_phase_gets_one_attempt_even_past_the_budget() {
        let clock = Cell::new(Duration::ZERO);
        let mut calls = Vec::new();
        // The first run alone overruns the whole budget.
        phased(
            Duration::from_secs(1),
            Duration::from_millis(500),
            || clock.get(),
            |trace| {
                clock.set(clock.get() + Duration::from_secs(3));
                calls.push(trace);
            },
        );
        assert_eq!(calls, [false, true]);
        calls.clear();
        clock.set(Duration::ZERO);
        phased(
            Duration::from_secs(1),
            Duration::from_secs(1),
            || clock.get(),
            |trace| {
                clock.set(clock.get() + Duration::from_secs(3));
                calls.push(trace);
            },
        );
        assert_eq!(calls, [false]);
    }
}
