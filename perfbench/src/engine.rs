//! The three batch-engine workloads: `sort60`, `fleet` and `fleet-dense`.
//!
//! The job traces are fixed; the seed is the scenario seed (task-time
//! jitter, ECMP hash salt, install latencies, background redraws), so
//! every seed offers the same jobs and about the same work. Each
//! workload pins its solver mode and worker count at runtime (so the
//! `relaxed-order` cargo feature cannot change what is measured), and is
//! checked run by run against the fingerprint of a reference run of the
//! same seed made before timing starts.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pythia_cluster::{
    run_multi_scenario, run_multi_scenario_checkpointed, CheckpointPolicy, MultiRunReport,
    ScenarioConfig, SchedulerKind,
};
use pythia_des::SimDuration;
use pythia_hadoop::JobSpec;
use pythia_netsim::{BackgroundProfile, FatTreeParams};
use pythia_trace::TraceConfig;
use pythia_workloads::{FleetSpec, SortWorkload, Workload};

/// Which engine workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineWorkload {
    /// The paper's 60 GB Sort on a k=8 fat-tree, exact solver.
    Sort60,
    /// 1000 Poisson jobs on a k=16 fat-tree, relaxed solver, checkpoints.
    Fleet,
    /// 400 jobs at ten times the arrival rate: the fair-share wall.
    FleetDense,
}

/// Simulated-time cadence of the `fleet` checkpoints.
const FLEET_CHECKPOINT_EVERY: SimDuration = SimDuration::from_secs(2000);

/// The inputs of one engine workload for one seed.
pub struct EngineSetup {
    /// Scenario configuration, solver mode and workers pinned.
    pub cfg: ScenarioConfig,
    jobs: JobSource,
    checkpoint_every: Option<SimDuration>,
}

enum JobSource {
    Sort(SortWorkload),
    Fleet(FleetSpec),
}

impl EngineSetup {
    /// Build the configuration and the job generator for `seed`.
    /// Everything here counts towards set-up time. The fabric is built
    /// by the run itself, so its construction is in the run's wall time.
    pub fn new(kind: EngineWorkload, seed: u64, solver_workers: usize) -> EngineSetup {
        let (cfg, jobs, checkpoint_every) = match kind {
            EngineWorkload::Sort60 => {
                let sort = SortWorkload::paper_60gb();
                let cfg = ScenarioConfig::default()
                    .with_topology(FatTreeParams {
                        k: 8,
                        ..FatTreeParams::default()
                    })
                    .with_scheduler(SchedulerKind::Pythia)
                    .with_oversubscription(10)
                    .with_seed(seed)
                    .with_relaxed_order(false);
                (cfg, JobSource::Sort(sort), None)
            }
            EngineWorkload::Fleet => (
                fleet_cfg(seed),
                JobSource::Fleet(fleet_arrivals()),
                Some(FLEET_CHECKPOINT_EVERY),
            ),
            EngineWorkload::FleetDense => (
                fleet_cfg(seed),
                JobSource::Fleet(fleet_spec(400, SimDuration::from_millis(400))),
                None,
            ),
        };
        let mut cfg = cfg;
        cfg.solver_workers = solver_workers;
        EngineSetup {
            cfg,
            jobs,
            checkpoint_every,
        }
    }

    /// Mint the job list (a fresh copy per run: job specs are consumed).
    pub fn jobs(&self) -> Vec<(JobSpec, SimDuration)> {
        match &self.jobs {
            JobSource::Sort(w) => vec![(w.job(), SimDuration::ZERO)],
            JobSource::Fleet(f) => f.jobs(),
        }
    }

    /// One scenario run, timed from the call to its return. `scratch` is
    /// the directory checkpoints go to; it is emptied afterwards.
    pub fn run(
        &self,
        jobs: Vec<(JobSpec, SimDuration)>,
        traced: bool,
        scratch: &Path,
    ) -> Result<(Duration, MultiRunReport, Option<u64>), String> {
        let mut cfg = self.cfg.clone();
        if traced {
            cfg.trace = TraceConfig::enabled();
        }
        let t0 = Instant::now();
        let report = match self.checkpoint_every {
            None => run_multi_scenario(jobs, &cfg),
            Some(every) => {
                let policy = CheckpointPolicy::new(scratch).every_sim_time(every);
                run_multi_scenario_checkpointed(jobs, &cfg, &policy)
                    .map_err(|e| format!("checkpointed run failed: {e}"))?
            }
        };
        let wall = t0.elapsed();
        let snapshot_bytes = match self.checkpoint_every {
            None => None,
            Some(_) => Some(latest_snapshot_bytes(scratch)?),
        };
        if self.checkpoint_every.is_some() {
            clear_dir(scratch)?;
        }
        Ok((wall, report, snapshot_bytes))
    }
}

/// The arrival trace of the `fleet` workload: 1000 jobs, 4 s apart on
/// average.
pub(crate) fn fleet_arrivals() -> FleetSpec {
    fleet_spec(1000, SimDuration::from_secs(4))
}

/// The fleet generator of the `engine_fleet` bench, with its trace
/// seed: 512 MB - 8 GB bounded-Pareto inputs.
fn fleet_spec(jobs: usize, mean_interarrival: SimDuration) -> FleetSpec {
    let mut f = FleetSpec::poisson(jobs, mean_interarrival, 42);
    f.min_input_bytes = 512 << 20;
    f.max_input_bytes = 8u64 << 30;
    f
}

/// The `engine_fleet` configuration on a k=16 fat-tree: streamed job
/// slots, a collector shard per pod, 1 s install epochs, the fleet
/// telemetry cadence and the relaxed solver.
pub(crate) fn fleet_cfg(seed: u64) -> ScenarioConfig {
    let k = 16;
    let mut cfg = ScenarioConfig::default()
        .with_topology(FatTreeParams {
            k,
            ..FatTreeParams::default()
        })
        .with_scheduler(SchedulerKind::Pythia)
        .with_oversubscription(10)
        .with_seed(seed)
        .with_stream_jobs(true)
        .with_collector_shards(k as usize)
        .with_install_epoch(SimDuration::from_secs(1))
        .with_relaxed_order(true);
    cfg.probe_period = SimDuration::from_secs(2);
    cfg.link_load_period = SimDuration::from_secs(5);
    cfg.background = BackgroundProfile::Fluctuating {
        period_secs: 30.0,
        spread: 0.3,
    };
    cfg
}

/// Everything a run must reproduce exactly for its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Events the engine processed.
    pub events: u64,
    /// Rules that landed in switch TCAMs.
    pub rules: u64,
    /// Per-pod install batches flushed.
    pub epoch_batches: u64,
    /// Rules a full TCAM refused (a capacity outcome, not a fault).
    pub tcam_rejected: u64,
    /// Shuffle flows recorded.
    pub flows: usize,
    /// End of the last job, nanoseconds.
    pub makespan_ns: u64,
    /// FNV-1a over every job's completion time.
    pub completions: u64,
}

/// Check a finished run and fingerprint it. `Err` names the first
/// failed check: a job that never finished or a control-plane fault.
///
/// A rule refused by a full TCAM is not a fault: the fleet fabrics
/// overflow their 2000-entry tables in normal operation and the flow
/// rides ECMP, as designed. The refusals are pinned by the fingerprint
/// instead; every other degradation counter must be zero.
pub fn check(report: &MultiRunReport, expected_jobs: usize) -> Result<Fingerprint, String> {
    if report.jobs.len() != expected_jobs {
        return Err(format!(
            "{} job outcomes for {expected_jobs} jobs",
            report.jobs.len()
        ));
    }
    let mut completions = 0xcbf2_9ce4_8422_2325u64;
    let mut makespan_ns = 0;
    for j in &report.jobs {
        let Some(end) = j.timeline.job_end else {
            return Err(format!("job {} never finished", j.name));
        };
        makespan_ns = makespan_ns.max(end.as_nanos());
        for b in end.as_nanos().to_le_bytes() {
            completions = (completions ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let mut faults = report.degradation;
    faults.rules_tcam_rejected = 0;
    if !faults.is_clean() {
        return Err(format!("control-plane faults: {faults:?}"));
    }
    Ok(Fingerprint {
        events: report.events_processed,
        rules: report.rules_installed,
        epoch_batches: report.epoch_batches,
        tcam_rejected: report.degradation.rules_tcam_rejected,
        flows: report.flow_trace.len(),
        makespan_ns,
        completions,
    })
}

/// Fingerprints of exact `sort60` runs, one line per seed:
/// `seed events rules epoch_batches tcam_rejected flows makespan_ns
/// completions`, the last in hex. The exact solver is the reference
/// path the repository keeps byte-identical, so a run of one of these
/// seeds must reproduce its line whatever the code around it does.
/// `print_sort60_reference` regenerates the table.
const SORT60_REFERENCE: &str = include_str!("../reference/sort60_exact.txt");

/// The committed fingerprint of `kind` for `seed`, if there is one.
pub fn committed_reference(kind: EngineWorkload, seed: u64) -> Option<Fingerprint> {
    if kind != EngineWorkload::Sort60 {
        return None;
    }
    SORT60_REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            if f.len() != 8 || f[0].parse::<u64>().ok()? != seed {
                return None;
            }
            let n = |i: usize| f[i].parse::<u64>().ok();
            Some(Fingerprint {
                events: n(1)?,
                rules: n(2)?,
                epoch_batches: n(3)?,
                tcam_rejected: n(4)?,
                flows: n(5)? as usize,
                makespan_ns: n(6)?,
                completions: u64::from_str_radix(f[7], 16).ok()?,
            })
        })
}

/// Size of the snapshot the checkpoint manifest points at.
fn latest_snapshot_bytes(dir: &Path) -> Result<u64, String> {
    let mut newest: Option<(PathBuf, u64)> = None;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "pysnap") {
            let len = entry.metadata().map_err(|e| e.to_string())?.len();
            if newest.as_ref().is_none_or(|(p, _)| path > *p) {
                newest = Some((path, len));
            }
        }
    }
    newest
        .map(|(_, len)| len)
        .ok_or_else(|| format!("no checkpoint written in {}", dir.display()))
}

fn clear_dir(dir: &Path) -> Result<(), String> {
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        std::fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sort60(seed: u64) -> Fingerprint {
        let setup = EngineSetup::new(EngineWorkload::Sort60, seed, 1);
        let (_, report, _) = setup
            .run(setup.jobs(), false, Path::new("."))
            .expect("sort60 runs");
        check(&report, 1).expect("sort60 passes its checks")
    }

    #[test]
    fn sort60_reproduces_its_committed_fingerprints() {
        for seed in [0, 7, 101] {
            let committed = committed_reference(EngineWorkload::Sort60, seed)
                .unwrap_or_else(|| panic!("no committed fingerprint for seed {seed}"));
            assert_eq!(sort60(seed), committed, "seed {seed}");
        }
        assert_eq!(committed_reference(EngineWorkload::Fleet, 7), None);
    }

    /// `cargo test --release --manifest-path perfbench/Cargo.toml --
    /// --ignored --nocapture print_sort60_reference` prints the table
    /// for `reference/sort60_exact.txt`.
    #[test]
    #[ignore]
    fn print_sort60_reference() {
        for seed in 0..=127 {
            let f = sort60(seed);
            println!(
                "{seed} {} {} {} {} {} {} {:016x}",
                f.events,
                f.rules,
                f.epoch_batches,
                f.tcam_rejected,
                f.flows,
                f.makespan_ns,
                f.completions
            );
        }
    }
}
