//! The outcome of scenario runs.

use std::collections::BTreeMap;

use pythia_des::{SimDuration, SimTime};
use pythia_hadoop::{JobId, Timeline};
use pythia_metrics::{DegradationReport, FlowTrace, JobReport};
use pythia_netsim::{CumulativeCurve, NodeId};
use pythia_trace::{TimedEvent, TraceStats};

/// One job's result inside a (possibly multi-job) run.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's engine-assigned id.
    pub job: JobId,
    /// The job's name from its spec.
    pub name: String,
    /// When the job was submitted (absolute simulated time).
    pub started_at: SimTime,
    /// Its Hadoop-side phase timeline.
    pub timeline: Timeline,
}

impl JobOutcome {
    /// Completion time measured from the job's own start.
    pub fn completion(&self) -> SimDuration {
        self.timeline
            .completion()
            .expect("outcome of unfinished job")
    }
}

/// The outcome of a multi-job scenario run.
#[derive(Debug)]
pub struct MultiRunReport {
    /// Flow scheduler label.
    pub scheduler: String,
    /// Over-subscription ratio (N of 1:N).
    pub oversubscription: u32,
    /// Master seed of the run.
    pub seed: u64,
    /// One outcome per submitted job, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// NetFlow-style per-flow records (all jobs combined).
    pub flow_trace: FlowTrace,
    /// Measured cumulative sourced bytes per server node (NetFlow probe).
    pub measured_curves: BTreeMap<NodeId, CumulativeCurve>,
    /// Pythia's predicted cumulative curves (empty for baselines).
    pub predicted_curves: BTreeMap<NodeId, CumulativeCurve>,
    /// Spill-index decodes per Hadoop server (overhead model input).
    pub spills_per_server: Vec<u64>,
    /// Events the engine processed.
    pub events_processed: u64,
    /// OpenFlow rules that actually landed in switch TCAMs.
    pub rules_installed: u64,
    /// Reroutes issued by the Hedera baseline (0 otherwise).
    pub hedera_reroutes: u64,
    /// Non-empty per-pod install batches flushed (epoch-batched install
    /// mode; 0 under per-prediction installs).
    pub epoch_batches: u64,
    /// Per-tenant control-plane footprint (rules issued/installed, TCAM
    /// rejections, completion), in job order. Feed to
    /// [`MultiRunReport::fairness`] for the fleet-level summary.
    pub tenant_usage: Vec<pythia_metrics::TenantUsage>,
    /// Control-plane faults absorbed during the run (all-zeros —
    /// [`DegradationReport::is_clean`] — on a fault-free scenario).
    pub degradation: DegradationReport,
    /// Trunk links of the topology (for balance analyses).
    pub trunk_links: Vec<pythia_netsim::LinkId>,
    /// Trunk links grouped by direction (parallel cables between the same
    /// switch pair form one group).
    pub trunk_groups: Vec<Vec<pythia_netsim::LinkId>>,
    /// Flight-recorder events of the run (empty unless
    /// `ScenarioConfig::trace` enabled the recorder).
    pub trace_events: Vec<TimedEvent>,
    /// Flight-recorder registry snapshot (counters, span histograms).
    pub trace_stats: TraceStats,
}

impl MultiRunReport {
    /// Fleet-level fairness summary over the run's tenants (rule-install
    /// shares, Jain indices, TCAM contention). Pass the result through
    /// [`pythia_metrics::FairnessReport::with_isolated`] to add
    /// slowdown-vs-isolated once per-job baselines exist.
    pub fn fairness(&self) -> pythia_metrics::FairnessReport {
        pythia_metrics::FairnessReport::from_tenants(self.tenant_usage.clone())
    }

    /// End of the last job, from t = 0.
    pub fn makespan(&self) -> SimDuration {
        self.jobs
            .iter()
            .map(|j| j.timeline.job_end.expect("unfinished job"))
            .max()
            .expect("no jobs")
            .saturating_since(SimTime::ZERO)
    }

    /// Collapse a single-job run into the classic [`RunReport`].
    ///
    /// # Panics
    /// Panics if the run held more than one job.
    pub fn into_single(mut self) -> RunReport {
        assert_eq!(self.jobs.len(), 1, "into_single on a multi-job run");
        let job = self.jobs.remove(0);
        RunReport {
            workload: job.name,
            scheduler: self.scheduler,
            oversubscription: self.oversubscription,
            seed: self.seed,
            timeline: job.timeline,
            flow_trace: self.flow_trace,
            measured_curves: self.measured_curves,
            predicted_curves: self.predicted_curves,
            spills_per_server: self.spills_per_server,
            events_processed: self.events_processed,
            rules_installed: self.rules_installed,
            hedera_reroutes: self.hedera_reroutes,
            degradation: self.degradation,
            trunk_links: self.trunk_links,
            trunk_groups: self.trunk_groups,
            trace_events: self.trace_events,
            trace_stats: self.trace_stats,
        }
    }
}

/// Everything an experiment might want to know about one single-job run.
#[derive(Debug)]
pub struct RunReport {
    /// Benchmark/job name.
    pub workload: String,
    /// Flow scheduler label.
    pub scheduler: String,
    /// Over-subscription ratio (N of 1:N).
    pub oversubscription: u32,
    /// Master seed of the run.
    pub seed: u64,
    /// The Hadoop-side phase timeline.
    pub timeline: Timeline,
    /// NetFlow-style per-flow records.
    pub flow_trace: FlowTrace,
    /// Measured cumulative sourced bytes per server node (NetFlow probe).
    pub measured_curves: BTreeMap<NodeId, CumulativeCurve>,
    /// Pythia's predicted cumulative curves (empty for baselines).
    pub predicted_curves: BTreeMap<NodeId, CumulativeCurve>,
    /// Spill-index decodes per Hadoop server (overhead model input).
    pub spills_per_server: Vec<u64>,
    /// Events the engine processed.
    pub events_processed: u64,
    /// OpenFlow rules that actually landed in switch TCAMs.
    pub rules_installed: u64,
    /// Reroutes issued by the Hedera baseline (0 otherwise).
    pub hedera_reroutes: u64,
    /// Control-plane faults absorbed during the run (all-zeros —
    /// [`DegradationReport::is_clean`] — on a fault-free scenario).
    pub degradation: DegradationReport,
    /// Trunk links of the topology (for balance analyses).
    pub trunk_links: Vec<pythia_netsim::LinkId>,
    /// Trunk links grouped by direction (parallel cables between the same
    /// switch pair form one group).
    pub trunk_groups: Vec<Vec<pythia_netsim::LinkId>>,
    /// Flight-recorder events of the run (empty unless
    /// `ScenarioConfig::trace` enabled the recorder).
    pub trace_events: Vec<TimedEvent>,
    /// Flight-recorder registry snapshot (counters, span histograms).
    pub trace_stats: TraceStats,
}

impl RunReport {
    /// Job completion time.
    pub fn completion(&self) -> SimDuration {
        self.timeline
            .completion()
            .expect("run report of unfinished job")
    }

    /// Flattened per-run record for CSV output.
    pub fn job_report(&self) -> JobReport {
        JobReport::from_timeline(
            &self.workload,
            &self.scheduler,
            self.oversubscription,
            self.seed,
            &self.timeline,
        )
    }

    /// Imbalance of shuffle bytes across parallel trunk cables, grouped
    /// by direction (1.0 = perfect balance of every used direction).
    /// On a fat-tree every direction group holds one cable, so this is
    /// 1.0 by construction there; it measures balance only on fabrics
    /// with parallel trunks, such as the paper's multi-rack shape.
    pub fn trunk_imbalance(&self) -> f64 {
        self.flow_trace.trunk_imbalance_grouped(&self.trunk_groups)
    }
}
