//! The map from the program's trace spans and counters to the crate
//! (layer) they measure, and the per-layer metrics derived from them.
//!
//! The flight recorder keeps only inclusive totals per span name, so a
//! self time is reported only where nesting is unambiguous: leaf spans,
//! `finish_round` minus the solver spans it encloses, and
//! `ev_advance_net` minus `flow_complete`. Every other `_ms` metric is
//! inclusive of whatever it calls.

use std::collections::BTreeMap;

use pythia_trace::TraceStats;

/// Where a span sits in the call tree of one engine event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nesting {
    /// Opened directly by the event loop.
    Top,
    /// Always inside the named span.
    In(&'static str),
    /// Inside the named span on the exact solver; the relaxed solver
    /// also opens it from event handlers.
    InOnExact(&'static str),
    /// Opened from several places.
    Various,
}

/// One span the program may emit.
pub struct SpanEntry {
    /// Span label as the program records it.
    pub name: &'static str,
    /// Metric its total wall time feeds, milliseconds per run.
    pub total_ms: &'static str,
    /// Metric its call count feeds, if any.
    pub count: Option<&'static str>,
    /// Whether it opens no other span (its total is its self time).
    pub leaf: bool,
    /// Where it is opened.
    pub nesting: Nesting,
}

const fn span(
    name: &'static str,
    total_ms: &'static str,
    count: Option<&'static str>,
    leaf: bool,
    nesting: Nesting,
) -> SpanEntry {
    SpanEntry {
        name,
        total_ms,
        count,
        leaf,
        nesting,
    }
}

use Nesting::{In, InOnExact, Top, Various};

/// Every span the program records, with the layer metric it feeds. The
/// layer is the metric's prefix.
pub const SPANS: &[SpanEntry] = &[
    span("ev_job_start", "hadoop.job_start_ms", None, false, Top),
    span("ev_map_finish", "hadoop.map_finish_ms", None, false, Top),
    span(
        "ev_reducer_start",
        "hadoop.reducer_start_ms",
        None,
        false,
        Top,
    ),
    span("ev_sort_finish", "hadoop.sort_finish_ms", None, false, Top),
    span(
        "ev_reducer_finish",
        "hadoop.reducer_finish_ms",
        None,
        false,
        Top,
    ),
    span("fetch_wave", "hadoop.fetch_wave_ms", None, false, Various),
    span(
        "ev_prediction_deliver",
        "pythia.prediction_deliver_ms",
        None,
        false,
        Top,
    ),
    span(
        "ev_parked_sweep",
        "pythia.parked_sweep_ms",
        None,
        false,
        Top,
    ),
    span(
        "first_fit_place",
        "pythia.first_fit_ms",
        Some("pythia.placements"),
        false,
        Various,
    ),
    span(
        "path_compute",
        "openflow.path_compute_ms",
        Some("openflow.path_computes"),
        true,
        Various,
    ),
    span(
        "cache_invalidate",
        "openflow.cache_invalidate_ms",
        Some("openflow.cache_invalidates"),
        true,
        Various,
    ),
    span(
        "net_recompute",
        "netsim.recompute_ms",
        None,
        true,
        InOnExact("finish_round"),
    ),
    span(
        "net_next_completion",
        "netsim.next_completion_ms",
        Some("netsim.next_completion_calls"),
        true,
        In("finish_round"),
    ),
    span(
        "flow_complete",
        "netsim.flow_complete_ms",
        None,
        false,
        In("ev_advance_net"),
    ),
    span("ev_advance_net", "cluster.advance_net_ms", None, false, Top),
    span("finish_round", "cluster.finish_round_ms", None, false, Top),
    span("ev_flow_check", "cluster.flow_check_ms", None, false, Top),
    span("ev_rule_active", "cluster.rule_active_ms", None, false, Top),
    span("ev_epoch_flush", "cluster.epoch_flush_ms", None, false, Top),
    span(
        "ev_link_load_sample",
        "cluster.link_load_sample_ms",
        None,
        false,
        Top,
    ),
    span(
        "ev_probe_sample",
        "cluster.probe_sample_ms",
        None,
        false,
        Top,
    ),
    span(
        "ev_background_change",
        "cluster.background_change_ms",
        None,
        false,
        Top,
    ),
    span("ev_link_state", "cluster.link_state_ms", None, false, Top),
    span(
        "ev_controller_state",
        "cluster.controller_state_ms",
        None,
        false,
        Top,
    ),
    span(
        "ev_agent_respill",
        "cluster.agent_respill_ms",
        None,
        false,
        Top,
    ),
    span(
        "ev_hedera_tick",
        "baselines.hedera_tick_ms",
        None,
        false,
        Top,
    ),
    span(
        "checkpoint",
        "snapshot.checkpoint_ms",
        Some("snapshot.checkpoints"),
        true,
        Top,
    ),
];

/// Every counter the program records, with the metric it feeds.
pub const COUNTERS: &[(&str, &str)] = &[
    ("eventq_dead_shed", "des.dead_shed"),
    ("eventq_compactions", "des.compactions"),
    ("net_recomputes", "netsim.recomputes"),
    ("net_region_links", "netsim.region_links"),
    ("net_region_flows", "netsim.region_flows"),
    ("net_advance_flow_steps", "netsim.advance_flow_steps"),
    ("net_heap_pushes", "netsim.heap_pushes"),
    ("net_heap_compactions", "netsim.heap_compactions"),
    ("net_cbr_flow_updates", "netsim.cbr_flow_updates"),
];

/// Every per-layer metric, in output order, with its unit. `_ms` totals
/// are per scenario run (per stream replay on `daemon`) and inclusive
/// unless named `_self_ms` or fed by a leaf span.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("des.dead_shed", "count"),
    ("des.compactions", "count"),
    ("netsim.recompute_ms", "ms"),
    ("netsim.recomputes", "count"),
    ("netsim.region_flows", "count"),
    ("netsim.region_links", "count"),
    ("netsim.flows_per_solve", "flows/solve"),
    ("netsim.links_per_solve", "links/solve"),
    ("netsim.next_completion_ms", "ms"),
    ("netsim.next_completion_calls", "count"),
    ("netsim.flow_complete_ms", "ms"),
    ("netsim.advance_flow_steps", "count"),
    ("netsim.heap_pushes", "count"),
    ("netsim.heap_compactions", "count"),
    ("netsim.cbr_flow_updates", "count"),
    ("openflow.path_compute_ms", "ms"),
    ("openflow.path_computes", "count"),
    ("openflow.cache_invalidate_ms", "ms"),
    ("openflow.cache_invalidates", "count"),
    ("openflow.tcam_rejected", "count"),
    ("pythia.first_fit_ms", "ms"),
    ("pythia.placements", "count"),
    ("pythia.rules_installed", "count"),
    ("pythia.epoch_batches", "count"),
    ("pythia.prediction_deliver_ms", "ms"),
    ("pythia.parked_sweep_ms", "ms"),
    ("hadoop.job_start_ms", "ms"),
    ("hadoop.map_finish_ms", "ms"),
    ("hadoop.reducer_start_ms", "ms"),
    ("hadoop.sort_finish_ms", "ms"),
    ("hadoop.reducer_finish_ms", "ms"),
    ("hadoop.fetch_wave_ms", "ms"),
    ("cluster.finish_round_ms", "ms"),
    ("cluster.finish_round_self_ms", "ms"),
    ("cluster.advance_net_ms", "ms"),
    ("cluster.advance_net_self_ms", "ms"),
    ("cluster.flow_check_ms", "ms"),
    ("cluster.rule_active_ms", "ms"),
    ("cluster.epoch_flush_ms", "ms"),
    ("cluster.link_load_sample_ms", "ms"),
    ("cluster.probe_sample_ms", "ms"),
    ("cluster.background_change_ms", "ms"),
    ("cluster.link_state_ms", "ms"),
    ("cluster.controller_state_ms", "ms"),
    ("cluster.agent_respill_ms", "ms"),
    ("baselines.hedera_tick_ms", "ms"),
    ("snapshot.checkpoints", "count"),
    ("snapshot.bytes_per_checkpoint", "bytes"),
    ("snapshot.checkpoint_ms", "ms"),
    ("daemon.dispatch_us.prediction.p50", "us"),
    ("daemon.dispatch_us.prediction.tail", "us"),
    ("daemon.dispatch_us.fetch_completed.p50", "us"),
    ("daemon.dispatch_us.fetch_completed.tail", "us"),
    ("daemon.dispatch_us.reducer_launched.p50", "us"),
    ("daemon.dispatch_us.reducer_launched.tail", "us"),
    ("daemon.dispatch_us.link_loads.p50", "us"),
    ("daemon.dispatch_us.link_loads.tail", "us"),
    ("daemon.dispatch_us.background_update.p50", "us"),
    ("daemon.dispatch_us.background_update.tail", "us"),
    ("daemon.dispatch_us.other.p50", "us"),
    ("daemon.dispatch_us.other.tail", "us"),
    ("daemon.ingest_us", "us"),
    ("daemon.queue_high_water", "count"),
    ("daemon.shed", "count"),
    ("daemon.late_frac", "ratio"),
    ("daemon.backlog_slope", "msgs/s"),
    ("daemon.lat_p50_us.low", "us"),
    ("daemon.lat_p99_us.low", "us"),
    ("daemon.lat_p50_us.high", "us"),
    ("daemon.lat_p99_us.high", "us"),
    ("daemon.max_rate_msgs_s", "msgs/s"),
    ("daemon.drain_msgs_s", "msgs/s"),
    ("workloads.gen_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.ctrl_plane_frac", "ratio"),
    ("run.wall_raw_s", "s"),
    ("run.setup_raw_s", "s"),
    ("run.host_probe_ms", "ms"),
    ("run.wall_tail_s", "s"),
    ("run.wall_tail_pct", "%"),
    ("run.samples", "count"),
    ("run.error_rate", "ratio"),
];

/// Per-layer values of one run, keyed by [`PER_LAYER`] name.
pub type Layered = BTreeMap<&'static str, f64>;

/// Check that every span and counter in `stats` is in the map, and that
/// no span's total exceeds the total of a span it always runs inside,
/// nor the top-level spans together the run's wall time.
pub fn check(stats: &TraceStats, exact: bool, wall_ns: u64) -> Result<(), String> {
    for (name, _) in &stats.spans {
        if !SPANS.iter().any(|e| e.name == name) {
            return Err(format!("span `{name}` is not in the layer map"));
        }
    }
    for (name, _) in &stats.counters {
        if !COUNTERS.iter().any(|(n, _)| n == name) {
            return Err(format!("counter `{name}` is not in the layer map"));
        }
    }
    let total = |name: &str| stats.span(name).map(|h| h.total_wall_ns);
    let mut top = 0;
    for e in SPANS {
        let Some(child) = total(e.name) else {
            continue;
        };
        let parent = match e.nesting {
            Top => {
                top += child;
                continue;
            }
            In(p) => p,
            InOnExact(p) if exact => p,
            InOnExact(_) | Various => continue,
        };
        match total(parent) {
            Some(p) if child <= p => {}
            p => {
                return Err(format!(
                    "span `{}` totals {child} ns, more than its parent `{parent}` ({} ns)",
                    e.name,
                    p.unwrap_or(0)
                ))
            }
        }
    }
    if top > wall_ns {
        return Err(format!(
            "top-level spans total {top} ns, more than the run's {wall_ns} ns"
        ));
    }
    Ok(())
}

/// The per-layer metrics `stats` feeds directly, plus the self times
/// and per-solve ratios derived from them. `exact` says whether every
/// `net_recompute` ran inside `finish_round`.
pub fn from_trace(stats: &TraceStats, exact: bool) -> Layered {
    let mut m = Layered::new();
    let ms = |name: &str| {
        stats
            .span(name)
            .map_or(0.0, |h| h.total_wall_ns as f64 / 1e6)
    };
    for e in SPANS {
        m.insert(e.total_ms, ms(e.name));
        if let Some(count) = e.count {
            m.insert(count, stats.span(e.name).map_or(0, |h| h.count) as f64);
        }
    }
    for &(name, metric) in COUNTERS {
        m.insert(metric, stats.counter(name) as f64);
    }
    // On the relaxed solver some recomputes run inside event handlers,
    // so the total cannot be split: only `net_next_completion` comes
    // off, and the figure is an upper bound that still holds the
    // deferred solves `finish_round` fires.
    let inside_round = ms("net_next_completion") + if exact { ms("net_recompute") } else { 0.0 };
    m.insert(
        "cluster.finish_round_self_ms",
        (ms("finish_round") - inside_round).max(0.0),
    );
    m.insert(
        "cluster.advance_net_self_ms",
        (ms("ev_advance_net") - ms("flow_complete")).max(0.0),
    );
    let solves = stats.counter("net_recomputes") as f64;
    if solves > 0.0 {
        m.insert(
            "netsim.flows_per_solve",
            stats.counter("net_region_flows") as f64 / solves,
        );
        m.insert(
            "netsim.links_per_solve",
            stats.counter("net_region_links") as f64 / solves,
        );
    }
    m
}

/// Share of `wall_ns` spent in the control-plane spans of the pythia
/// and openflow crates (first-fit placement, which encloses the path
/// computes it triggers, and cache invalidation).
pub fn ctrl_plane_frac(m: &Layered, wall_ms: f64) -> f64 {
    let get = |k| m.get(k).copied().unwrap_or(0.0);
    (get("pythia.first_fit_ms") + get("openflow.cache_invalidate_ms")) / wall_ms
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pythia_trace::recorder::SpanHist;

    /// Trace statistics with one call per span, of `ns` each.
    pub(crate) fn stats(spans: &[(&str, u64)], counters: &[(&str, u64)]) -> TraceStats {
        TraceStats {
            spans: spans
                .iter()
                .map(|&(n, ns)| {
                    (
                        n.to_string(),
                        SpanHist {
                            count: 1,
                            total_wall_ns: ns,
                            max_wall_ns: ns,
                            ..SpanHist::default()
                        },
                    )
                })
                .collect(),
            counters: counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            ..TraceStats::default()
        }
    }

    #[test]
    fn every_mapped_metric_is_reported() {
        let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        for e in SPANS {
            assert!(names.contains(&e.total_ms), "{}", e.total_ms);
            if let Some(c) = e.count {
                assert!(names.contains(&c), "{c}");
            }
        }
        for (_, metric) in COUNTERS {
            assert!(names.contains(metric), "{metric}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a metric is listed twice");
    }

    #[test]
    fn unknown_names_fail_the_check() {
        let s = stats(&[("brand_new_span", 5)], &[]);
        assert!(check(&s, true, 10).unwrap_err().contains("brand_new_span"));
        let s = stats(&[], &[("brand_new_counter", 5)]);
        assert!(check(&s, true, 10)
            .unwrap_err()
            .contains("brand_new_counter"));
    }

    #[test]
    fn a_child_above_its_parent_fails_the_check() {
        let s = stats(&[("finish_round", 10), ("net_next_completion", 11)], &[]);
        assert!(check(&s, true, 100).is_err());
        // A recompute outside `finish_round` is legal on the relaxed
        // solver only.
        let s = stats(&[("finish_round", 10), ("net_recompute", 11)], &[]);
        assert!(check(&s, true, 100).is_err());
        assert!(check(&s, false, 100).is_ok());
        // A child without its parent is as wrong as a larger one.
        let s = stats(&[("flow_complete", 1)], &[]);
        assert!(check(&s, true, 100).is_err());
        // Top-level spans cannot add up to more than the run.
        let s = stats(&[("ev_job_start", 60), ("finish_round", 50)], &[]);
        assert!(check(&s, true, 100).is_err());
        assert!(check(&s, true, 110).is_ok());
    }

    #[test]
    fn self_times_subtract_enclosed_spans() {
        let s = stats(
            &[
                ("finish_round", 10_000_000),
                ("net_recompute", 6_000_000),
                ("net_next_completion", 1_000_000),
                ("ev_advance_net", 5_000_000),
                ("flow_complete", 2_000_000),
            ],
            &[
                ("net_recomputes", 4),
                ("net_region_flows", 100),
                ("net_region_links", 8),
            ],
        );
        let m = from_trace(&s, true);
        assert_eq!(m["cluster.finish_round_self_ms"], 3.0);
        assert_eq!(m["cluster.advance_net_self_ms"], 3.0);
        assert_eq!(m["netsim.flows_per_solve"], 25.0);
        assert_eq!(m["netsim.links_per_solve"], 2.0);
        assert_eq!(from_trace(&s, false)["cluster.finish_round_self_ms"], 9.0);
    }

    /// String literals in `src` that follow `prefix` up to a closing
    /// quote, e.g. every `x` of `.span("x")`.
    fn literals_after(src: &str, prefix: &str) -> Vec<String> {
        src.match_indices(prefix)
            .filter_map(|(i, _)| {
                let rest = &src[i + prefix.len()..];
                let end = rest.find('"')?;
                let lit = &rest[..end];
                lit.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                    .then(|| lit.to_string())
            })
            .collect()
    }

    fn sources(dir: &std::path::Path, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                sources(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(std::fs::read_to_string(&path).expect("readable source"));
            }
        }
    }

    /// The map knows every span and counter name written in the
    /// program's library sources (test modules excluded), so a new span
    /// cannot drop out of the per-layer table unnoticed, and it holds no
    /// name the program no longer writes.
    #[test]
    fn the_map_covers_every_name_in_the_program() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
        let mut files = Vec::new();
        for krate in std::fs::read_dir(&root).expect("crates dir") {
            let src = krate.expect("dir entry").path().join("src");
            if src.is_dir() {
                sources(&src, &mut files);
            }
        }
        let (mut spans, mut counters) = (Vec::new(), Vec::new());
        for text in &files {
            let lib = text.split("#[cfg(test)]\nmod tests").next().unwrap_or(text);
            spans.extend(literals_after(lib, ".span(\""));
            spans.extend(
                literals_after(lib, "=> \"ev_")
                    .into_iter()
                    .map(|s| format!("ev_{s}")),
            );
            counters.extend(literals_after(lib, ".count(\""));
        }
        for e in SPANS {
            assert!(spans.iter().any(|s| s == e.name), "stale span `{}`", e.name);
        }
        for (name, _) in COUNTERS {
            assert!(counters.iter().any(|c| c == name), "stale counter `{name}`");
        }
        for s in &spans {
            assert!(
                SPANS.iter().any(|e| e.name == s),
                "span `{s}` is not in the map"
            );
        }
        for c in &counters {
            assert!(
                COUNTERS.iter().any(|(n, _)| n == c),
                "counter `{c}` is not in the map"
            );
        }
    }

    /// The per-layer metric names and units match `BENCHMARK.json`.
    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let per_layer = &text[text.find("\"per_layer\"").expect("per_layer key")..];
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }
}
