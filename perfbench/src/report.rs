//! Turning runs, probes and spans into named metrics, and printing them.

use std::fmt::Write as _;

use hyperion::RunReport;

use crate::probes::Probe;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Sample, Workload};
use crate::Outcome;

/// Socket services whose wire counters are exported.  `dsm.group_relay`
/// only carries traffic under a grouped topology, which no workload uses.
const WIRE_SERVICES: [&str; 2] = ["dsm.page_fetch", "dsm.diff_apply"];

/// One measured number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarises.
    pub samples: usize,
    /// Whether the metric is in the JSON result (and so in
    /// `BENCHMARK.json`); the others are printed in the table only.
    pub listed: bool,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
        listed: true,
    }
}

fn table_only(m: Metric) -> Metric {
    Metric { listed: false, ..m }
}

fn medians(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// Modeled p99 and mean serving-op latency of one run, in µs.
fn serving_us(r: &RunReport) -> (f64, f64) {
    let total = r.total_stats();
    let mean_ps = total.serving_op_ps_total as f64 / total.serving_ops.max(1) as f64;
    (r.serving_p99.as_ps() as f64 / 1e6, mean_ps / 1e6)
}

/// Work per modeled second: KV requests, or ASP relaxations.
fn ops_per_modeled_s(workload: Workload, ops: f64, r: &RunReport) -> f64 {
    if workload.is_kv() {
        r.serving_ops_per_sec()
    } else {
        ops / r.seconds()
    }
}

/// The untraced run's metrics.
pub fn end_to_end(workload: Workload, ops: f64, setups: &[f64], samples: &[Sample]) -> Vec<Metric> {
    let n = samples.len();
    let mut out = vec![
        metric(
            "modeled_s",
            medians(samples, |s| s.report.seconds()),
            "s",
            n,
        ),
        metric(
            "modeled_ops_per_s",
            medians(samples, |s| ops_per_modeled_s(workload, ops, &s.report)),
            "1/s",
            n,
        ),
        metric("host_run_s", medians(samples, |s| s.host_s), "s", n),
        metric("setup_s", median(setups), "s", setups.len()),
        metric("peak_rss_mb", medians(samples, |s| s.peak_rss_mb), "MB", n),
    ];
    out.extend(kv_latencies(workload, samples));
    out
}

/// Median modeled p99 and mean request latency of the KV store.  They are
/// printed in the table only: the JSON result holds the same names for every
/// workload, and ASP records no per-operation latencies.
fn kv_latencies(workload: Workload, samples: &[Sample]) -> Vec<Metric> {
    if !workload.is_kv() {
        return Vec::new();
    }
    let n = samples.len();
    vec![
        table_only(metric(
            "modeled_p99_us",
            medians(samples, |s| serving_us(&s.report).0),
            "us",
            n,
        )),
        table_only(metric(
            "modeled_mean_us",
            medians(samples, |s| serving_us(&s.report).1),
            "us",
            n,
        )),
    ]
}

/// Which layer a `StatsSnapshot` counter belongs to.
fn layer_of(counter: &str) -> &'static str {
    match counter {
        "rpc_requests"
        | "rpc_served"
        | "bytes_sent"
        | "bytes_received"
        | "rpc_retries"
        | "rpc_timeouts"
        | "frames_dropped_injected" => "pm2",
        "field_reads"
        | "field_writes"
        | "bulk_reads"
        | "bulk_writes"
        | "monitor_enters"
        | "monitor_exits"
        | "remote_monitor_acquires"
        | "barrier_waits"
        | "threads_spawned"
        | "threads_migrated"
        | "serving_ops"
        | "serving_op_ps_total" => "hyperion",
        _ => "dsm",
    }
}

fn counter_unit(counter: &str) -> &'static str {
    if counter.contains("bytes") {
        "B"
    } else if counter.contains("cycles") {
        "cycles"
    } else if counter.ends_with("_ps_total") {
        "ps"
    } else {
        "count"
    }
}

/// The traced run's metrics.
pub fn per_layer(
    workload: Workload,
    ops: f64,
    sequential_s: f64,
    samples: &[Sample],
    probes: &[Probe],
    tracer: &Tracer,
    (wall_traced, wall_untraced): (&[f64], &[f64]),
) -> Vec<Metric> {
    let n = samples.len();
    let host_run_s = medians(samples, |s| s.host_s);
    let probe = |name: &str| {
        probes
            .iter()
            .find(|p| p.name == name)
            .unwrap_or_else(|| panic!("probe {name} ran"))
    };
    let mut out = vec![
        metric("apps.host_run_s", host_run_s, "s", n),
        metric("apps.sequential_s", sequential_s, "s", 1),
        metric("apps.sim_overhead", host_run_s / sequential_s, "ratio", n),
        metric(
            "trace.overhead_s",
            median(wall_traced) - median(wall_untraced),
            "s",
            n,
        ),
        metric(
            "apps.modeled_ops_per_s",
            medians(samples, |s| ops_per_modeled_s(workload, ops, &s.report)),
            "1/s",
            n,
        ),
    ];
    out.extend(kv_latencies(workload, samples));

    // A probe's modeled cost per call is a constant of the cost model, the
    // same in every run, so only its host time goes into the JSON result.
    for p in probes {
        out.push(metric(format!("{}_ns", p.name), p.host_ns, "ns", p.calls));
        out.push(table_only(metric(
            format!("{}_modeled_us", p.name),
            p.modeled_us,
            "us",
            p.calls,
        )));
    }

    // Counters of the last timed run (every run of a workload does the same
    // protocol work up to host scheduling).
    let last = &samples.last().expect("at least one timed run").report;
    let total = last.total_stats();
    for (name, value) in total.fields() {
        let m = metric(
            format!("{}.{name}", layer_of(name)),
            value as f64,
            counter_unit(name),
            1,
        );
        // Reads 0 outside the KV store; its per-op mean is modeled_mean_us.
        out.push(if name == "serving_op_ps_total" {
            table_only(m)
        } else {
            m
        });
    }
    let accesses = total.field_accesses() as f64;
    out.push(metric("hyperion.field_accesses", accesses, "count", 1));
    out.push(metric(
        "pm2.bytes_moved",
        total.bytes_moved() as f64,
        "B",
        1,
    ));
    let hit_ratio = if accesses > 0.0 {
        1.0 - total.page_loads as f64 / accesses
    } else {
        0.0
    };
    out.push(metric("dsm.cache_hit_ratio", hit_ratio, "ratio", 1));
    // Shares of the host CPU time a run had: the application threads run in
    // parallel, so a run of `host_run_s` offers that many seconds per core
    // they can use.
    let threads = workload.config().total_app_threads();
    let cores = std::thread::available_parallelism()
        .map_or(1, |c| c.get())
        .min(threads) as f64;
    let cpu_ns = host_run_s * 1e9 * cores;
    out.push(metric("host.cores", cores, "count", 1));
    out.push(metric(
        "hyperion.access_host_share",
        accesses * probe("hyperion.get_cached").host_ns / cpu_ns,
        "ratio",
        n,
    ));
    out.push(metric(
        "pm2.rpc_host_share",
        total.rpc_requests as f64 * probe("pm2.null_rpc").host_ns / cpu_ns,
        "ratio",
        n,
    ));

    // Wire counters exist only on the socket backend; on sim they read 0.
    for service in WIRE_SERVICES {
        let snap = last
            .wire
            .iter()
            .find(|(name, _)| name == service)
            .map(|(_, s)| *s)
            .unwrap_or_default();
        let short = service.trim_start_matches("dsm.");
        let rtt_us = snap.measured_us_per_rpc();
        let ratio = if rtt_us > 0.0 {
            snap.modeled_us_per_rpc() / rtt_us
        } else {
            0.0
        };
        out.push(metric(
            format!("pm2.wire_messages.{short}"),
            snap.messages as f64,
            "count",
            1,
        ));
        out.push(metric(
            format!("pm2.wire_bytes.{short}"),
            (snap.bytes_sent + snap.bytes_received) as f64,
            "B",
            1,
        ));
        // Printed in the table only: on sim it is 0 in every run.
        out.push(table_only(metric(
            format!("pm2.wire_rtt_us.{short}"),
            rtt_us,
            "us",
            1,
        )));
        out.push(metric(
            format!("pm2.model_wire_ratio.{short}"),
            ratio,
            "ratio",
            1,
        ));
    }

    for (span, seconds) in tracer.self_seconds() {
        let count = tracer.spans().iter().filter(|s| s.name == span).count();
        out.push(metric(format!("trace.self_s.{span}"), seconds, "s", count));
    }
    out
}

/// Human-readable table of every metric, with units and sample counts.
pub fn table(workload: Workload, outcome: &Outcome) -> String {
    let failed = outcome.failures.len();
    let mut out = format!(
        "# perfbench {}: {} runs attempted, {} failed, failed_share {}\n",
        workload.name(),
        outcome.attempted,
        failed,
        failed as f64 / outcome.attempted.max(1) as f64
    );
    let _ = writeln!(
        out,
        "{:<44} {:>18} {:<7} samples",
        "metric", "value", "unit"
    );
    for m in &outcome.metrics {
        let mark = if m.listed { "" } else { "  (table only)" };
        let _ = writeln!(
            out,
            "{:<44} {:>18.6} {:<7} {}{mark}",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

/// The one-line JSON result: `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for m in outcome.metrics.iter().filter(|m| m.listed) {
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failures.len()
    )
}
