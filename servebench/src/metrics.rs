//! The metrics a run reports: the end-to-end set, the per-layer set of a traced run, and
//! the traced run's stage table.

use crate::drive::{ClosedLoop, OpenLoop, Record};
use crate::layers::{IndexBytes, QueryReplay, SetupReplay};
use crate::report::{mean, median, quantile, ratio, Metrics};
use crate::spans::Span;
use crate::workload::Spec;
use skyline_service::StatsSnapshot;
use std::collections::HashMap;

/// The end-to-end metrics of an untraced run.
#[allow(clippy::too_many_arguments)]
pub fn end_to_end(
    open: &OpenLoop,
    closed: &ClosedLoop,
    write_ms: &[f64],
    setup_s: &[f64],
    index: IndexBytes,
    peak_rss: f64,
    attempted: u64,
    failed: u64,
) -> Metrics {
    let queries: Vec<&Record> = open.records.iter().filter(|r| r.ok).collect();
    let latency: Vec<f64> = queries.iter().map(|r| r.latency_ms()).collect();
    let mut m = Metrics::default();
    m.add("setup_s", median(setup_s), "s");
    m.add("qps", closed.qps, "queries/s");
    m.add("latency_p50_ms", median(&latency), "ms");
    m.add("write_p50_ms", median(write_ms), "ms");
    m.add(
        "ok_frac",
        1.0 - ratio(failed as f64, attempted as f64),
        "ratio",
    );
    m.add("index_bytes", index.total() as f64, "bytes");
    m.add("peak_rss_mb", peak_rss, "MiB");
    m
}

/// Samples a phase must have beyond its 99th percentile for [`tail_p99`] to take it whole.
const TAIL_BEYOND: usize = 10;
/// Fewest samples per window of [`tail_p99`].
const TAIL_WINDOW: usize = 32;
/// Most windows of [`tail_p99`].
const TAIL_WINDOWS: usize = 8;

/// The 99th percentile of `samples` (in due-time order). With at least [`TAIL_BEYOND`]
/// samples beyond it, that is the phase's own p99. A shorter phase has too few for one stall
/// of the host not to set it, so it takes the p99 of each of up to [`TAIL_WINDOWS`] runs of
/// at least [`TAIL_WINDOW`] consecutive samples and reports the median of those. Windows
/// would skew a phase whose slow requests are not spread evenly, such as first-touch cache
/// misses that thin out over the phase, which is why a long phase is taken whole. Capping
/// the window count keeps each window large enough that a rare slow path still sets its tail.
fn tail_p99(samples: &[f64]) -> f64 {
    if samples.len() >= 100 * TAIL_BEYOND {
        return quantile(samples, 0.99);
    }
    let windows = (samples.len() / TAIL_WINDOW).clamp(1, TAIL_WINDOWS);
    let size = samples.len().div_ceil(windows).max(1);
    let tails: Vec<f64> = samples.chunks(size).map(|w| quantile(w, 0.99)).collect();
    median(&tails)
}

/// What a traced run measured, for [`per_layer`].
pub struct LayerInputs<'a> {
    pub open: &'a OpenLoop,
    pub write_ms: &'a [f64],
    pub spans: &'a [Span],
    pub setup: &'a SetupReplay,
    pub replay: &'a QueryReplay,
    pub index: IndexBytes,
    pub stats: (&'a StatsSnapshot, &'a StatsSnapshot),
    pub rebuild_s: f64,
    /// Time to encode every shard's snapshot (ms) and the bytes encoded.
    pub snapshots_written: (f64, usize),
}

/// The per-layer metrics of a traced run.
pub fn per_layer(l: &LayerInputs<'_>) -> Metrics {
    let (before, after) = l.stats;
    let delta = |f: fn(&StatsSnapshot) -> u64| (f(after) - f(before)) as f64;
    let hits = delta(|s| s.hits);
    let misses = delta(|s| s.misses);
    let r = l.replay;
    let records = &l.open.records;
    let queries: Vec<&Record> = records.iter().filter(|r| r.ok).collect();

    // Serve self time: the service call minus the miss work the replay attributes to it
    // (the replay's mean for profiles beyond the replayed ones).
    let mean_miss_ms = mean(&r.miss_work_ms);
    let serve_self: Vec<f64> = queries
        .iter()
        .filter(|q| q.traced)
        .map(|q| {
            let miss_ms = if q.cache_hit {
                0.0
            } else {
                r.miss_work_ms
                    .get(q.profile)
                    .copied()
                    .unwrap_or(mean_miss_ms)
            };
            (q.last.duration_since(q.start).as_secs_f64() * 1e3 - miss_ms).max(0.0)
        })
        .collect();
    let emit_us: Vec<f64> = queries
        .iter()
        .filter(|q| q.rows > 0 && q.last > q.first)
        .map(|q| q.last.duration_since(q.first).as_secs_f64() * 1e6 / q.rows as f64)
        .collect();
    let latency: Vec<f64> = queries.iter().map(|q| q.latency_ms()).collect();
    let ttfr: Vec<f64> = queries.iter().map(|q| q.ttfr_ms()).collect();
    let wait: Vec<f64> = records.iter().map(Record::wait_ms).collect();
    let traced: Vec<f64> = queries
        .iter()
        .filter(|q| q.traced)
        .map(|q| q.latency_ms())
        .collect();
    let untraced: Vec<f64> = queries
        .iter()
        .filter(|q| !q.traced)
        .map(|q| q.latency_ms())
        .collect();
    let span_ms = |name: &str| -> Vec<f64> {
        l.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    };
    let tree_queries = r.ipo_us.len().max(1) as f64;
    let fallback_queries = r.adaptive_ms.len().max(1) as f64;
    let profiles = r.merge_ms.len().max(1) as f64;

    let mut m = Metrics::default();
    m.add(
        "service.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    m.add("service.coalesced", delta(|s| s.coalesced), "count");
    m.add("service.serve_self_ms_p50", median(&serve_self), "ms");
    m.add(
        "service.serve_self_ms_p99",
        quantile(&serve_self, 0.99),
        "ms",
    );
    m.add("service.latency_p99_ms", tail_p99(&latency), "ms");
    m.add("service.ttfr_p50_ms", median(&ttfr), "ms");
    m.add("service.ttfr_p99_ms", tail_p99(&ttfr), "ms");
    m.add("service.write_p99_ms", tail_p99(l.write_ms), "ms");
    m.add("service.emit_us_per_row", median(&emit_us), "us");
    m.add("service.queue_wait_ms_p99", quantile(&wait, 0.99), "ms");
    m.add("engine.query_ms_p50", median(&r.engine_ms), "ms");
    m.add("engine.query_ms_p99", quantile(&r.engine_ms, 0.99), "ms");
    m.add(
        "engine.tree_served_ratio",
        ratio(r.tree_served as f64, r.shard_queries as f64),
        "ratio",
    );
    m.add("engine.shard_skew", median(&r.shard_skew), "ratio");
    m.add(
        "engine.insert_ms",
        median(&span_ms("engine.insert_row")),
        "ms",
    );
    m.add(
        "engine.delete_ms",
        median(&span_ms("engine.delete_row")),
        "ms",
    );
    m.add("engine.rebuild_s", l.rebuild_s, "s");
    m.add("engine.snapshot_write_ms", l.snapshots_written.0, "ms");
    m.add(
        "engine.snapshot_bytes",
        l.snapshots_written.1 as f64,
        "bytes",
    );
    m.add("ipo.build_s", l.setup.ipo_build_s, "s");
    m.add(
        "ipo.base_skyline_size",
        l.setup.base_skyline_size as f64,
        "count",
    );
    m.add(
        "ipo.template_skyline_size",
        l.setup.template_skyline_size as f64,
        "count",
    );
    m.add("ipo.node_count", l.setup.node_count as f64, "count");
    m.add("ipo.mdc_conditions", l.setup.mdc_conditions as f64, "count");
    m.add("ipo.query_us_p50", median(&r.ipo_us), "us");
    m.add("ipo.query_us_p99", quantile(&r.ipo_us, 0.99), "us");
    m.add(
        "ipo.nodes_visited",
        r.ipo_nodes_visited as f64 / tree_queries,
        "count",
    );
    m.add(
        "ipo.set_operations",
        r.ipo_set_operations as f64 / tree_queries,
        "count",
    );
    m.add("ipo.tree_bytes", l.index.ipo as f64, "bytes");
    m.add("adaptive.build_s", l.setup.adaptive_build_s, "s");
    m.add("adaptive.query_ms_p50", median(&r.adaptive_ms), "ms");
    m.add(
        "adaptive.query_ms_p99",
        quantile(&r.adaptive_ms, 0.99),
        "ms",
    );
    m.add(
        "adaptive.affected",
        r.adaptive_affected as f64 / fallback_queries,
        "count",
    );
    m.add(
        "adaptive.dominance_tests",
        r.adaptive_dominance_tests as f64 / fallback_queries,
        "count",
    );
    m.add("adaptive.affect_ratio", mean(&r.affect_ratio), "ratio");
    m.add("adaptive.result_ratio", mean(&r.result_ratio), "ratio");
    m.add("adaptive.bytes", l.index.adaptive as f64, "bytes");
    m.add("core.canonicalize_us", median(&r.canonicalize_us), "us");
    m.add("core.compile_us", median(&r.compile_us), "us");
    m.add("core.merge_ms", median(&r.merge_ms), "ms");
    m.add(
        "core.merge_in_rows",
        r.merge_in_rows as f64 / profiles,
        "count",
    );
    m.add(
        "core.merge_out_rows",
        r.merge_out_rows as f64 / profiles,
        "count",
    );
    m.add(
        "core.merge_keep_ratio",
        ratio(r.merge_out_rows as f64, r.merge_in_rows as f64),
        "ratio",
    );
    m.add("core.base_skyline_s", l.setup.base_skyline_s, "s");
    m.add("harness.gen_lag_p99_ms", gen_lag_p99_ms(records), "ms");
    m.add("harness.backlog_end", l.open.backlog_end as f64, "count");
    m.add("trace.coverage_frac", coverage(l.spans), "ratio");
    m.add(
        "trace.overhead_frac",
        ratio(median(&traced) - median(&untraced), median(&untraced)),
        "ratio",
    );
    m
}

/// How late callers that were idle before a request's due time started it (p99).
pub fn gen_lag_p99_ms(records: &[Record]) -> f64 {
    let lag: Vec<f64> = records
        .iter()
        .filter(|r| r.idle_caller)
        .map(Record::wait_ms)
        .collect();
    quantile(&lag, 0.99)
}

/// Share of traced request time (due to last row) spent inside the `ShardedService` calls on
/// its blocking path. The library has no spans of its own, so these calls are the only layer
/// spans a live request has, and the rest of a request is the wait for a free caller: the
/// figure is the service-call share of each request, one minus its queue-wait share.
fn coverage(spans: &[Span]) -> f64 {
    let requests: HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| (s.id, s))
        .collect();
    let covered: u64 = spans
        .iter()
        .filter(|s| s.name.starts_with("service.") && requests.contains_key(&s.parent))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let total: u64 = requests.values().map(|s| s.end_ns - s.start_ns).sum();
    ratio(covered as f64, total as f64)
}

/// Prints, per span name, the call count, median duration and total self time (duration
/// minus the time its child spans cover).
pub fn print_stage_table(spec: &Spec, spans: &[Span], setup_s: f64, setup: &SetupReplay) {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    println!(
        "stage table: {} (self = span minus its child spans)",
        spec.name
    );
    println!(
        "  {:<26} {:>8} {:>12} {:>14}",
        "span", "calls", "p50 ms", "self total ms"
    );
    for name in names {
        let of_name: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
        let durations: Vec<f64> = of_name.iter().map(|s| s.ms()).collect();
        let self_ms: f64 = of_name
            .iter()
            .map(|s| {
                let own = s.end_ns - s.start_ns;
                own.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)) as f64 / 1e6
            })
            .sum();
        println!(
            "  {:<26} {:>8} {:>12.4} {:>14.3}",
            name,
            of_name.len(),
            median(&durations),
            self_ms
        );
    }
    println!(
        "  set-up: one service build {:.3} s; replayed per shard: IPO build {:.3} s, \
         Adaptive-SFS build {:.3} s, SKY(empty) {:.3} s = {:.1}% of the service build",
        setup_s,
        setup.ipo_build_s,
        setup.adaptive_build_s,
        setup.base_skyline_s,
        100.0 * ratio(setup.base_skyline_s, setup_s)
    );
}
