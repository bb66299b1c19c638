//! The traced run's per-layer measurements.
//!
//! The library carries no spans of its own, so the benchmark times the public functions of
//! each layer from the outside, on the same service and queries the load phases used:
//!
//! * on the blocking path of every traced request: the `ShardedService` calls;
//! * in a set-up replay: the IPO-tree build, the Adaptive-SFS build and SKY(∅) per shard;
//! * in a query replay over the workload's distinct profiles: canonicalize, each shard's
//!   `SkylineEngine::query` with the IPO-tree or Adaptive-SFS call that served it recorded
//!   as its child, the compile of the merge relation, and `merge_skylines`.
//!
//! A replayed child runs as its own call right after its parent and is attributed to it.

use crate::spans::{SpanBuf, ROOT};
use crate::workload::{Inputs, RowValues, TOP_K};
use skyline::MethodUsed;
use skyline_adaptive::{AdaptiveSfs, ScanMode};
use skyline_core::algo::sfs;
use skyline_core::score::ScoreFn;
use skyline_core::{
    merge_skylines, CompiledRelation, Dataset, DominanceContext, PartialOrder, PointId,
};
use skyline_ipo::storage::ipo_tree_storage;
use skyline_ipo::IpoTreeBuilder;
use skyline_service::ShardedService;
use std::sync::Arc;
use std::time::Instant;

fn secs(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// What rebuilding the set-up structures of every shard costs, summed over shards (the
/// service builds its shards one after another).
#[derive(Debug, Default)]
pub struct SetupReplay {
    pub ipo_build_s: f64,
    pub base_skyline_size: usize,
    pub template_skyline_size: usize,
    pub node_count: usize,
    pub mdc_conditions: usize,
    pub adaptive_build_s: f64,
    pub base_skyline_s: f64,
}

pub fn setup_replay(
    service: &ShardedService,
    buf: &mut SpanBuf<'_>,
) -> Result<SetupReplay, String> {
    let mut out = SetupReplay::default();
    let template = service.template();
    let begun = Instant::now();
    let root = buf.id();
    for s in 0..service.shard_count() {
        let data: Arc<Dataset> = service.shard(s).read().dataset_arc().clone();
        let t0 = Instant::now();
        let (_, stats) = IpoTreeBuilder::new()
            .top_k_values(TOP_K)
            .build_with_stats(&data, template)
            .map_err(|e| format!("replaying shard {s}'s IPO build: {e}"))?;
        let t1 = Instant::now();
        AdaptiveSfs::build(data.clone(), template)
            .map_err(|e| format!("replaying shard {s}'s Adaptive-SFS build: {e}"))?;
        let t2 = Instant::now();
        let schema = data.schema();
        let empty: Vec<PartialOrder> = schema
            .nominal_cardinalities()
            .into_iter()
            .map(PartialOrder::empty)
            .collect();
        let ctx = DominanceContext::new(&data, empty).map_err(|e| e.to_string())?;
        let all: Vec<PointId> = data.point_ids().collect();
        let t3 = Instant::now();
        std::hint::black_box(sfs::skyline_sorted_with_stats(
            &ctx,
            &ScoreFn::default_ranking(schema),
            &all,
        ));
        let t4 = Instant::now();
        buf.record(root, 0, "ipo.build", t0, t1);
        buf.record(root, 0, "adaptive.build", t1, t2);
        buf.record(root, 0, "core.base_skyline", t3, t4);
        out.ipo_build_s += secs(t0, t1);
        out.adaptive_build_s += secs(t1, t2);
        out.base_skyline_s += secs(t3, t4);
        out.base_skyline_size += stats.base_skyline_size;
        out.template_skyline_size += stats.template_skyline_size;
        out.node_count += stats.node_count;
        out.mdc_conditions += stats.mdc_conditions;
    }
    buf.record_as(root, ROOT, 0, "setup.replay", begun, Instant::now());
    Ok(out)
}

/// Per-query layer timings and work counts from one pass over the distinct profiles.
#[derive(Debug, Default)]
pub struct QueryReplay {
    pub canonicalize_us: Vec<f64>,
    pub compile_us: Vec<f64>,
    pub merge_ms: Vec<f64>,
    pub merge_in_rows: u64,
    pub merge_out_rows: u64,
    pub engine_ms: Vec<f64>,
    pub tree_served: u64,
    pub shard_queries: u64,
    /// Per profile: slowest over mean shard time.
    pub shard_skew: Vec<f64>,
    pub ipo_us: Vec<f64>,
    pub ipo_nodes_visited: u64,
    pub ipo_set_operations: u64,
    pub adaptive_ms: Vec<f64>,
    pub adaptive_affected: u64,
    pub adaptive_dominance_tests: u64,
    pub affect_ratio: Vec<f64>,
    pub result_ratio: Vec<f64>,
    /// Per profile: the work a cache miss adds to a serve — canonicalize, the shard queries
    /// as the scatter's workers would run them, the merge compile and the merge (ms).
    pub miss_work_ms: Vec<f64>,
    /// Profiles whose merged replay differed from a fresh serve of the same profile.
    pub merge_mismatches: u64,
}

pub fn query_replay(
    service: &ShardedService,
    inputs: &Inputs,
    limit: usize,
    buf: &mut SpanBuf<'_>,
) -> Result<QueryReplay, String> {
    let mut out = QueryReplay::default();
    let schema = service.schema();
    let template = service.template();
    let workers = service.workers().clamp(1, service.shard_count());
    for (i, pref) in inputs.profiles.iter().enumerate().take(limit) {
        let request = (1u64 << 40) + i as u64;
        let begun = Instant::now();
        let root = buf.id();
        let t0 = Instant::now();
        std::hint::black_box(pref.canonicalize(schema).map_err(|e| e.to_string())?);
        let t1 = Instant::now();
        buf.record(root, request, "core.canonicalize", t0, t1);
        out.canonicalize_us.push(secs(t0, t1) * 1e6);

        let mut candidates = Dataset::empty(schema.clone());
        let mut fragments: Vec<Vec<PointId>> = Vec::new();
        let mut owners: Vec<(usize, PointId)> = Vec::new();
        let mut shard_ms = Vec::with_capacity(service.shard_count());
        for s in 0..service.shard_count() {
            let engine = service.shard(s).read();
            let q0 = Instant::now();
            let outcome = engine.query(pref).map_err(|e| format!("shard {s}: {e}"))?;
            let q1 = Instant::now();
            let engine_span = buf.record(root, request, "engine.query", q0, q1);
            shard_ms.push(secs(q0, q1) * 1e3);
            out.engine_ms.push(secs(q0, q1) * 1e3);
            out.shard_queries += 1;
            match outcome.method {
                MethodUsed::IpoTree => {
                    let tree = engine
                        .ipo_tree()
                        .ok_or("tree-served shard without a tree")?;
                    let c0 = Instant::now();
                    let (_, stats) = tree
                        .query_with_stats(engine.dataset(), pref)
                        .map_err(|e| e.to_string())?;
                    let c1 = Instant::now();
                    buf.record(engine_span, request, "ipo.query", c0, c1);
                    out.tree_served += 1;
                    out.ipo_us.push(secs(c0, c1) * 1e6);
                    out.ipo_nodes_visited += stats.nodes_visited;
                    out.ipo_set_operations += stats.set_operations;
                }
                MethodUsed::AdaptiveSfs => {
                    let asfs = engine
                        .adaptive()
                        .ok_or("fallback shard without Adaptive SFS")?;
                    let c0 = Instant::now();
                    let (_, stats) = asfs
                        .query_with_stats(pref, ScanMode::default())
                        .map_err(|e| e.to_string())?;
                    let c1 = Instant::now();
                    buf.record(engine_span, request, "adaptive.query", c0, c1);
                    out.adaptive_ms.push(secs(c0, c1) * 1e3);
                    out.adaptive_affected += stats.affected as u64;
                    out.adaptive_dominance_tests += stats.dominance_tests;
                    let template_skyline = asfs.sorted_entries().len().max(1) as f64;
                    out.affect_ratio
                        .push(stats.affected as f64 / template_skyline);
                    out.result_ratio
                        .push(stats.result_size as f64 / template_skyline);
                }
                MethodUsed::SfsD => {}
            }
            let mut fragment = Vec::with_capacity(outcome.skyline.len());
            for &p in &outcome.skyline {
                let values = RowValues::of(engine.dataset(), p);
                fragment.push(
                    candidates
                        .push_row_ids(&values.numeric, &values.nominal)
                        .map_err(|e| e.to_string())?,
                );
                owners.push((s, p));
            }
            fragments.push(fragment);
        }

        let m0 = Instant::now();
        let relation = CompiledRelation::compile_query(&candidates, template, pref)
            .map_err(|e| e.to_string())?;
        let m1 = Instant::now();
        let slices: Vec<&[PointId]> = fragments.iter().map(Vec::as_slice).collect();
        let m2 = Instant::now();
        let merged = merge_skylines(&relation, &slices);
        let m3 = Instant::now();
        buf.record(root, request, "core.compile_query", m0, m1);
        buf.record(root, request, "core.merge", m2, m3);
        out.compile_us.push(secs(m0, m1) * 1e6);
        out.merge_ms.push(secs(m2, m3) * 1e3);
        out.merge_in_rows += candidates.len() as u64;
        out.merge_out_rows += merged.len() as u64;
        buf.record_as(root, ROOT, request, "replay", begun, Instant::now());

        let mean = shard_ms.iter().sum::<f64>() / shard_ms.len() as f64;
        let max = shard_ms.iter().copied().fold(0.0, f64::max);
        out.shard_skew
            .push(if mean > 0.0 { max / mean } else { 1.0 });
        out.miss_work_ms.push(
            secs(t0, t1) * 1e3
                + makespan(&shard_ms, workers)
                + secs(m0, m1) * 1e3
                + secs(m2, m3) * 1e3,
        );

        let mut replayed: Vec<_> = merged
            .iter()
            .map(|&c| {
                let (shard, row) = owners[c as usize];
                skyline_service::GlobalRowId { shard, row }
            })
            .collect();
        replayed.sort_unstable();
        let mut served = service
            .serve(pref)
            .map_err(|e| format!("serving profile {i}: {e}"))?
            .outcome
            .skyline
            .to_vec();
        served.sort_unstable();
        if served != replayed {
            out.merge_mismatches += 1;
        }
    }
    Ok(out)
}

/// Rebuilds every shard through `SharedEngine::rebuild_now`; returns the summed rebuild
/// seconds.
pub fn rebuild_all(service: &ShardedService) -> Result<f64, String> {
    let mut seconds = 0.0;
    for s in 0..service.shard_count() {
        let started = Instant::now();
        service
            .shard(s)
            .rebuild_now()
            .map_err(|e| format!("rebuilding shard {s}: {e}"))?;
        seconds += started.elapsed().as_secs_f64();
    }
    Ok(seconds)
}

/// Encodes every shard's snapshot with `SkylineEngine::write_snapshot`; returns the summed
/// time (ms) and bytes.
pub fn snapshot_writes(service: &ShardedService) -> Result<(f64, usize), String> {
    let mut ms = 0.0;
    let mut bytes = 0;
    for s in 0..service.shard_count() {
        let started = Instant::now();
        let snapshot = service
            .shard(s)
            .read()
            .write_snapshot()
            .map_err(|e| format!("writing shard {s}'s snapshot: {e}"))?;
        ms += started.elapsed().as_secs_f64() * 1e3;
        bytes += snapshot.len();
    }
    Ok((ms, bytes))
}

/// Wall time of running `jobs` in order on `workers` threads, each job taken by the worker
/// that frees up first — the scatter executor's work queue.
fn makespan(jobs: &[f64], workers: usize) -> f64 {
    let mut free = vec![0.0f64; workers.max(1)];
    for &job in jobs {
        let earliest = free
            .iter_mut()
            .min_by(|a, b| a.total_cmp(b))
            .expect("at least one worker");
        *earliest += job;
    }
    free.into_iter().fold(0.0, f64::max)
}

/// The service's index storage after set-up, summed over shards: IPO tree, Adaptive-SFS
/// sorted list and value index, and the point block.
#[derive(Debug, Default, Clone, Copy)]
pub struct IndexBytes {
    pub ipo: usize,
    pub adaptive: usize,
    pub block: usize,
}

impl IndexBytes {
    pub fn of(service: &ShardedService) -> Self {
        let mut out = Self::default();
        for s in 0..service.shard_count() {
            let engine = service.shard(s).read();
            out.ipo += engine
                .ipo_tree()
                .map_or(0, |t| ipo_tree_storage(t).total_bytes());
            out.adaptive += engine.adaptive().map_or(0, AdaptiveSfs::approximate_bytes);
            out.block += engine.point_block().map_or(0, |b| b.approximate_bytes());
        }
        out
    }

    pub fn total(&self) -> usize {
        self.ipo + self.adaptive + self.block
    }
}

#[cfg(test)]
mod tests {
    use super::makespan;

    #[test]
    fn makespan_follows_the_work_queue() {
        assert_eq!(makespan(&[1.0, 2.0, 3.0], 1), 6.0);
        assert_eq!(makespan(&[3.0, 1.0, 1.0, 1.0], 2), 3.0);
        assert_eq!(makespan(&[1.0, 1.0, 1.0, 1.0], 2), 2.0);
    }
}
