//! The compiled dominance kernel vs. the reference `DominanceContext`, and serial vs.
//! parallel template-skyline preprocessing, on the n=2000 hybrid-engine workload of
//! `bench_throughput`.
//!
//! The query arms run the *same* algorithm — score-sort the dataset under the query ranking,
//! then the SFS elimination scan — and differ only in the pairwise dominance implementation:
//!
//! * `legacy_context_scan` — [`DominanceContext`], the reference oracle: strided columnar
//!   lookups plus a [`skyline_core::PartialOrder`] closure probe per nominal dimension;
//! * `packed_kernel_scan` — [`CompiledRelation`], the production path: a shared row-major
//!   [`PointBlock`] plus per-query closure bitmasks, with the accepted window in 64-row lane
//!   blocks tested by `u64` mask algebra.
//!
//! `merge_skylines_packed` measures the cross-fragment merge operator the sharded service
//! gathers with, on 8-way fragment skylines of the same workload. `progressive_merge_range4`
//! measures the streaming gather: a `ProgressiveMerger` over 4 sources split by range on
//! numeric dimension 0, fed the way the sharded stream feeds it. Its work counters are
//! deterministic, so every run (smoke runs included) asserts that source 0 probes no lane
//! block and that at least 30% of the lane blocks are skipped.
//!
//! The build arms compare `AdaptiveSfs::build_with_workers(…, 1)` against the chunked
//! divide-and-conquer scan on all available cores (identical output, asserted by the
//! `kernel_equivalence` property suite; the win scales with core count, so expect parity on a
//! single-core CI box).

use criterion::{criterion_group, criterion_main, Criterion};
use skyline::prelude::*;
use skyline_core::algo::sfs;
use skyline_core::score::ScoreFn;
use skyline_core::{merge_skylines, CompiledOrder, MergeStats, ProgressiveMerger};
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::sync::Arc;

const TUPLES: usize = 2_000;
const POOL: usize = 48;
const QUERIES: usize = 60;

struct Workload {
    data: Arc<Dataset>,
    template: Template,
    block: Arc<PointBlock>,
    queries: Vec<Preference>,
}

fn setup() -> Workload {
    let config = ExperimentConfig {
        n: TUPLES,
        ..ExperimentConfig::paper_default()
    };
    let data = Arc::new(config.generate_dataset());
    let template = config.template(&data);
    // The hybrid engine owns the shared point block in production; reuse it here so the
    // compiled arm measures exactly what the engine executes.
    let engine = Arc::new(
        SkylineEngine::build(
            data.clone(),
            template.clone(),
            EngineConfig::Hybrid { top_k: 10 },
        )
        .expect("hybrid engine builds"),
    );
    let block = engine
        .point_block()
        .expect("hybrid engines carry a point block")
        .clone();
    let mut generator = config.query_generator();
    let queries = generator.zipf_workload(
        data.schema(),
        &template,
        config.pref_order,
        POOL,
        QUERIES,
        config.theta,
    );
    Workload {
        data,
        template,
        block,
        queries,
    }
}

/// One source's stream for the progressive merge arm: `(id, score, numeric, nominal)` per
/// skyline member, in ascending score order.
type SourceStream = Vec<(PointId, f64, Vec<f64>, Vec<ValueId>)>;

/// Merges per-source streams the way the sharded stream does: pull the source with the
/// lowest frontier, offer its next row, drain. Returns the finished merger.
fn progressive_merge(orders: &[CompiledOrder], streams: &[SourceStream]) -> ProgressiveMerger {
    let numeric_dims = streams.iter().flatten().next().map_or(0, |row| row.2.len());
    let mut merger = ProgressiveMerger::new(orders.to_vec(), numeric_dims, streams.len());
    let mut pos = vec![0usize; streams.len()];
    let mut frontier = vec![f64::NEG_INFINITY; streams.len()];
    let mut active = vec![true; streams.len()];
    let mut out = Vec::new();
    while let Some(s) = (0..streams.len())
        .filter(|&s| active[s])
        .min_by(|&a, &b| frontier[a].total_cmp(&frontier[b]))
    {
        match streams[s].get(pos[s]) {
            Some((p, score, numeric, nominal)) => {
                frontier[s] = *score;
                merger
                    .offer(s, *p, *score, numeric, nominal)
                    .expect("streams match the merger");
                pos[s] += 1;
            }
            None => {
                merger.finish(s);
                active[s] = false;
            }
        }
        merger.drain_ready(&mut out);
    }
    merger
}

/// One full-dataset elimination pass per query on the given dominance implementation; returns
/// the summed skyline sizes as the black-boxed payload.
fn scan_all<D: Dominance>(
    w: &Workload,
    make: impl Fn(&Preference) -> D,
    sorted: &[Vec<PointId>],
) -> usize {
    w.queries
        .iter()
        .zip(sorted)
        .map(|(pref, order)| {
            let dom = make(pref);
            sfs::scan_presorted(&dom, order).len()
        })
        .sum()
}

fn bench_kernel(c: &mut Criterion) {
    let w = setup();
    // The score-sort is identical in both arms; precompute it so the timing isolates the
    // dominance kernel (the sort is the same O(N log N) constant either way).
    let all: Vec<PointId> = w.data.point_ids().collect();
    let sorted: Vec<Vec<PointId>> = w
        .queries
        .iter()
        .map(|pref| {
            let score = skyline_core::score::ScoreFn::for_preference(w.data.schema(), pref)
                .expect("workload preferences are valid");
            score.sort_by_score(&w.data, &all)
        })
        .collect();

    let mut group = c.benchmark_group("kernel_n2000_hybrid");
    group.sample_size(5);

    group.bench_function("legacy_context_scan", |b| {
        b.iter(|| {
            black_box(scan_all(
                &w,
                |pref| {
                    DominanceContext::for_query(&w.data, &w.template, pref)
                        .expect("workload preferences are valid")
                },
                &sorted,
            ))
        })
    });

    let kernel_scan = |w: &Workload, sorted: &[Vec<PointId>]| {
        scan_all(
            w,
            |pref| {
                CompiledRelation::for_query(w.block.clone(), w.data.schema(), &w.template, pref)
                    .expect("workload preferences are valid")
            },
            sorted,
        )
    };

    group.bench_function("packed_kernel_scan", |b| {
        b.iter(|| black_box(kernel_scan(&w, &sorted)))
    });

    // The cross-fragment merge operator on 8-way splits: per query, the fragments'
    // skylines are precomputed (that part belongs to the shards), so the arm isolates the
    // gather-side elimination the sharded service runs on every scatter-gather.
    let merge_inputs: Vec<(CompiledRelation, Vec<Vec<PointId>>)> = w
        .queries
        .iter()
        .take(12)
        .map(|pref| {
            let rel =
                CompiledRelation::for_query(w.block.clone(), w.data.schema(), &w.template, pref)
                    .expect("workload preferences are valid");
            let fragments: Vec<Vec<PointId>> = (0..8)
                .map(|s| {
                    let rows: Vec<PointId> =
                        (0..TUPLES as PointId).filter(|p| p % 8 == s).collect();
                    skyline_core::algo::bnl::skyline_of(&rel, &rows)
                })
                .collect();
            (rel, fragments)
        })
        .collect();
    let merge_all = |inputs: &[(CompiledRelation, Vec<Vec<PointId>>)]| -> usize {
        inputs
            .iter()
            .map(|(rel, fragments)| {
                let views: Vec<&[PointId]> = fragments.iter().map(Vec::as_slice).collect();
                merge_skylines(rel, &views).len()
            })
            .sum()
    };

    group.bench_function("merge_skylines_packed", |b| {
        b.iter(|| black_box(merge_all(&merge_inputs)))
    });

    // The streaming gather on 4 sources split by range on numeric dimension 0 at its
    // quartiles; per query, each source's skyline is precomputed in ascending score order.
    let mut dim0: Vec<f64> = w.data.point_ids().map(|p| w.data.numeric(p, 0)).collect();
    dim0.sort_by(f64::total_cmp);
    let bounds = [dim0[TUPLES / 4], dim0[TUPLES / 2], dim0[3 * TUPLES / 4]];
    let range_source = |p: PointId| {
        bounds
            .iter()
            .filter(|&&b| w.data.numeric(p, 0) >= b)
            .count()
    };
    let range_inputs: Vec<(Vec<CompiledOrder>, Vec<SourceStream>)> = merge_inputs
        .iter()
        .zip(&w.queries)
        .map(|((rel, _), pref)| {
            let score = ScoreFn::for_preference(w.data.schema(), pref)
                .expect("workload preferences are valid");
            let streams = (0..4)
                .map(|s| {
                    let rows: Vec<PointId> = w
                        .data
                        .point_ids()
                        .filter(|&p| range_source(p) == s)
                        .collect();
                    let sky = skyline_core::algo::bnl::skyline_of(rel, &rows);
                    score
                        .sort_by_score(&w.data, &sky)
                        .into_iter()
                        .map(|p| {
                            let schema = w.data.schema();
                            (
                                p,
                                score.score(&w.data, p),
                                (0..schema.numeric_count())
                                    .map(|j| w.data.numeric(p, j))
                                    .collect(),
                                (0..schema.nominal_count())
                                    .map(|j| w.data.nominal(p, j))
                                    .collect(),
                            )
                        })
                        .collect()
                })
                .collect();
            (rel.orders().to_vec(), streams)
        })
        .collect();
    group.bench_function("progressive_merge_range4", |b| {
        b.iter(|| {
            black_box(
                range_inputs
                    .iter()
                    .map(|(orders, streams)| progressive_merge(orders, streams).published())
                    .sum::<usize>(),
            )
        })
    });

    group.bench_function("asfs_build_serial", |b| {
        b.iter(|| {
            black_box(
                AdaptiveSfs::build_with_workers(w.data.clone(), &w.template, 1)
                    .expect("build succeeds"),
            )
        })
    });

    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    group.bench_function("asfs_build_parallel", |b| {
        b.iter(|| {
            black_box(
                AdaptiveSfs::build_with_workers(w.data.clone(), &w.template, cores)
                    .expect("build succeeds"),
            )
        })
    });
    group.finish();

    // The range merge's work counters are deterministic, so they are asserted on every run:
    // no other source's rows sit below source 0's on dimension 0, and its own rows never
    // dominate it, so its candidates probe nothing.
    let mut range_total = MergeStats::default();
    for (q, (orders, streams)) in range_inputs.iter().enumerate() {
        let merger = progressive_merge(orders, streams);
        assert_eq!(
            merger.source_stats(0).lane_blocks_probed,
            0,
            "query {q}: source 0 of the range split probed lane blocks"
        );
        range_total = range_total + merger.stats();
    }
    let handed = range_total.lane_blocks_probed + range_total.lane_blocks_skipped;
    let skipped = range_total.lane_blocks_skipped as f64 / handed.max(1) as f64;
    println!(
        "  summary: progressive_merge_range4 over {} queries: {} candidates, {} survivors, \
         {} lane blocks probed, {} skipped ({:.0}%)",
        range_inputs.len(),
        range_total.candidates,
        range_total.survivors,
        range_total.lane_blocks_probed,
        range_total.lane_blocks_skipped,
        skipped * 100.0,
    );
    assert!(
        skipped >= 0.3,
        "the range merge must skip at least 30% of its lane blocks, skipped {:.1}%",
        skipped * 100.0
    );

    // Extra measured passes reporting the acceptance numbers alongside the timings: three
    // interleaved rounds per arm, best-of taken, so a single noisy pass cannot skew the
    // printed (and locally asserted) speedups.
    let mut legacy = std::time::Duration::MAX;
    let mut packed = std::time::Duration::MAX;
    for _ in 0..3 {
        let started = std::time::Instant::now();
        let legacy_total = scan_all(
            &w,
            |pref| DominanceContext::for_query(&w.data, &w.template, pref).unwrap(),
            &sorted,
        );
        legacy = legacy.min(started.elapsed());
        let started = std::time::Instant::now();
        let packed_total = kernel_scan(&w, &sorted);
        packed = packed.min(started.elapsed());
        assert_eq!(
            legacy_total, packed_total,
            "kernel and reference must produce identical skylines"
        );
    }
    let speedup = legacy.as_secs_f64() / packed.as_secs_f64();
    println!(
        "  summary: {QUERIES} queries at n={TUPLES} ({cores} cores); \
         packed kernel speedup {speedup:.1}x over DominanceContext \
         (legacy {:.1}ms, packed {:.1}ms)",
        legacy.as_secs_f64() * 1e3,
        packed.as_secs_f64() * 1e3,
    );
    // Hard-assert only on full local runs; the CI smoke job (SKYLINE_BENCH_SAMPLES set) runs
    // on noisy shared runners where a hard perf gate would flake.
    if std::env::var("SKYLINE_BENCH_SAMPLES").is_err() {
        assert!(
            speedup >= 1.95,
            "packed kernel must beat the reference path by 1.95x, got {speedup:.2}x"
        );
    } else if speedup < 1.0 {
        println!("::warning title=kernel bench::packed kernel slower than reference ({speedup:.2}x) in this smoke run");
    }
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
