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
//! gathers with, on 8-way fragment skylines of the same workload.
//!
//! The build arms compare `AdaptiveSfs::build_with_workers(…, 1)` against the chunked
//! divide-and-conquer scan on all available cores (identical output, asserted by the
//! `kernel_equivalence` property suite; the win scales with core count, so expect parity on a
//! single-core CI box).

use criterion::{criterion_group, criterion_main, Criterion};
use skyline::prelude::*;
use skyline_core::algo::sfs;
use skyline_core::merge_skylines;
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
