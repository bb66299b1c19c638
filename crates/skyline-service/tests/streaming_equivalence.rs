//! Streaming equivalence: the progressive result path is observationally equal to the batch
//! path — for every mutable engine configuration, any shard count from 1 to 6, hash or range
//! partitioning (the range split is the one the merger's bound rule prunes hardest), and
//! with mutations landing mid-stream.
//!
//! Four properties per case:
//!
//! * **no retraction** — a row is emitted at most once, and every emitted row is in the
//!   final answer (there is no "tentative" output to take back);
//! * **score order** — rows arrive in ascending query-score order (the SFS presort order
//!   that makes progressive emission sound in the first place);
//! * **completeness** — the emitted set equals the batch skyline at the stream's pinned
//!   epoch;
//! * **snapshot isolation** — a mutation racing the stream does not change its answer: the
//!   stream serves the generation it started on.

use proptest::prelude::*;
use skyline::prelude::*;
use skyline_core::score::ScoreFn;
use skyline_service::{
    ServiceConfig, ShardPartition, ShardedConfig, ShardedService, SkylineService,
};
use std::sync::Arc;

const CARD: usize = 3;

type Rows = Vec<(Vec<f64>, Vec<ValueId>)>;

fn rows_strategy() -> impl Strategy<Value = Rows> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0i32..6, 2)
                .prop_map(|v| v.into_iter().map(f64::from).collect::<Vec<f64>>()),
            proptest::collection::vec(0..(CARD as ValueId), 1),
        ),
        1..16,
    )
}

fn initial_dataset(rows: &[(Vec<f64>, Vec<ValueId>)]) -> Dataset {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::numeric("y"),
        Dimension::nominal("g", NominalDomain::anonymous(CARD)),
    ])
    .unwrap();
    let mut data = Dataset::empty(schema);
    for (numeric, nominal) in rows {
        data.push_row_ids(numeric, nominal).unwrap();
    }
    data
}

/// A row's identity across engines: its raw values (numeric bit patterns + nominal ids).
type ValueKey = (Vec<u64>, Vec<ValueId>);

fn value_key(data: &Dataset, p: PointId) -> ValueKey {
    let schema = data.schema();
    (
        (0..schema.numeric_count())
            .map(|j| data.numeric(p, j).to_bits())
            .collect(),
        (0..schema.nominal_count())
            .map(|j| data.nominal(p, j))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Progressive serving — single-engine and sharded — matches batch answers everywhere.
    #[test]
    fn streaming_matches_batch_for_every_config_and_shard_count(
        initial in rows_strategy(),
        shards in 1usize..=6,
        range_partition in any::<bool>(),
        mutate_mid_stream in any::<bool>(),
        query_choices in proptest::sample::subsequence(
            (0..CARD as ValueId).collect::<Vec<_>>(), 0..=2
        ).prop_shuffle(),
    ) {
        let data = Arc::new(initial_dataset(&initial));
        let template = Template::empty(data.schema());
        let pref = Preference::from_dims(vec![ImplicitPreference::new(query_choices).unwrap()]);
        let score = ScoreFn::for_preference(data.schema(), &pref).unwrap();
        // Range split on x over [0, 6), or the default hash on the nominal dimension.
        let partition = if range_partition {
            ShardPartition::RangeNumeric {
                dim: 0,
                bounds: (1..shards).map(|i| (6 * i) as f64 / shards as f64).collect(),
            }
        } else {
            ShardPartition::HashNominal { dim: 0 }
        };

        for config in [
            EngineConfig::SfsD,
            EngineConfig::AdaptiveSfs,
            EngineConfig::Hybrid { top_k: 2 },
        ] {
            // The ground truth at the initial generation, in the initial id space.
            let reference =
                SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
            let expected_ids = reference.query(&pref).unwrap().skyline;
            let mut expected_values: Vec<ValueKey> =
                expected_ids.iter().map(|&p| value_key(&data, p)).collect();
            expected_values.sort();

            // --- Single-engine service stream ---
            let engine = SharedEngine::new(
                SkylineEngine::build(data.clone(), template.clone(), config).unwrap(),
            );
            let service = SkylineService::with_config(
                engine,
                ServiceConfig { workers: 1, ..ServiceConfig::default() },
            );
            let mut stream = service.serve_streaming(&pref).unwrap();
            let pinned = stream.epoch();
            let mut rows: Vec<PointId> = Vec::new();
            let mut mutated = false;
            while let Some(p) = stream.next_row().unwrap() {
                prop_assert!(!rows.contains(&p), "row {} emitted twice ({:?})", p, config);
                rows.push(p);
                if mutate_mid_stream && !mutated {
                    mutated = true;
                    // A dominating row lands mid-stream; the pinned snapshot must not see it.
                    service.insert_row(&[-1.0, -1.0], &[0]).unwrap();
                    prop_assert!(service.epoch() != pinned);
                }
            }
            let scores: Vec<f64> = rows.iter().map(|&p| score.score(&data, p)).collect();
            prop_assert!(
                scores.windows(2).all(|w| w[0] <= w[1]),
                "score order violated ({:?}): {:?}",
                config,
                scores
            );
            rows.sort_unstable();
            prop_assert_eq!(&rows, &expected_ids, "single-engine set mismatch ({:?})", config);

            // --- Sharded service stream ---
            let sharded = ShardedService::build(
                &data,
                template.clone(),
                config,
                ShardedConfig {
                    shards,
                    partition: partition.clone(),
                    workers: 2,
                    ..ShardedConfig::default()
                },
            )
            .unwrap();
            let mut stream = sharded.serve_streaming(&pref).unwrap();
            let mut global: Vec<skyline_service::GlobalRowId> = Vec::new();
            let mut mutated = false;
            while let Some(g) = stream.next_row().unwrap() {
                prop_assert!(!global.contains(&g), "row {:?} emitted twice ({:?})", g, config);
                global.push(g);
                if mutate_mid_stream && !mutated {
                    mutated = true;
                    sharded.insert_row(&[-1.0, -1.0], &[0]).unwrap();
                }
            }
            // Ascending global score order (ids appended post-stream keep earlier ids
            // stable, so scoring against the live shard datasets is sound).
            let scores: Vec<f64> = global
                .iter()
                .map(|g| score.score(sharded.shard(g.shard).read().dataset(), g.row))
                .collect();
            prop_assert!(
                scores.windows(2).all(|w| w[0] <= w[1]),
                "sharded score order violated ({:?}, {} shards, {:?}): {:?}",
                config,
                shards,
                partition,
                scores
            );
            let mut values: Vec<ValueKey> = global
                .iter()
                .map(|g| value_key(sharded.shard(g.shard).read().dataset(), g.row))
                .collect();
            values.sort();
            prop_assert_eq!(
                &values,
                &expected_values,
                "sharded set mismatch ({:?}, {} shards, {:?})",
                config,
                shards,
                partition
            );
        }
    }
}
