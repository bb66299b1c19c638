//! The three served-query workloads and the inputs each one generates from the seed.
//!
//! Every workload shares the paper's Table 4 data shape (3 anti-correlated numeric and 2
//! nominal dimensions, cardinality 20, Zipf θ = 1, preference order 3) at n = 50 000 rows,
//! served by Hybrid engines with a top-10 IPO tree. They differ in the service shape and the
//! query stream, so that each one loads a different layer. The open-loop rates leave the
//! callers idle most of the time, so the latencies measure the service rather than a queue.

use skyline_core::{CanonicalPreference, Dataset, PointId, Preference, Template, ValueId};
use skyline_datagen::workload::top_k_values;
use skyline_datagen::{equi_depth_bounds, ExperimentConfig, QueryGenerator, Zipf};
use skyline_service::ShardPartition;

/// Rows in every workload's dataset.
pub const TUPLES: usize = 50_000;
/// Values materialized per nominal dimension by each shard's IPO tree.
pub const TOP_K: usize = 10;

/// The service shape and query stream of one workload.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Dataset shards (1 = the single-engine case).
    pub shards: usize,
    /// Result-cache entries.
    pub cache_capacity: usize,
    /// Answer through `serve_streaming` instead of `serve`.
    pub streaming: bool,
    /// Query profiles in the pool.
    pub pool: usize,
    /// Profiles served once before the timed phases: the head of a Zipf pool, which a
    /// service in steady state already holds in its cache. Without it the open loop opens
    /// with a burst of first-touch misses whose queueing swamps the tail it reports.
    pub warm: usize,
    /// Requests draw Zipf(θ = 1) pool indices; otherwise they cycle the pool in order.
    pub zipf: bool,
    /// Profiles list only the globally top-10 values of each nominal dimension.
    pub popular_only: bool,
    /// Open-loop arrival rate, requests per second at constant spacing.
    pub rate: f64,
}

pub const SPECS: [Spec; 3] = [
    // The cache front: the working set fits the cache, so canonicalize, lookup and
    // single-flight do the work; the engine runs only on each profile's first miss.
    Spec {
        name: "zipf_hot",
        shards: 1,
        cache_capacity: 4096,
        streaming: false,
        pool: 256,
        warm: 64,
        zipf: true,
        popular_only: false,
        rate: 200.0,
    },
    // The IPO tree: every request is a miss (512 profiles cycled through 64 cache entries)
    // over values every shard's tree materializes; tree queries, merge and emit do the work.
    Spec {
        name: "cold_popular",
        shards: 4,
        cache_capacity: 64,
        streaming: true,
        pool: 512,
        warm: 0,
        zipf: false,
        popular_only: true,
        rate: 25.0,
    },
    // Adaptive SFS: the same misses over all 20 values, so nearly every shard query falls
    // back to the re-rank and elimination scan; the tree is bypassed.
    Spec {
        name: "cold_fallback",
        shards: 4,
        cache_capacity: 64,
        streaming: true,
        pool: 512,
        warm: 0,
        zipf: false,
        popular_only: false,
        rate: 15.0,
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One row's values, in numeric-index and nominal-index order.
#[derive(Debug, Clone)]
pub struct RowValues {
    pub numeric: Vec<f64>,
    pub nominal: Vec<ValueId>,
}

impl RowValues {
    /// Row `p` of `data`.
    pub fn of(data: &Dataset, p: PointId) -> Self {
        Self {
            numeric: (0..data.schema().numeric_count())
                .map(|j| data.numeric(p, j))
                .collect(),
            nominal: (0..data.schema().nominal_count())
                .map(|j| data.nominal(p, j))
                .collect(),
        }
    }
}

/// Everything a run feeds the service, generated from the seed alone.
#[derive(Debug)]
pub struct Inputs {
    pub data: Dataset,
    pub template: Template,
    pub partition: ShardPartition,
    /// The query profiles requests refer to by index.
    pub profiles: Vec<Preference>,
    /// The request stream as profile indices, cycled by the load phases.
    pub requests: Vec<usize>,
    /// Open-loop due times, seconds from the phase start.
    pub schedule: Vec<f64>,
}

/// Requests in the cycled index stream of Zipf workloads.
const ZIPF_STREAM: usize = 1 << 16;

impl Inputs {
    /// Generates the dataset of `tuples` rows, and the profiles, request stream and
    /// open-loop schedule of `spec` for `seed`, with an open-loop phase of `open_seconds`.
    pub fn generate(spec: &Spec, seed: u64, tuples: usize, open_seconds: f64) -> Self {
        let config = experiment(tuples);
        let data = config.generate_dataset();
        let template = config.template(&data);
        // Range partitioning keeps the globally popular values popular on every shard, so
        // each shard's top-10 tree materializes the values `cold_popular` asks for; under a
        // hash partition on a nominal dimension most such queries fall back.
        let partition = ShardPartition::RangeNumeric {
            dim: 0,
            bounds: equi_depth_bounds(&data, 0, spec.shards),
        };
        let mut generator = QueryGenerator::new(seed);
        let schema = data.schema().clone();
        let order = config.pref_order;
        let allowed = spec.popular_only.then(|| top_k_values(&data, TOP_K));
        let profiles = if spec.zipf {
            generator.random_preferences(&schema, &template, order, spec.pool, None)
        } else {
            distinct_profiles(&mut generator, &data, &template, order, spec.pool, allowed)
        };
        let requests = if spec.zipf {
            let zipf = Zipf::new(profiles.len(), config.theta);
            (0..ZIPF_STREAM)
                .map(|_| zipf.sample(generator.rng()) as usize)
                .collect()
        } else {
            (0..profiles.len()).collect()
        };
        let schedule = schedule(spec.rate, open_seconds);
        Self {
            data,
            template,
            partition,
            profiles,
            requests,
            schedule,
        }
    }

    /// The profile request `k` asks for (the stream wraps around).
    pub fn profile_at(&self, k: usize) -> usize {
        self.requests[k % self.requests.len()]
    }
}

/// The Table 4 configuration at `tuples` rows. Its data seed is the paper configuration's
/// fixed seed: the skyline sizes of anti-correlated data move by about 15% between data
/// seeds at this size, and the merge costs grow faster than that, so a per-run dataset
/// would swamp every latency metric. The workload seed drives everything else.
pub fn experiment(tuples: usize) -> ExperimentConfig {
    ExperimentConfig {
        n: tuples,
        ..ExperimentConfig::paper_default()
    }
}

/// `count` profiles with pairwise distinct canonical keys, each listing only `allowed`
/// values when given.
fn distinct_profiles(
    generator: &mut QueryGenerator,
    data: &Dataset,
    template: &Template,
    order: usize,
    count: usize,
    allowed: Option<Vec<Vec<ValueId>>>,
) -> Vec<Preference> {
    let schema = data.schema();
    let mut seen = std::collections::HashSet::new();
    let mut profiles = Vec::with_capacity(count);
    while profiles.len() < count {
        let pref = generator.random_preference(schema, template, order, allowed.as_deref());
        let key = CanonicalPreference::new(schema, &pref)
            .expect("generated preferences match the schema");
        if seen.insert(key) {
            profiles.push(pref);
        }
    }
    profiles
}

/// Arrivals every `1 / rate` seconds over `seconds`, as offsets from the phase start.
///
/// A constant spacing rather than Poisson gaps: on a two-core host the queueing that
/// random bursts add moved the open-loop percentiles more between runs than any change a
/// layer could make, so the schedule fixes the load and the latency reflects the service.
pub fn schedule(rate: f64, seconds: f64) -> Vec<f64> {
    (1..)
        .map(|k| k as f64 / rate)
        .take_while(|&at| at < seconds)
        .collect()
}
