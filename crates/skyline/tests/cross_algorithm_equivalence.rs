//! Property-based cross-algorithm equivalence: on random datasets and random implicit
//! preferences, every algorithm of the paper (BNL oracle, SFS-D, Adaptive SFS in both scan
//! modes, set-based IPO tree, bitmap IPO tree, hybrid engine) must return exactly the same
//! skyline.

use proptest::prelude::*;
use skyline::prelude::*;
use skyline_core::algo::bnl;

/// A compact description of a random test instance.
#[derive(Debug, Clone)]
struct Instance {
    numeric: Vec<Vec<f64>>,
    nominal: Vec<Vec<ValueId>>,
    cardinalities: Vec<usize>,
    /// Per nominal dimension: the query's ordered choice list.
    query_choices: Vec<Vec<ValueId>>,
    /// Whether the template prefers the most frequent value.
    template_most_frequent: bool,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    // 2 numeric dimensions, 2 nominal dimensions with cardinalities 3 and 4.
    let cardinalities = vec![3usize, 4usize];
    let n = 1usize..40;
    n.prop_flat_map(move |rows| {
        let cards = cardinalities.clone();
        let numeric = proptest::collection::vec(
            proptest::collection::vec(0i32..6, rows)
                .prop_map(|v| v.into_iter().map(f64::from).collect()),
            2,
        );
        let nominal = cards
            .iter()
            .map(|&c| proptest::collection::vec(0..(c as ValueId), rows))
            .collect::<Vec<_>>();
        let query = cards
            .iter()
            .map(|&c| {
                proptest::sample::subsequence((0..c as ValueId).collect::<Vec<_>>(), 0..=c.min(3))
                    .prop_shuffle()
            })
            .collect::<Vec<_>>();
        (numeric, nominal, query, any::<bool>()).prop_map(
            move |(numeric, nominal, query_choices, tmpl)| Instance {
                numeric,
                nominal,
                cardinalities: cards.clone(),
                query_choices,
                template_most_frequent: tmpl,
            },
        )
    })
}

fn build_dataset(instance: &Instance) -> std::sync::Arc<Dataset> {
    let schema = Schema::new(vec![
        Dimension::numeric("x"),
        Dimension::numeric("y"),
        Dimension::nominal("g", NominalDomain::anonymous(instance.cardinalities[0])),
        Dimension::nominal("h", NominalDomain::anonymous(instance.cardinalities[1])),
    ])
    .unwrap();
    std::sync::Arc::new(
        Dataset::from_columns(schema, instance.numeric.clone(), instance.nominal.clone()).unwrap(),
    )
}

/// Builds the query so that it refines the template (template prefix first).
fn build_query(data: &Dataset, template: &Template, instance: &Instance) -> Preference {
    let mut pref = Preference::none(2);
    for j in 0..2 {
        let mut choices: Vec<ValueId> = template
            .implicit()
            .map(|t| t.dim(j).choices().to_vec())
            .unwrap_or_default();
        for &v in &instance.query_choices[j] {
            if !choices.contains(&v) {
                choices.push(v);
            }
        }
        pref.set_dim(j, ImplicitPreference::new(choices).unwrap());
    }
    let _ = data;
    pref
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn all_algorithms_return_the_same_skyline(instance in instance_strategy()) {
        let data = build_dataset(&instance);
        let template = if instance.template_most_frequent {
            Template::most_frequent_value(&data).unwrap()
        } else {
            Template::empty(data.schema())
        };
        let query = build_query(&data, &template, &instance);

        // Oracle: brute-force BNL under the combined relation.
        let ctx = DominanceContext::for_query(&data, &template, &query).unwrap();
        let expected = bnl::skyline(&ctx);

        // SFS-D.
        let sfsd = SkylineEngine::build(data.clone(), template.clone(), EngineConfig::SfsD).unwrap();
        prop_assert_eq!(&sfsd.query(&query).unwrap().skyline, &expected);

        // Adaptive SFS, both scan modes.
        let asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
        prop_assert_eq!(&asfs.query(&query).unwrap(), &expected);
        let (full, _) = asfs
            .query_with_stats(&query, skyline::adaptive::ScanMode::FullRescan)
            .unwrap();
        prop_assert_eq!(&full, &expected);
        // Progressive iterator yields the same members.
        let mut streamed: Vec<PointId> = asfs.query_progressive(&query).unwrap().collect();
        streamed.sort_unstable();
        prop_assert_eq!(&streamed, &expected);

        // IPO tree (set-based, both build strategies) and bitmap variant.
        let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
        prop_assert_eq!(&tree.query(&data, &query).unwrap(), &expected);
        let direct = IpoTreeBuilder::new()
            .strategy(BuildStrategy::Direct)
            .build(&data, &template)
            .unwrap();
        prop_assert_eq!(&direct.query(&data, &query).unwrap(), &expected);
        let bitmap = BitmapIpoTree::from_tree(&tree, &data);
        prop_assert_eq!(&bitmap.query(&data, &query).unwrap(), &expected);

        // Hybrid engine (small top_k so the fallback path is exercised often).
        let hybrid = SkylineEngine::build(data.clone(), template.clone(), EngineConfig::Hybrid { top_k: 2 }).unwrap();
        prop_assert_eq!(&hybrid.query(&query).unwrap().skyline, &expected);
    }

    #[test]
    fn skyline_members_are_never_dominated(instance in instance_strategy()) {
        let data = build_dataset(&instance);
        let template = Template::empty(data.schema());
        let query = build_query(&data, &template, &instance);
        let ctx = DominanceContext::for_query(&data, &template, &query).unwrap();
        let asfs = AdaptiveSfs::build(data.clone(), &template).unwrap();
        let skyline = asfs.query(&query).unwrap();
        for &p in &skyline {
            for q in data.point_ids() {
                prop_assert!(!ctx.dominates(q, p), "skyline member {p} is dominated by {q}");
            }
        }
        // And every non-member is dominated by someone.
        for p in data.point_ids() {
            if !skyline.contains(&p) {
                prop_assert!(
                    data.point_ids().any(|q| ctx.dominates(q, p)),
                    "non-member {p} is not dominated"
                );
            }
        }
    }
}

/// A second generator family with *variable shape*: 1–2 numeric dimensions, 1–3 nominal
/// dimensions, cardinalities 2–6 and a narrow numeric value range (dense dominance ties),
/// exercising schema shapes the fixed-shape instances above never produce.
#[derive(Debug, Clone)]
struct WideInstance {
    numeric: Vec<Vec<f64>>,
    nominal: Vec<Vec<ValueId>>,
    cardinality: usize,
    query_choices: Vec<Vec<ValueId>>,
}

fn wide_instance_strategy() -> impl Strategy<Value = WideInstance> {
    (1usize..25, 1usize..=2, 1usize..=3, 2usize..=6).prop_flat_map(
        |(rows, numeric_dims, nominal_dims, card)| {
            let numeric = proptest::collection::vec(
                proptest::collection::vec(0i32..4, rows)
                    .prop_map(|v| v.into_iter().map(f64::from).collect::<Vec<f64>>()),
                numeric_dims,
            );
            let nominal = proptest::collection::vec(
                proptest::collection::vec(0..(card as ValueId), rows),
                nominal_dims,
            );
            let query = proptest::collection::vec(
                proptest::sample::subsequence((0..card as ValueId).collect::<Vec<_>>(), 0..=card)
                    .prop_shuffle(),
                nominal_dims,
            );
            (numeric, nominal, query).prop_map(move |(numeric, nominal, query_choices)| {
                WideInstance {
                    numeric,
                    nominal,
                    cardinality: card,
                    query_choices,
                }
            })
        },
    )
}

fn build_wide_dataset(instance: &WideInstance) -> std::sync::Arc<Dataset> {
    let mut dims = Vec::new();
    for i in 0..instance.numeric.len() {
        dims.push(Dimension::numeric(format!("n{i}")));
    }
    for j in 0..instance.nominal.len() {
        dims.push(Dimension::nominal(
            format!("c{j}"),
            NominalDomain::anonymous(instance.cardinality),
        ));
    }
    let schema = Schema::new(dims).unwrap();
    std::sync::Arc::new(
        Dataset::from_columns(schema, instance.numeric.clone(), instance.nominal.clone()).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Every engine configuration and every IPO-tree build path (MDC, direct, parallel,
    /// truncated-but-complete top-k) agrees with the BNL oracle on variable-shape instances.
    #[test]
    fn all_engine_configs_agree_on_wide_shapes(instance in wide_instance_strategy()) {
        let data = build_wide_dataset(&instance);
        let template = Template::empty(data.schema());
        let query = Preference::from_dims(
            instance
                .query_choices
                .iter()
                .map(|c| ImplicitPreference::new(c.clone()).unwrap())
                .collect(),
        );

        let ctx = DominanceContext::for_query(&data, &template, &query).unwrap();
        let expected = bnl::skyline(&ctx);

        // Every engine configuration. `IpoTreeTopK(cardinality)` materializes every value, so
        // it must accept (and agree on) arbitrary queries.
        let configs = [
            EngineConfig::SfsD,
            EngineConfig::AdaptiveSfs,
            EngineConfig::IpoTree,
            EngineConfig::IpoTreeTopK(instance.cardinality),
            EngineConfig::BitmapIpoTree,
            EngineConfig::Hybrid { top_k: 1 },
        ];
        for config in configs {
            let engine = SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
            let outcome = engine.query(&query).unwrap();
            prop_assert_eq!(&outcome.skyline, &expected, "config {:?} diverged", config);
        }

        // Both explicit build strategies and the parallel build path produce equivalent trees.
        let mdc = IpoTreeBuilder::new().build(&data, &template).unwrap();
        let direct = IpoTreeBuilder::new()
            .strategy(BuildStrategy::Direct)
            .build(&data, &template)
            .unwrap();
        let parallel = IpoTreeBuilder::new().parallel(true).build(&data, &template).unwrap();
        prop_assert_eq!(&mdc.query(&data, &query).unwrap(), &expected);
        prop_assert_eq!(&direct.query(&data, &query).unwrap(), &expected);
        prop_assert_eq!(&parallel.query(&data, &query).unwrap(), &expected);
    }

    /// On wide shapes, refining a query (appending one more value to some dimension) never
    /// grows the skyline beyond the base answer, and every engine stays consistent with the
    /// refined oracle (Theorem 1 exercised through the public engine API).
    #[test]
    fn refinement_stays_consistent_on_wide_shapes(instance in wide_instance_strategy()) {
        let data = build_wide_dataset(&instance);
        let template = Template::empty(data.schema());
        let base = Preference::from_dims(
            instance
                .query_choices
                .iter()
                .map(|c| ImplicitPreference::new(c.clone()).unwrap())
                .collect(),
        );
        // Refine: append the smallest unlisted value on each dimension (if any).
        let refined = Preference::from_dims(
            instance
                .query_choices
                .iter()
                .map(|c| {
                    let mut choices = c.clone();
                    if let Some(v) =
                        (0..instance.cardinality as ValueId).find(|v| !choices.contains(v))
                    {
                        choices.push(v);
                    }
                    ImplicitPreference::new(choices).unwrap()
                })
                .collect(),
        );
        prop_assert!(refined.refines(&base));

        let base_ctx = DominanceContext::for_query(&data, &template, &base).unwrap();
        let refined_ctx = DominanceContext::for_query(&data, &template, &refined).unwrap();
        let base_sky = bnl::skyline(&base_ctx);
        let refined_sky = bnl::skyline(&refined_ctx);
        for p in &refined_sky {
            prop_assert!(base_sky.contains(p), "refinement admitted new member {}", p);
        }

        let engine = SkylineEngine::build(data.clone(), template.clone(), EngineConfig::IpoTree).unwrap();
        prop_assert_eq!(&engine.query(&base).unwrap().skyline, &base_sky);
        prop_assert_eq!(&engine.query(&refined).unwrap().skyline, &refined_sky);
    }
}

/// Regression: a NaN numeric cell used to be accepted, and it broke the SFS presort. With rows
/// `(0, 2, x)` and `(NaN, 1, x)`, BNL answered `{1}` while SFS-D, Adaptive SFS, the IPO tree
/// and Hybrid answered `{0, 1}`. Non-finite cells are now refused at ingress, so every engine
/// keeps agreeing with the oracle.
#[test]
fn non_finite_rows_are_refused_on_every_insert_path() {
    let schema = Schema::new(vec![
        Dimension::numeric("a"),
        Dimension::numeric("b"),
        Dimension::nominal_with_labels("g", ["x"]),
    ])
    .unwrap();
    let mut data = Dataset::empty(schema);
    data.push_row_ids(&[0.0, 2.0], &[0]).unwrap();
    assert!(matches!(
        data.push_row_ids(&[f64::NAN, 1.0], &[0]),
        Err(SkylineError::InvalidArgument(_))
    ));
    let data = std::sync::Arc::new(data);
    let template = Template::empty(data.schema());
    let query = Preference::none(1);
    let ctx = DominanceContext::for_query(&data, &template, &query).unwrap();
    let expected = bnl::skyline(&ctx);
    assert_eq!(expected, vec![0]);

    for config in [
        EngineConfig::SfsD,
        EngineConfig::AdaptiveSfs,
        EngineConfig::Hybrid { top_k: 2 },
    ] {
        let mut engine = SkylineEngine::build(data.clone(), template.clone(), config).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    engine.insert_row(&[bad, 1.0], &[0]),
                    Err(SkylineError::InvalidArgument(_))
                ),
                "config {config:?} accepted {bad}"
            );
        }
        assert_eq!(engine.live_rows(), 1, "config {config:?}");
        assert_eq!(engine.query(&query).unwrap().skyline, expected);
    }
    let tree = IpoTreeBuilder::new().build(&data, &template).unwrap();
    assert_eq!(tree.query(&data, &query).unwrap(), expected);
}
