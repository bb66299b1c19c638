//! Minimal Disqualifying Conditions (MDCs).
//!
//! For a template order `R` and a skyline point `p ∈ SKY(R)`, a *disqualifying condition* is a
//! set of extra value pairs `R'` (disjoint from and conflict-free with `R`) whose addition makes
//! some other point dominate `p`. A **minimal** disqualifying condition (MDC) is one with no
//! proper subset that already disqualifies `p`. The concept comes from the authors' earlier
//! "Mining favorable facets" work (\[20\]) and is used here exactly the way Section 3.1 describes:
//! during IPO-tree construction, a node's disqualified set `A` is found by checking, for every
//! template skyline point, whether one of its MDCs is contained in the node's implicit
//! preference.
//!
//! Every MDC pair states "`better` must be preferred to `worse` on nominal dimension `dim`".

use crate::bitset::BitSet;
use crate::kernel::CompiledRelation;
use crate::order::{PartialOrder, Preference};
use crate::value::{PointId, ValueId};

/// One required binary order `(better ≺ worse)` on a nominal dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MdcPair {
    /// Nominal dimension index the pair applies to.
    pub dim: u16,
    /// The value that must become preferred…
    pub better: ValueId,
    /// …to this value.
    pub worse: ValueId,
}

/// A minimal disqualifying condition: a set of [`MdcPair`]s that together disqualify one
/// template skyline point. Pairs are kept sorted so subset tests and deduplication are cheap.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mdc {
    pairs: Vec<MdcPair>,
}

impl Mdc {
    /// Creates a condition from pairs (sorted and deduplicated).
    pub fn new(mut pairs: Vec<MdcPair>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        Self { pairs }
    }

    /// The pairs of the condition.
    pub fn pairs(&self) -> &[MdcPair] {
        &self.pairs
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the condition contains no pair (never produced by the miner).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Subset test between two conditions (both sorted).
    pub fn is_subset_of(&self, other: &Mdc) -> bool {
        if self.pairs.len() > other.pairs.len() {
            return false;
        }
        let mut it = other.pairs.iter();
        'outer: for pair in &self.pairs {
            for candidate in it.by_ref() {
                match candidate.cmp(pair) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// True when every pair of the condition is implied by a *first-order* choice per
    /// dimension: `choices[dim] = Some(v)` represents the preference `v ≺ ∗` on that
    /// dimension, which implies `(v, w)` for every `w ≠ v`.
    pub fn implied_by_first_order(&self, choices: &[Option<ValueId>]) -> bool {
        self.pairs
            .iter()
            .all(|pair| choices.get(pair.dim as usize).copied().flatten() == Some(pair.better))
    }

    /// True when every pair of the condition can be derived from the given implicit preference
    /// profile (`P(R̃′)` contains the pair).
    pub fn implied_by_preference(&self, pref: &Preference) -> bool {
        self.pairs.iter().all(|pair| {
            let dim_pref = pref.dim(pair.dim as usize);
            match dim_pref.position(pair.better) {
                None => false,
                Some(bi) => match dim_pref.position(pair.worse) {
                    // better listed, worse unlisted: implied.
                    None => true,
                    Some(wi) => bi < wi,
                },
            }
        })
    }

    /// True when every pair of the condition is contained in the given per-dimension orders.
    pub fn implied_by_orders(&self, orders: &[PartialOrder]) -> bool {
        self.pairs
            .iter()
            .all(|pair| orders[pair.dim as usize].strictly_preferred(pair.better, pair.worse))
    }

    /// Approximate heap footprint in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.pairs.len() * std::mem::size_of::<MdcPair>()
    }
}

/// The MDCs of every point of a template skyline.
#[derive(Debug, Clone, Default)]
pub struct MdcIndex {
    skyline: Vec<PointId>,
    mdcs: Vec<Vec<Mdc>>,
}

impl MdcIndex {
    /// The template skyline the index was built for (same order as [`MdcIndex::mdcs_of_index`]).
    pub fn skyline(&self) -> &[PointId] {
        &self.skyline
    }

    /// Number of skyline points covered.
    pub fn len(&self) -> usize {
        self.skyline.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.skyline.is_empty()
    }

    /// MDCs of the `i`-th skyline point.
    pub fn mdcs_of_index(&self, i: usize) -> &[Mdc] {
        &self.mdcs[i]
    }

    /// MDCs of a specific point id, if it is part of the indexed skyline.
    pub fn mdcs_of_point(&self, p: PointId) -> Option<&[Mdc]> {
        self.skyline
            .iter()
            .position(|&s| s == p)
            .map(|i| self.mdcs[i].as_slice())
    }

    /// Indexes (into the skyline ordering) of the points disqualified by a combination of
    /// first-order choices (`choices[dim] = Some(v)` ⇔ the node applies `v ≺ ∗` on `dim`).
    pub fn disqualified_by_first_order(&self, choices: &[Option<ValueId>]) -> BitSet {
        let mut out = BitSet::new(self.skyline.len());
        for (i, mdcs) in self.mdcs.iter().enumerate() {
            if mdcs.iter().any(|m| m.implied_by_first_order(choices)) {
                out.insert(i);
            }
        }
        out
    }

    /// Point ids disqualified by an arbitrary implicit preference profile.
    pub fn disqualified_by_preference(&self, pref: &Preference) -> Vec<PointId> {
        self.skyline
            .iter()
            .zip(&self.mdcs)
            .filter(|(_, mdcs)| mdcs.iter().any(|m| m.implied_by_preference(pref)))
            .map(|(&p, _)| p)
            .collect()
    }

    /// Total number of stored conditions (for storage accounting).
    pub fn condition_count(&self) -> usize {
        self.mdcs.iter().map(Vec::len).sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.skyline.len() * std::mem::size_of::<PointId>()
            + self
                .mdcs
                .iter()
                .flat_map(|v| v.iter().map(Mdc::approximate_bytes))
                .sum::<usize>()
    }
}

/// Computes the MDCs of every point in `skyline` with respect to the template relation
/// compiled into `relation` (which must be the *template* relation, not a query relation),
/// using every live row of its block as a potential dominator.
///
/// For every skyline point `p` and every other point `q`, the candidate condition is the set of
/// pairs `(q.Dᵢ, p.Dᵢ)` on the nominal dimensions where the two values are distinct and not yet
/// related by the template; the candidate is feasible when `q` is at least as good as `p` on
/// every numeric dimension and never *worse* than `p` on a nominal dimension under the
/// template. Minimal candidates (by subset inclusion) are kept.
///
/// Cost is `O(|D| · |SKY(R)| · m)`, which is exactly the preprocessing cost the paper attributes
/// to IPO-tree construction.
pub fn compute_mdcs(relation: &CompiledRelation, skyline: &[PointId]) -> MdcIndex {
    let all_points: Vec<PointId> = relation.block().live_ids().collect();
    compute_mdcs_with_dominators(relation, skyline, &all_points)
}

/// Like [`compute_mdcs`] but only considers `dominators` as potential dominating points.
///
/// Restricting the dominators to the skyline of the dataset under the *same* relation as
/// `relation` is lossless: if any point disqualifies `p` under a refinement, some skyline point
/// does too (follow the dominance chain upwards). This turns the `O(|D|·|SKY|)` mining pass
/// into `O(|SKY(base)|·|SKY|)`, which is what makes full IPO-tree construction practical.
pub fn compute_mdcs_with_dominators(
    relation: &CompiledRelation,
    skyline: &[PointId],
    dominators: &[PointId],
) -> MdcIndex {
    let block = relation.block();
    let orders = relation.orders();
    let mut pairs: Vec<MdcPair> = Vec::new();
    let mut mdcs = Vec::with_capacity(skyline.len());
    for &p in skyline {
        let (pn, pm) = (block.numeric_row(p), block.nominal_row(p));
        let mut candidates: Vec<Mdc> = Vec::new();
        'next_q: for &q in dominators {
            // Numeric dimensions: q must be at least as good everywhere.
            if q == p || block.numeric_row(q).iter().zip(pn).any(|(qv, pv)| qv > pv) {
                continue;
            }
            // Nominal dimensions: collect the extra pairs needed.
            pairs.clear();
            for (j, (order, (&qv, &pv))) in orders
                .iter()
                .zip(block.nominal_row(q).iter().zip(pm))
                .enumerate()
            {
                if qv == pv || order.strictly_preferred(qv, pv) {
                    continue;
                }
                if order.strictly_preferred(pv, qv) {
                    // Any refinement keeps p strictly better here (conflict-freedom), so q can
                    // never dominate p.
                    continue 'next_q;
                }
                pairs.push(MdcPair {
                    dim: j as u16,
                    better: qv,
                    worse: pv,
                });
            }
            // An empty set means q already dominates p under the template (impossible when
            // `skyline` really is SKY(R)) or q equals p in every dimension; nothing to record
            // either way. Otherwise adding the pairs makes q strictly better, so q dominates.
            if !pairs.is_empty() {
                candidates.push(Mdc::new(pairs.clone()));
            }
        }
        mdcs.push(minimalize(candidates));
    }
    MdcIndex {
        skyline: skyline.to_vec(),
        mdcs,
    }
}

/// Removes duplicate conditions and prunes conditions that strictly contain a kept single-pair
/// condition.
///
/// Full subset-minimality is only an optimization (a superset condition can never change which
/// preferences disqualify the point, it is just redundant), and computing it exactly is
/// quadratic in the number of candidate conditions — far too slow at the paper's scale, where a
/// skyline point can have tens of thousands of dominators. Deduplication plus single-pair
/// pruning removes the overwhelming majority of the redundancy at linear cost; the handful of
/// remaining redundant multi-pair conditions only cost a few bytes of storage.
fn minimalize(candidates: Vec<Mdc>) -> Vec<Mdc> {
    use std::collections::HashSet;
    let mut distinct: Vec<Mdc> = Vec::with_capacity(candidates.len().min(1024));
    let mut seen: HashSet<Mdc> = HashSet::with_capacity(candidates.len().min(1024));
    let mut single_pairs: HashSet<MdcPair> = HashSet::new();
    for cand in candidates {
        if seen.insert(cand.clone()) {
            if cand.len() == 1 {
                single_pairs.insert(cand.pairs()[0]);
            }
            distinct.push(cand);
        }
    }
    let mut kept: Vec<Mdc> = distinct
        .into_iter()
        .filter(|c| c.len() == 1 || !c.pairs().iter().any(|p| single_pairs.contains(p)))
        .collect();
    kept.sort_by_key(Mdc::len);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bnl;
    use crate::dataset::{Dataset, DatasetBuilder, RowValue};
    use crate::dominance::DominanceContext;
    use crate::kernel::PointBlock;
    use crate::order::{ImplicitPreference, Template};
    use crate::schema::{Dimension, Schema};
    use std::sync::Arc;

    /// The template skyline from the reference oracle, plus its MDCs mined on the kernel.
    fn template_mdcs(data: &Dataset, template: &Template) -> (Vec<PointId>, MdcIndex) {
        let ctx = DominanceContext::for_template(data, template).unwrap();
        let sky = bnl::skyline(&ctx);
        let relation =
            CompiledRelation::for_template(Arc::new(PointBlock::new(data)), template).unwrap();
        let index = compute_mdcs(&relation, &sky);
        (sky, index)
    }

    fn vacation_data() -> Dataset {
        let schema = Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::numeric("class-neg"),
            Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
        ])
        .unwrap();
        let mut b = DatasetBuilder::new(schema);
        for (price, class, group) in [
            (1600.0, 4.0, "T"),
            (2400.0, 1.0, "T"),
            (3000.0, 5.0, "H"),
            (3600.0, 4.0, "H"),
            (2400.0, 2.0, "M"),
            (3000.0, 3.0, "M"),
        ] {
            b.push_row([RowValue::Num(price), RowValue::Num(-class), group.into()])
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn mdc_subset_and_implication() {
        let a = Mdc::new(vec![MdcPair {
            dim: 0,
            better: 1,
            worse: 2,
        }]);
        let b = Mdc::new(vec![
            MdcPair {
                dim: 0,
                better: 1,
                worse: 2,
            },
            MdcPair {
                dim: 1,
                better: 0,
                worse: 3,
            },
        ]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));

        assert!(a.implied_by_first_order(&[Some(1), None]));
        assert!(!a.implied_by_first_order(&[Some(2), None]));
        assert!(!b.implied_by_first_order(&[Some(1), None]));
        assert!(b.implied_by_first_order(&[Some(1), Some(0)]));

        let pref = Preference::from_dims(vec![
            ImplicitPreference::new([1]).unwrap(),
            ImplicitPreference::new([0, 3]).unwrap(),
        ]);
        assert!(b.implied_by_preference(&pref));
        let weaker = Preference::from_dims(vec![
            ImplicitPreference::new([1]).unwrap(),
            ImplicitPreference::new([3, 0]).unwrap(),
        ]);
        assert!(!b.implied_by_preference(&weaker));
    }

    #[test]
    fn mdcs_disqualify_exactly_the_right_points() {
        // Under the empty template, SKY = {a, c, e, f}. Checking each preference of Table 2
        // against the MDCs must reproduce the disqualified points.
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let (sky, index) = template_mdcs(&data, &template);
        assert_eq!(sky, vec![0, 2, 4, 5]);
        assert_eq!(index.len(), 4);
        assert!(!index.is_empty());

        let cases = [
            ("T < M < *", vec![4, 5]), // Alice keeps {a, c}
            ("H < M < *", vec![5]),    // Chris keeps {a, c, e}
            ("H < T < *", vec![4, 5]), // Emily keeps {a, c}
            ("M < *", vec![]),         // Fred keeps all four
        ];
        for (text, expected_disqualified) in cases {
            let pref = Preference::parse(&schema, [("hotel-group", text)]).unwrap();
            let got = index.disqualified_by_preference(&pref);
            assert_eq!(got, expected_disqualified, "preference {text}");
        }
    }

    #[test]
    fn disqualified_by_first_order_matches_preference_form() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let (_, index) = template_mdcs(&data, &template);
        // First-order choice T ≺ * on the only nominal dimension.
        let bits = index.disqualified_by_first_order(&[Some(0)]);
        let by_pref = index.disqualified_by_preference(&Preference::from_dims(vec![
            ImplicitPreference::first_order(0),
        ]));
        let from_bits: Vec<PointId> = bits.iter().map(|i| index.skyline()[i]).collect();
        assert_eq!(from_bits, by_pref);
        // No choice at all disqualifies nothing.
        assert!(index.disqualified_by_first_order(&[None]).is_empty());
    }

    #[test]
    fn skyline_points_never_have_empty_mdcs() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let (_, index) = template_mdcs(&data, &template);
        for i in 0..index.len() {
            for mdc in index.mdcs_of_index(i) {
                assert!(!mdc.is_empty());
            }
        }
        assert!(index.condition_count() > 0);
        assert!(index.approximate_bytes() > 0);
        assert!(index.mdcs_of_point(0).is_some());
        assert!(index.mdcs_of_point(1).is_none());
    }

    #[test]
    fn minimalize_prunes_supersets_and_duplicates() {
        let small = Mdc::new(vec![MdcPair {
            dim: 0,
            better: 1,
            worse: 0,
        }]);
        let big = Mdc::new(vec![
            MdcPair {
                dim: 0,
                better: 1,
                worse: 0,
            },
            MdcPair {
                dim: 1,
                better: 2,
                worse: 0,
            },
        ]);
        let other = Mdc::new(vec![MdcPair {
            dim: 1,
            better: 2,
            worse: 0,
        }]);
        let kept = minimalize(vec![
            big.clone(),
            small.clone(),
            small.clone(),
            other.clone(),
        ]);
        assert_eq!(kept.len(), 2);
        assert!(kept.contains(&small));
        assert!(kept.contains(&other));
        assert!(!kept.contains(&big));
    }
}
