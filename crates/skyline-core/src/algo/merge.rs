//! Cross-source skyline merge: the divide-and-conquer merge step promoted to a first-class
//! query-time operator.
//!
//! The union property behind every entry point: for any partition `D = D₁ ∪ … ∪ Dₘ`,
//! `SKY(D) ⊆ SKY(D₁) ∪ … ∪ SKY(Dₘ)` — a point dominated inside its own source is dominated
//! in the union, so one cross-source elimination over the per-source skylines yields exactly
//! the global skyline. This holds for the paper's partial-order preferences because
//! dominance is transitive (numeric `≤` composed with strict-order closures), not just for
//! total orders.
//!
//! # Contract
//!
//! Each source's candidates must be a skyline of that source: mutually non-dominating.
//! The mergers never test a candidate against its own source, so a source holding a
//! dominated pair keeps both rows. Every caller meets this: sharded `serve` and
//! `serve_streaming` feed per-shard skylines, and the Adaptive-SFS parallel build feeds
//! per-chunk skylines.
//!
//! # Source-aware elimination
//!
//! Candidates are packed per source into 64-row lane blocks, and each source keeps, per
//! numeric dimension, the minimum and maximum of the rows it holds. A candidate `c` of
//! source `s`:
//!
//! * skips source `s` (the contract);
//! * when looking for a dominator, skips every source `q` with a numeric dimension `j`
//!   where `min_q[j] > c[j]`: every row of `q` is worse than `c` there;
//! * when evicting the rows it dominates (batch forms only), skips every source `q` with a
//!   dimension `j` where `max_q[j] < c[j]`: `c` is worse than every row of `q` there;
//! * probes the lanes of every other source.
//!
//! A NaN value neither blocks nor establishes dominance, so it must never enable a skip: a
//! NaN row value counts as −∞ in `min` and as +∞ in `max`, and a NaN candidate value
//! compares false against any bound. Both rules are exact, so they change the work and
//! never the answer. The bounds come from the data: range-partitioned sources get exact
//! pruning of the sources above them, any partition gets the own-source skip, and a single
//! source comes back as-is with zero dominance tests. [`MergeStats`] counts the work.
//!
//! Three forms:
//!
//! * [`merge_skylines`] — every source lives in **one** [`PointBlock`](crate::PointBlock)
//!   (the Adaptive-SFS parallel build merges its per-chunk skylines this way);
//! * [`SkylineMerger`] — sources with their own row-id spaces (a sharded service merges
//!   per-shard skylines this way): callers push each candidate's raw values and get back
//!   `(source, id)` tags;
//! * [`ProgressiveMerger`] — the same merge over per-source **streams**, publishing rows as
//!   soon as the stream frontiers allow.
//!
//! The batch forms preserve the push order of the survivors, so feeding score-sorted
//! candidates yields a score-sorted skyline (what the SFS machinery relies on).

use crate::error::{Result, SkylineError};
use crate::kernel::{CompiledOrder, CompiledRelation};
use crate::lanes::{stage_probe, PackedLanes, LANE_COUNT};
use crate::value::{PointId, ValueId};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Deterministic work counters of a cross-source merge: identical inputs give identical
/// counts, whatever the machine or its load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Candidates pushed or offered.
    pub candidates: u64,
    /// Candidates that survived (batch) or were published (progressive).
    pub survivors: u64,
    /// 64-row lane blocks handed to dominance probes, in both directions for the batch
    /// forms (finding a dominator, evicting dominated rows).
    pub lane_blocks_probed: u64,
    /// Lane blocks a probe passed over: the candidate's own source, or a source whose value
    /// bounds rule dominance out.
    pub lane_blocks_skipped: u64,
}

impl std::ops::Add for MergeStats {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            candidates: self.candidates + other.candidates,
            survivors: self.survivors + other.survivors,
            lane_blocks_probed: self.lane_blocks_probed + other.lane_blocks_probed,
            lane_blocks_skipped: self.lane_blocks_skipped + other.lane_blocks_skipped,
        }
    }
}

/// One source's share of a merge: its surviving candidates packed into lanes, the value
/// bounds behind the skip rules, and the work its candidates did.
#[derive(Debug, Clone, Default)]
struct SourceLanes {
    lanes: PackedLanes,
    /// Per numeric dimension, the smallest value pushed here; NaN counts as −∞.
    min: Vec<f64>,
    /// Per numeric dimension, the largest value pushed here; NaN counts as +∞.
    max: Vec<f64>,
    stats: MergeStats,
}

impl SourceLanes {
    fn reset(&mut self, numeric_dims: usize, nominal_dims: usize) {
        self.lanes.reset(numeric_dims, nominal_dims);
        self.min.clear();
        self.min.resize(numeric_dims, f64::INFINITY);
        self.max.clear();
        self.max.resize(numeric_dims, f64::NEG_INFINITY);
        self.stats = MergeStats::default();
    }

    fn push(&mut self, numeric: &[f64], probe: &[u16]) {
        self.lanes.push(numeric, probe);
        for ((lo, hi), &v) in self.min.iter_mut().zip(&mut self.max).zip(numeric) {
            if v.is_nan() {
                *lo = f64::NEG_INFINITY;
                *hi = f64::INFINITY;
            } else {
                *lo = lo.min(v);
                *hi = hi.max(v);
            }
        }
    }

    fn blocks(&self) -> u64 {
        self.lanes.len().div_ceil(LANE_COUNT) as u64
    }

    /// True when no row here can dominate `c`: on some dimension every row is worse.
    fn cannot_dominate(&self, c: &[f64]) -> bool {
        self.min.iter().zip(c).any(|(&lo, &v)| lo > v)
    }

    /// True when `c` can dominate no row here: on some dimension `c` is worse than every row.
    fn cannot_be_dominated_by(&self, c: &[f64]) -> bool {
        self.max.iter().zip(c).any(|(&hi, &v)| hi < v)
    }
}

/// Resets `sources` to `count` empty sources, keeping their allocations.
fn reset_sources(
    sources: &mut Vec<SourceLanes>,
    count: usize,
    numeric_dims: usize,
    nominal_dims: usize,
) {
    sources.resize_with(count, SourceLanes::default);
    for source in sources.iter_mut() {
        source.reset(numeric_dims, nominal_dims);
    }
}

fn total_stats(sources: &[SourceLanes]) -> MergeStats {
    sources
        .iter()
        .fold(MergeStats::default(), |acc, s| acc + s.stats)
}

/// True when a row held by a source other than `own` dominates the candidate (`pn` numeric
/// values, `probe` nominal pairs). Probes only the sources the min-bound rule leaves in, and
/// charges the work to `own`.
fn find_dominator(
    sources: &mut [SourceLanes],
    own: usize,
    orders: &[CompiledOrder],
    pn: &[f64],
    probe: &[u16],
) -> bool {
    let (mut probed, mut skipped, mut found) = (0, 0, false);
    for (q, source) in sources.iter().enumerate() {
        let blocks = source.blocks();
        if q == own || source.cannot_dominate(pn) {
            skipped += blocks;
            continue;
        }
        probed += blocks;
        let limit = source.lanes.len();
        if source
            .lanes
            .first_dominator(orders, pn, probe, limit)
            .is_some()
        {
            found = true;
            break;
        }
    }
    let stats = &mut sources[own].stats;
    stats.lane_blocks_probed += probed;
    stats.lane_blocks_skipped += skipped;
    found
}

/// Evicts every row held by a source other than `own` that the candidate dominates,
/// probing only the sources the max-bound rule leaves in, and charges the work to `own`.
fn evict_dominated(
    sources: &mut [SourceLanes],
    own: usize,
    orders: &[CompiledOrder],
    pn: &[f64],
    probe: &[u16],
) {
    let (mut probed, mut skipped) = (0, 0);
    for (q, source) in sources.iter_mut().enumerate() {
        let blocks = source.blocks();
        if q == own || source.cannot_be_dominated_by(pn) {
            skipped += blocks;
            continue;
        }
        probed += blocks;
        let limit = source.lanes.len();
        source.lanes.clear_dominated_by(orders, pn, probe, limit);
    }
    let stats = &mut sources[own].stats;
    stats.lane_blocks_probed += probed;
    stats.lane_blocks_skipped += skipped;
}

/// The batch elimination behind [`merge_skylines`] and [`SkylineMerger::merge`]. Candidates
/// are taken in push order, and `slots[c]` is candidate `c`'s source in `sources` (reset by
/// the caller). A candidate dies when an earlier survivor of another source dominates it;
/// otherwise it evicts the earlier survivors of other sources it dominates and joins its own
/// source's lanes. Returns keep flags in push order.
///
/// Probing before evicting loses nothing: if an earlier survivor `k` dominates `c`,
/// transitivity puts anything `c` could kill inside `k`'s kill set, and `k` already cleared
/// it on its own turn.
fn eliminate<'a>(
    orders: &[CompiledOrder],
    sources: &mut [SourceLanes],
    slots: &[usize],
    numeric_row: impl Fn(usize) -> &'a [f64],
    nominal_row: impl Fn(usize) -> &'a [ValueId],
) -> Vec<bool> {
    let n = slots.len() as u64;
    if let Some(&first) = slots.first() {
        if slots.iter().all(|&s| s == first) {
            // One source: its candidates are its skyline, so the merge is the identity.
            sources[first].stats.candidates = n;
            sources[first].stats.survivors = n;
            return vec![true; slots.len()];
        }
    }
    let mut probe: Vec<u16> = Vec::with_capacity(orders.len() * 2);
    // Each candidate's lane in its source, or `None` when it died on arrival.
    let mut lanes: Vec<Option<usize>> = Vec::with_capacity(slots.len());
    for (c, &s) in slots.iter().enumerate() {
        sources[s].stats.candidates += 1;
        stage_probe(&mut probe, orders, nominal_row(c));
        let pn = numeric_row(c);
        if find_dominator(sources, s, orders, pn, &probe) {
            lanes.push(None);
            continue;
        }
        evict_dominated(sources, s, orders, pn, &probe);
        lanes.push(Some(sources[s].lanes.len()));
        sources[s].push(pn, &probe);
    }
    slots
        .iter()
        .zip(lanes)
        .map(|(&s, lane)| {
            let keep = lane.is_some_and(|l| sources[s].lanes.is_valid(l));
            sources[s].stats.survivors += u64::from(keep);
            keep
        })
        .collect()
}

/// Merges per-fragment skylines of disjoint row sets of one block into the skyline of their
/// union, preserving the concatenated input order of the survivors.
///
/// Each fragment is one source of the merge and must be a skyline of its own rows (see the
/// module's contract): rows are never tested against their own fragment, so a fragment
/// holding a dominated pair keeps both. Fragments must not repeat a row id: duplicates are
/// never dominated by themselves and would both survive. Fragments are skipped by the value
/// bounds of their rows as the module describes, and a merge with one non-empty fragment
/// returns it without a dominance test.
pub fn merge_skylines(relation: &CompiledRelation, fragments: &[&[PointId]]) -> Vec<PointId> {
    let candidates: Vec<PointId> = fragments.concat();
    let slots: Vec<usize> = fragments
        .iter()
        .enumerate()
        .flat_map(|(f, fragment)| std::iter::repeat_n(f, fragment.len()))
        .collect();
    let block = relation.block();
    let mut sources = Vec::new();
    reset_sources(
        &mut sources,
        fragments.len(),
        block.numeric_dims(),
        relation.orders().len(),
    );
    let keep = eliminate(
        relation.orders(),
        &mut sources,
        &slots,
        |c| block.numeric_row(candidates[c]),
        |c| block.nominal_row(candidates[c]),
    );
    candidates
        .into_iter()
        .zip(keep)
        .filter_map(|(p, keep)| keep.then_some(p))
        .collect()
}

/// Push-based cross-source skyline merge on compiled nominal orders.
///
/// Sources with different row-id spaces (dataset shards, remote partitions) cannot share a
/// [`PointBlock`](crate::PointBlock), so the merger owns a row-major copy of the candidate
/// values instead: push every per-source skyline member with its raw values, then
/// [`SkylineMerger::merge`] returns the `(source, id)` tags of the global skyline in push
/// order. Each source's candidates must be its skyline (the module's contract).
///
/// Dominance matches [`CompiledRelation::dominates`] exactly — numeric smaller-is-better
/// with NaN neither blocking nor establishing dominance, nominal strict preference through
/// the compiled closures, and value-identical candidates co-existing.
#[derive(Debug, Clone)]
pub struct SkylineMerger {
    orders: Vec<CompiledOrder>,
    numeric_dims: usize,
    numerics: Vec<f64>,
    nominals: Vec<ValueId>,
    tags: Vec<(usize, PointId)>,
    /// Per pushed candidate, its source's index in `source_tags`.
    slots: Vec<usize>,
    /// The distinct sources pushed so far, in first-push order.
    source_tags: Vec<usize>,
    /// Per-source lanes, kept across merges for their allocations.
    sources: Vec<SourceLanes>,
    /// Work counters of the last merge.
    stats: MergeStats,
}

impl SkylineMerger {
    /// An empty merger over `numeric_dims` numeric dimensions and one compiled order per
    /// nominal dimension (compile them once per query and reuse across sources).
    pub fn new(orders: Vec<CompiledOrder>, numeric_dims: usize) -> Self {
        Self {
            orders,
            numeric_dims,
            numerics: Vec::new(),
            nominals: Vec::new(),
            tags: Vec::new(),
            slots: Vec::new(),
            source_tags: Vec::new(),
            sources: Vec::new(),
            stats: MergeStats::default(),
        }
    }

    /// Number of candidates pushed so far.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True when no candidate has been pushed.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Work counters of the last [`SkylineMerger::merge`] (zero before the first).
    pub fn stats(&self) -> MergeStats {
        self.stats
    }

    /// Pushes one candidate: its source index, its id within that source, and its raw values
    /// in dimension-index order. Values must match the merger's dimensionality, and every
    /// nominal value must be inside its compiled order's domain.
    pub fn push(
        &mut self,
        source: usize,
        id: PointId,
        numeric: &[f64],
        nominal: &[ValueId],
    ) -> Result<()> {
        check_row(&self.orders, self.numeric_dims, numeric, nominal)?;
        // Callers push source by source, so the last tag almost always matches.
        let slot = match self.source_tags.iter().rposition(|&t| t == source) {
            Some(slot) => slot,
            None => {
                self.source_tags.push(source);
                self.source_tags.len() - 1
            }
        };
        self.numerics.extend_from_slice(numeric);
        self.nominals.extend_from_slice(nominal);
        self.tags.push((source, id));
        self.slots.push(slot);
        Ok(())
    }

    /// Runs the cross-source elimination and returns the surviving `(source, id)` tags in
    /// push order. The merger is left empty, ready for the next query.
    pub fn merge(&mut self) -> Vec<(usize, PointId)> {
        let (numeric_dims, nominal_dims) = (self.numeric_dims, self.orders.len());
        reset_sources(
            &mut self.sources,
            self.source_tags.len(),
            numeric_dims,
            nominal_dims,
        );
        let (numerics, nominals) = (&self.numerics, &self.nominals);
        let keep = eliminate(
            &self.orders,
            &mut self.sources,
            &self.slots,
            |c| &numerics[c * numeric_dims..(c + 1) * numeric_dims],
            |c| &nominals[c * nominal_dims..(c + 1) * nominal_dims],
        );
        let survivors = self
            .tags
            .iter()
            .zip(keep)
            .filter_map(|(&tag, keep)| keep.then_some(tag))
            .collect();
        self.stats = total_stats(&self.sources);
        self.numerics.clear();
        self.nominals.clear();
        self.tags.clear();
        self.slots.clear();
        self.source_tags.clear();
        survivors
    }
}

/// Checks one candidate row against a merger's dimensionality and nominal domains.
fn check_row(
    orders: &[CompiledOrder],
    numeric_dims: usize,
    numeric: &[f64],
    nominal: &[ValueId],
) -> Result<()> {
    if numeric.len() != numeric_dims || nominal.len() != orders.len() {
        return Err(SkylineError::InvalidArgument(format!(
            "candidate has {} numeric / {} nominal values but the merger expects {} / {}",
            numeric.len(),
            nominal.len(),
            numeric_dims,
            orders.len()
        )));
    }
    for (j, (&v, order)) in nominal.iter().zip(orders).enumerate() {
        if (v as usize) >= order.cardinality() {
            return Err(SkylineError::InvalidArgument(format!(
                "nominal value {v} on dimension {j} is outside the compiled order's \
                 cardinality {}",
                order.cardinality()
            )));
        }
    }
    Ok(())
}

/// One candidate buffered inside a [`ProgressiveMerger`], ordered by
/// `(score, source, id)` with [`f64::total_cmp`] so the resolution order is total and
/// deterministic even in the presence of NaN scores. Its values live in the merger's slab
/// at `row`.
#[derive(Debug, Clone)]
struct PendingCandidate {
    score: f64,
    source: usize,
    id: PointId,
    row: usize,
}

impl PartialEq for PendingCandidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for PendingCandidate {}
impl PartialOrd for PendingCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingCandidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then(self.source.cmp(&other.source))
            .then(self.id.cmp(&other.id))
    }
}

/// The incremental form of [`SkylineMerger`]: per-source **streams** feed it and globally
/// confirmed skyline members come out as early as the frontiers allow, instead of only after
/// every source has finished.
///
/// Each source must emit its skyline (the module's contract) in non-decreasing score order
/// under a **shared** monotone score function (`p ≺ q ⇒ f(p) < f(q)` — the
/// [`crate::score::ScoreFn`] of the query preference). Offering a candidate advances its
/// source's *frontier* to that score; a buffered candidate at score `s` is resolved once
/// every unfinished source's frontier has reached `s`: by monotonicity any potential
/// dominator scores strictly below `s`, so it has already been emitted by its source and
/// resolved here. Resolution happens in ascending `(score, source, id)` order, testing each
/// candidate against the already-published survivors of the other sources only —
/// sufficient by transitivity, exactly as in the batch elimination — and skipping the
/// sources whose minimum bounds rule out a dominator. Published rows are **final**: the
/// merged stream never retracts, and once every source is finished the published set equals
/// what [`SkylineMerger`] would have produced from the same candidates.
///
/// # Bounded staleness
///
/// By default a single stalled source gates every other stream's buffered candidates
/// forever. A **laggard timeout** ([`ProgressiveMerger::set_laggard_timeout`]) bounds that
/// staleness: [`ProgressiveMerger::take_timed_out`] force-finishes every *blocking* source
/// (one whose frontier sits below the buffered head) that has made no progress for the
/// timeout, so the next [`ProgressiveMerger::drain_ready`] publishes every row that only the
/// laggards were gating — each row then waits on the **responsive** sources only. Cutting a
/// source loose forfeits its not-yet-emitted dominators, so the caller must surface the
/// returned sources through its partial/degraded answer semantics.
#[derive(Debug, Clone)]
pub struct ProgressiveMerger {
    orders: Vec<CompiledOrder>,
    numeric_dims: usize,
    /// Per-source score frontier; `None` once the source has finished (treated as +∞).
    frontiers: Vec<Option<f64>>,
    /// When each source last advanced its frontier (its construction time before the first
    /// offer) — the staleness clock behind the laggard timeout.
    last_progress: Vec<Instant>,
    /// Staleness bound for [`ProgressiveMerger::take_timed_out`]; `None` (the default)
    /// means sources are never timed out.
    laggard_timeout: Option<Duration>,
    pending: BinaryHeap<Reverse<PendingCandidate>>,
    /// The pending candidates' values, row-major in offer order; emptied whenever nothing
    /// is pending.
    numerics: Vec<f64>,
    nominals: Vec<ValueId>,
    /// Rows in the value slab.
    slab_rows: usize,
    /// The published survivors of each source (the only dominators later candidates ever
    /// need to be tested against). Published rows are final, so no lane is evicted.
    sources: Vec<SourceLanes>,
    /// Scratch for the candidate's `(value id, layered rank)` pairs.
    probe: Vec<u16>,
}

impl ProgressiveMerger {
    /// An empty merger over `sources` streams, `numeric_dims` numeric dimensions and one
    /// compiled order per nominal dimension (compile them once per query, as for
    /// [`SkylineMerger`]).
    pub fn new(orders: Vec<CompiledOrder>, numeric_dims: usize, sources: usize) -> Self {
        let mut lanes = Vec::new();
        reset_sources(&mut lanes, sources, numeric_dims, orders.len());
        Self {
            orders,
            numeric_dims,
            frontiers: vec![Some(f64::NEG_INFINITY); sources],
            last_progress: vec![Instant::now(); sources],
            laggard_timeout: None,
            pending: BinaryHeap::new(),
            numerics: Vec::new(),
            nominals: Vec::new(),
            slab_rows: 0,
            sources: lanes,
            probe: Vec::new(),
        }
    }

    /// Sets (or clears) the bounded-staleness timeout consulted by
    /// [`ProgressiveMerger::take_timed_out`].
    pub fn set_laggard_timeout(&mut self, timeout: Option<Duration>) {
        self.laggard_timeout = timeout;
    }

    /// The configured bounded-staleness timeout, if any.
    pub fn laggard_timeout(&self) -> Option<Duration> {
        self.laggard_timeout
    }

    /// The sources currently gating the buffered head candidate: unfinished, with a frontier
    /// strictly below the head's score. Empty when nothing is buffered — there is nothing to
    /// gate. These are the streams [`ProgressiveMerger::drain_ready`] is waiting on.
    pub fn blocking_sources(&self) -> Vec<usize> {
        let Some(Reverse(top)) = self.pending.peek() else {
            return Vec::new();
        };
        self.frontiers
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_some_and(|f| top.score.total_cmp(&f) == Ordering::Greater))
            .map(|(s, _)| s)
            .collect()
    }

    /// When the earliest currently-blocking source crosses the laggard timeout: the caller's
    /// natural wait bound before re-checking [`ProgressiveMerger::take_timed_out`]. `None`
    /// without a timeout or while nothing is blocked.
    pub fn laggard_deadline(&self) -> Option<Instant> {
        let timeout = self.laggard_timeout?;
        self.blocking_sources()
            .into_iter()
            .map(|s| self.last_progress[s] + timeout)
            .min()
    }

    /// Force-finishes every blocking source whose frontier has not advanced for at least the
    /// laggard timeout as of `now`, returning them in ascending order (empty without a
    /// configured timeout). The explicit `now` keeps tests deterministic — and
    /// `Duration::ZERO` times every blocking source out immediately.
    ///
    /// A returned source behaves exactly as if [`ProgressiveMerger::finish`] had been called:
    /// further offers are rejected and its frontier stops gating the other streams, so the
    /// next [`ProgressiveMerger::drain_ready`] publishes everything only the laggards held
    /// back. The published set may then miss dominators the timed-out sources never emitted —
    /// route the returned sources through the caller's degraded-answer path.
    pub fn take_timed_out(&mut self, now: Instant) -> Vec<usize> {
        let Some(timeout) = self.laggard_timeout else {
            return Vec::new();
        };
        let timed_out: Vec<usize> = self
            .blocking_sources()
            .into_iter()
            .filter(|&s| now.saturating_duration_since(self.last_progress[s]) >= timeout)
            .collect();
        for &s in &timed_out {
            self.frontiers[s] = None;
        }
        timed_out
    }

    /// Number of rows published (confirmed) so far.
    pub fn published(&self) -> usize {
        self.sources.iter().map(|s| s.lanes.len()).sum()
    }

    /// Work counters accumulated so far, over every source.
    pub fn stats(&self) -> MergeStats {
        total_stats(&self.sources)
    }

    /// Work counters of `source`'s candidates so far (zero for an unknown source).
    pub fn source_stats(&self, source: usize) -> MergeStats {
        self.sources
            .get(source)
            .map(|s| s.stats)
            .unwrap_or_default()
    }

    /// True once every source has finished and every buffered candidate was resolved.
    pub fn is_complete(&self) -> bool {
        self.pending.is_empty() && self.frontiers.iter().all(Option::is_none)
    }

    /// Offers the next candidate of `source`'s stream: its id within the source, its query
    /// score, and its raw values in dimension-index order. Scores must be non-decreasing per
    /// source (the stream contract); values must match the merger's dimensionality.
    pub fn offer(
        &mut self,
        source: usize,
        id: PointId,
        score: f64,
        numeric: &[f64],
        nominal: &[ValueId],
    ) -> Result<()> {
        let Some(frontier) = self.frontiers.get_mut(source) else {
            return Err(SkylineError::InvalidArgument(format!(
                "source {source} is outside the merger's {} streams",
                self.frontiers.len()
            )));
        };
        let Some(last) = frontier else {
            return Err(SkylineError::InvalidArgument(format!(
                "source {source} already finished its stream"
            )));
        };
        if score.total_cmp(last) == Ordering::Less {
            return Err(SkylineError::InvalidArgument(format!(
                "source {source} emitted score {score} after {last}; streams must be \
                 non-decreasing in score"
            )));
        }
        check_row(&self.orders, self.numeric_dims, numeric, nominal)?;
        *frontier = Some(score);
        self.last_progress[source] = Instant::now();
        self.sources[source].stats.candidates += 1;
        self.numerics.extend_from_slice(numeric);
        self.nominals.extend_from_slice(nominal);
        self.pending.push(Reverse(PendingCandidate {
            score,
            source,
            id,
            row: self.slab_rows,
        }));
        self.slab_rows += 1;
        Ok(())
    }

    /// Marks `source`'s stream as exhausted: its frontier becomes +∞ and stops gating the
    /// other streams' candidates.
    pub fn finish(&mut self, source: usize) {
        if let Some(f) = self.frontiers.get_mut(source) {
            *f = None;
        }
    }

    /// Resolves every candidate the frontiers allow, appending the newly confirmed
    /// `(source, id)` tags to `out` in ascending global score order. Call after each
    /// [`ProgressiveMerger::offer`] / [`ProgressiveMerger::finish`] batch.
    pub fn drain_ready(&mut self, out: &mut Vec<(usize, PointId)>) {
        let all_finished = self.frontiers.iter().all(Option::is_none);
        let gate = self
            .frontiers
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let (numeric_dims, nominal_dims) = (self.numeric_dims, self.orders.len());
        while let Some(Reverse(top)) = self.pending.peek() {
            // Resolvable once no unfinished stream can still emit a smaller score. NaN
            // scores sort last under total_cmp and resolve only when everything finished.
            if !all_finished && top.score.total_cmp(&gate) == Ordering::Greater {
                break;
            }
            let Reverse(c) = self.pending.pop().expect("peeked above");
            let pn = &self.numerics[c.row * numeric_dims..(c.row + 1) * numeric_dims];
            let nominal = &self.nominals[c.row * nominal_dims..(c.row + 1) * nominal_dims];
            stage_probe(&mut self.probe, &self.orders, nominal);
            if !find_dominator(&mut self.sources, c.source, &self.orders, pn, &self.probe) {
                let source = &mut self.sources[c.source];
                source.push(pn, &self.probe);
                source.stats.survivors += 1;
                out.push((c.source, c.id));
            }
        }
        if self.pending.is_empty() {
            self.numerics.clear();
            self.nominals.clear();
            self.slab_rows = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bnl;
    use crate::dataset::{Dataset, DatasetBuilder, RowValue};
    use crate::dominance::DominanceContext;
    use crate::kernel::PointBlock;
    use crate::order::{Preference, Template};
    use crate::schema::{Dimension, Schema};
    use std::sync::Arc;

    /// Table 3 of the paper: two numeric + two nominal dimensions, six rows.
    fn table3_data() -> Dataset {
        let schema = Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::numeric("class-neg"),
            Dimension::nominal_with_labels("hotel-group", ["T", "H", "M"]),
            Dimension::nominal_with_labels("airline", ["G", "R", "W"]),
        ])
        .unwrap();
        let mut b = DatasetBuilder::new(schema);
        for (price, class, group, airline) in [
            (1600.0, 4.0, "T", "G"),
            (2400.0, 1.0, "T", "G"),
            (3000.0, 5.0, "H", "G"),
            (3600.0, 4.0, "H", "R"),
            (2400.0, 2.0, "M", "R"),
            (3000.0, 3.0, "M", "W"),
        ] {
            b.push_row([
                RowValue::Num(price),
                RowValue::Num(-class),
                group.into(),
                airline.into(),
            ])
            .unwrap();
        }
        b.build().unwrap()
    }

    fn query_relation(data: &Dataset, spec: &[(&str, &str)]) -> (CompiledRelation, Preference) {
        let template = Template::empty(data.schema());
        let pref = Preference::parse(data.schema(), spec.to_vec()).unwrap();
        let rel = CompiledRelation::for_query(
            Arc::new(PointBlock::new(data)),
            data.schema(),
            &template,
            &pref,
        )
        .unwrap();
        (rel, pref)
    }

    fn oracle(data: &Dataset, pref: &Preference) -> Vec<PointId> {
        let template = Template::empty(data.schema());
        let ctx = DominanceContext::for_query(data, &template, pref).unwrap();
        let mut sky = bnl::skyline(&ctx);
        sky.sort_unstable();
        sky
    }

    #[test]
    fn merge_of_every_two_way_split_is_the_global_skyline() {
        let data = table3_data();
        let (rel, pref) = query_relation(&data, &[("hotel-group", "T < *"), ("airline", "G < *")]);
        let expected = oracle(&data, &pref);
        let all: Vec<PointId> = data.point_ids().collect();
        for cut in 0..=all.len() {
            let (left, right) = all.split_at(cut);
            // Per-fragment skylines first (the operator's contract), then the merge.
            let ctx =
                DominanceContext::for_query(&data, &Template::empty(data.schema()), &pref).unwrap();
            let left_sky = bnl::skyline_of(&ctx, left);
            let right_sky = bnl::skyline_of(&ctx, right);
            let mut merged = merge_skylines(&rel, &[&left_sky, &right_sky]);
            merged.sort_unstable();
            assert_eq!(merged, expected, "split at {cut}");
        }
    }

    #[test]
    fn merge_preserves_input_order() {
        let data = table3_data();
        let (rel, _) = query_relation(&data, &[("hotel-group", "T < *")]);
        // Feed raw fragments (each a singleton, trivially its own skyline) in a fixed order:
        // the survivors must come back in that order, not sorted.
        let fragments: Vec<Vec<PointId>> =
            (0..data.len() as PointId).rev().map(|p| vec![p]).collect();
        let views: Vec<&[PointId]> = fragments.iter().map(Vec::as_slice).collect();
        let merged = merge_skylines(&rel, &views);
        let mut sorted_back = merged.clone();
        sorted_back.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(
            merged, sorted_back,
            "survivors stay in (descending) feed order"
        );
    }

    #[test]
    fn merger_matches_single_block_merge_across_sources() {
        let data = table3_data();
        let template = Template::empty(data.schema());
        let pref = Preference::parse(
            data.schema(),
            [("hotel-group", "T < *"), ("airline", "G < *")],
        )
        .unwrap();
        let orders: Vec<CompiledOrder> = template
            .effective_orders(data.schema(), &pref)
            .unwrap()
            .iter()
            .map(CompiledOrder::compile)
            .collect();

        // Split the rows across two "shards" (even/odd), push each shard's local skyline.
        let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
        let shard_rows: [Vec<PointId>; 2] = [
            data.point_ids().filter(|p| p % 2 == 0).collect(),
            data.point_ids().filter(|p| p % 2 == 1).collect(),
        ];
        let mut merger = SkylineMerger::new(orders, data.schema().numeric_count());
        for (s, rows) in shard_rows.iter().enumerate() {
            for &p in &bnl::skyline_of(&ctx, rows) {
                let numeric: Vec<f64> = (0..data.schema().numeric_count())
                    .map(|j| data.numeric(p, j))
                    .collect();
                let nominal: Vec<ValueId> = (0..data.schema().nominal_count())
                    .map(|j| data.nominal(p, j))
                    .collect();
                merger.push(s, p, &numeric, &nominal).unwrap();
            }
        }
        assert!(!merger.is_empty());
        let mut global: Vec<PointId> = merger.merge().into_iter().map(|(_, p)| p).collect();
        global.sort_unstable();
        assert_eq!(global, oracle(&data, &pref));
        assert!(merger.is_empty(), "merge drains the candidates");
    }

    #[test]
    fn value_identical_candidates_across_sources_both_survive() {
        let orders = vec![CompiledOrder::compile(&crate::order::PartialOrder::empty(
            2,
        ))];
        let mut merger = SkylineMerger::new(orders, 1);
        merger.push(0, 7, &[1.0], &[0]).unwrap();
        merger.push(1, 3, &[1.0], &[0]).unwrap();
        assert_eq!(merger.merge(), vec![(0, 7), (1, 3)]);
    }

    #[test]
    fn merger_rejects_mismatched_rows() {
        let orders = vec![CompiledOrder::compile(&crate::order::PartialOrder::empty(
            2,
        ))];
        let mut merger = SkylineMerger::new(orders, 2);
        assert!(merger.push(0, 0, &[1.0], &[0]).is_err(), "numeric arity");
        assert!(
            merger.push(0, 0, &[1.0, 2.0], &[]).is_err(),
            "nominal arity"
        );
        assert!(
            merger.push(0, 0, &[1.0, 2.0], &[5]).is_err(),
            "value outside the order's domain"
        );
        assert_eq!(merger.len(), 0);
    }

    #[test]
    fn progressive_merger_matches_batch_merger_and_never_retracts() {
        use crate::score::ScoreFn;
        let data = table3_data();
        let template = Template::empty(data.schema());
        let pref = Preference::parse(
            data.schema(),
            [("hotel-group", "T < *"), ("airline", "G < *")],
        )
        .unwrap();
        let orders: Vec<CompiledOrder> = template
            .effective_orders(data.schema(), &pref)
            .unwrap()
            .iter()
            .map(CompiledOrder::compile)
            .collect();
        let score = ScoreFn::for_preference(data.schema(), &pref).unwrap();
        let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
        let shard_rows: [Vec<PointId>; 2] = [
            data.point_ids().filter(|p| p % 2 == 0).collect(),
            data.point_ids().filter(|p| p % 2 == 1).collect(),
        ];
        // Per-shard streams: the shard skyline in ascending score order.
        let streams: Vec<Vec<PointId>> = shard_rows
            .iter()
            .map(|rows| score.sort_by_score(&data, &bnl::skyline_of(&ctx, rows)))
            .collect();
        let row_values = |p: PointId| {
            let numeric: Vec<f64> = (0..data.schema().numeric_count())
                .map(|j| data.numeric(p, j))
                .collect();
            let nominal: Vec<ValueId> = (0..data.schema().nominal_count())
                .map(|j| data.nominal(p, j))
                .collect();
            (numeric, nominal)
        };

        let mut merger = ProgressiveMerger::new(orders.clone(), data.schema().numeric_count(), 2);
        let mut confirmed: Vec<(usize, PointId)> = Vec::new();
        let mut positions = [0usize; 2];
        // Interleave the streams one row at a time, draining after every offer; nothing a
        // drain publishes may ever be contradicted later.
        loop {
            let mut progressed = false;
            for s in 0..2 {
                if positions[s] < streams[s].len() {
                    let p = streams[s][positions[s]];
                    positions[s] += 1;
                    let (numeric, nominal) = row_values(p);
                    merger
                        .offer(s, p, score.score(&data, p), &numeric, &nominal)
                        .unwrap();
                    progressed = true;
                }
                let before = confirmed.len();
                merger.drain_ready(&mut confirmed);
                // Confirmed rows arrive in non-decreasing global score order.
                for w in confirmed[before.saturating_sub(1)..].windows(2) {
                    assert!(score.score(&data, w[0].1) <= score.score(&data, w[1].1));
                }
            }
            if !progressed {
                break;
            }
        }
        merger.finish(0);
        merger.finish(1);
        merger.drain_ready(&mut confirmed);
        assert!(merger.is_complete());
        assert_eq!(merger.published(), confirmed.len());

        // The final set equals the batch SkylineMerger over the same candidates.
        let mut batch = SkylineMerger::new(orders, data.schema().numeric_count());
        for (s, stream) in streams.iter().enumerate() {
            for &p in stream {
                let (numeric, nominal) = row_values(p);
                batch.push(s, p, &numeric, &nominal).unwrap();
            }
        }
        let mut expected = batch.merge();
        expected.sort_unstable();
        let mut got = confirmed.clone();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn progressive_merger_gates_on_the_slowest_frontier() {
        let orders = vec![CompiledOrder::compile(&crate::order::PartialOrder::empty(
            2,
        ))];
        let mut merger = ProgressiveMerger::new(orders, 1, 2);
        let mut out = Vec::new();
        // Source 0 emits a row at score 5; source 1 has not reached score 5 yet, so the row
        // must stay pending — source 1 could still emit a dominator below 5.
        merger.offer(0, 10, 5.0, &[4.0], &[0]).unwrap();
        merger.drain_ready(&mut out);
        assert!(out.is_empty(), "gated by source 1's frontier");
        // Source 1 advances past score 5 with a non-dominating row: both resolve.
        merger.offer(1, 20, 6.0, &[6.0], &[1]).unwrap();
        merger.drain_ready(&mut out);
        assert_eq!(out, vec![(0, 10)]);
        merger.finish(0);
        merger.drain_ready(&mut out);
        assert_eq!(out, vec![(0, 10), (1, 20)]);
        assert!(!merger.is_complete());
        merger.finish(1);
        assert!(merger.is_complete());
    }

    #[test]
    fn progressive_merger_eliminates_across_sources() {
        let orders = vec![CompiledOrder::compile(&crate::order::PartialOrder::empty(
            2,
        ))];
        let mut merger = ProgressiveMerger::new(orders, 1, 2);
        let mut out = Vec::new();
        // (1.0) from source 0 dominates (2.0) from source 1; scores follow values here.
        merger.offer(0, 1, 1.0, &[1.0], &[0]).unwrap();
        merger.offer(1, 2, 2.0, &[2.0], &[0]).unwrap();
        merger.finish(0);
        merger.finish(1);
        merger.drain_ready(&mut out);
        assert_eq!(out, vec![(0, 1)], "dominated row never published");
        // Contract violations are rejected.
        let mut m = ProgressiveMerger::new(
            vec![CompiledOrder::compile(&crate::order::PartialOrder::empty(
                2,
            ))],
            1,
            1,
        );
        m.offer(0, 1, 3.0, &[1.0], &[0]).unwrap();
        assert!(
            m.offer(0, 2, 2.0, &[1.0], &[0]).is_err(),
            "score regression"
        );
        assert!(m.offer(5, 1, 4.0, &[1.0], &[0]).is_err(), "unknown source");
        m.finish(0);
        assert!(
            m.offer(0, 3, 4.0, &[1.0], &[0]).is_err(),
            "offer after finish"
        );
    }

    #[test]
    fn laggard_timeout_releases_rows_gated_by_a_stalled_source() {
        let orders = vec![CompiledOrder::compile(&crate::order::PartialOrder::empty(
            2,
        ))];
        let mut merger = ProgressiveMerger::new(orders, 1, 2);
        let mut out = Vec::new();
        merger.offer(0, 10, 5.0, &[4.0], &[0]).unwrap();
        merger.drain_ready(&mut out);
        assert!(out.is_empty(), "source 1's frontier gates the row");
        // Without a timeout nothing ever times out, and the deadline is absent.
        assert!(merger.take_timed_out(Instant::now()).is_empty());
        assert_eq!(merger.laggard_deadline(), None);
        // A zero timeout makes every blocking source an immediate laggard.
        merger.set_laggard_timeout(Some(Duration::ZERO));
        assert_eq!(merger.blocking_sources(), vec![1]);
        assert!(merger.laggard_deadline().is_some());
        assert_eq!(merger.take_timed_out(Instant::now()), vec![1]);
        merger.drain_ready(&mut out);
        assert_eq!(out, vec![(0, 10)], "the gated row publishes");
        // The timed-out source behaves exactly like a finished one.
        assert!(merger.offer(1, 20, 6.0, &[6.0], &[1]).is_err());
        merger.finish(0);
        merger.drain_ready(&mut out);
        assert!(merger.is_complete());
    }

    #[test]
    fn responsive_sources_are_never_timed_out() {
        let orders = vec![CompiledOrder::compile(&crate::order::PartialOrder::empty(
            2,
        ))];
        let mut merger = ProgressiveMerger::new(orders, 1, 2);
        merger.set_laggard_timeout(Some(Duration::from_secs(3600)));
        merger.offer(0, 10, 5.0, &[4.0], &[0]).unwrap();
        // Source 1 is blocking but nowhere near an hour stale.
        assert_eq!(merger.blocking_sources(), vec![1]);
        assert!(merger.take_timed_out(Instant::now()).is_empty());
        assert!(merger.laggard_deadline().unwrap() > Instant::now());
        // Nothing pending ⇒ nothing blocked ⇒ nothing to time out, even at +∞ staleness.
        let mut out = Vec::new();
        merger.offer(1, 20, 6.0, &[6.0], &[1]).unwrap();
        merger.drain_ready(&mut out);
        assert_eq!(out, vec![(0, 10)]);
        merger.set_laggard_timeout(Some(Duration::ZERO));
        // Source 0 gates (1, 20) at score 6: only source 0 may be returned, source 1 stays.
        assert_eq!(merger.take_timed_out(Instant::now()), vec![0]);
        merger.drain_ready(&mut out);
        assert_eq!(out, vec![(0, 10), (1, 20)]);
        assert!(merger.blocking_sources().is_empty());
        assert!(merger.take_timed_out(Instant::now()).is_empty());
    }

    #[test]
    fn nan_values_neither_block_nor_establish_dominance() {
        let orders: Vec<CompiledOrder> = Vec::new();
        let mut merger = SkylineMerger::new(orders, 2);
        // (NaN, 1) vs (2, 1) from different sources: no strict edge either way — both survive.
        merger.push(0, 0, &[f64::NAN, 1.0], &[]).unwrap();
        merger.push(1, 1, &[2.0, 1.0], &[]).unwrap();
        assert_eq!(merger.merge(), vec![(0, 0), (1, 1)]);
        // The progressive merger's published lanes follow the same rule.
        let mut progressive = ProgressiveMerger::new(Vec::new(), 2, 2);
        progressive.offer(0, 0, 1.0, &[f64::NAN, 1.0], &[]).unwrap();
        progressive.offer(1, 1, 2.0, &[2.0, 1.0], &[]).unwrap();
        progressive.finish(0);
        progressive.finish(1);
        let mut out = Vec::new();
        progressive.drain_ready(&mut out);
        assert_eq!(out, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn nan_values_never_enable_a_bound_skip() {
        // (NaN, 0.5) dominates (1, 1) through the second dimension. Its source's minimum on
        // dimension 0 must read −∞, or the min-bound rule would skip the dominator.
        let mut merger = SkylineMerger::new(Vec::new(), 2);
        merger.push(1, 0, &[f64::NAN, 0.5], &[]).unwrap();
        merger.push(0, 0, &[1.0, 1.0], &[]).unwrap();
        assert_eq!(merger.merge(), vec![(1, 0)]);
        let mut progressive = ProgressiveMerger::new(Vec::new(), 2, 2);
        progressive.offer(1, 0, 0.5, &[f64::NAN, 0.5], &[]).unwrap();
        progressive.offer(0, 0, 2.0, &[1.0, 1.0], &[]).unwrap();
        progressive.finish(0);
        progressive.finish(1);
        let mut out = Vec::new();
        progressive.drain_ready(&mut out);
        assert_eq!(out, vec![(1, 0)]);
        // (0.5, 1) dominates an earlier (NaN, 2): that source's maximum on dimension 0 must
        // read +∞, or the max-bound rule would skip the eviction.
        merger.push(1, 0, &[f64::NAN, 2.0], &[]).unwrap();
        merger.push(0, 0, &[0.5, 1.0], &[]).unwrap();
        assert_eq!(merger.merge(), vec![(0, 0)]);
    }

    fn dominates2(a: [f64; 2], b: [f64; 2]) -> bool {
        a[0] <= b[0] && a[1] <= b[1] && (a[0] < b[0] || a[1] < b[1])
    }

    /// One source's rows as `(id, values)`.
    type Source2 = Vec<(PointId, [f64; 2])>;

    /// 400 anti-correlated rows `(x, y)` split by range on `x` into four sources of 100,
    /// each reduced to its own skyline and listed in ascending `x + y` order; plus the ids
    /// of the global skyline, ascending.
    fn range4_sources() -> (Vec<Source2>, Vec<PointId>) {
        let rows: Vec<[f64; 2]> = (0..400u32)
            .map(|i| [f64::from(i), f64::from(400 - i + (i * 37 % 11) * 3)])
            .collect();
        let skyline_of = |ids: &[PointId]| -> Vec<PointId> {
            ids.iter()
                .copied()
                .filter(|&p| {
                    !ids.iter()
                        .any(|&q| dominates2(rows[q as usize], rows[p as usize]))
                })
                .collect()
        };
        let sources = (0..4u32)
            .map(|s| {
                let ids: Vec<PointId> = (s * 100..(s + 1) * 100).collect();
                let mut sky: Source2 = skyline_of(&ids)
                    .into_iter()
                    .map(|p| (p, rows[p as usize]))
                    .collect();
                sky.sort_by(|a, b| (a.1[0] + a.1[1]).total_cmp(&(b.1[0] + b.1[1])));
                sky
            })
            .collect();
        let all: Vec<PointId> = (0..400).collect();
        (sources, skyline_of(&all))
    }

    /// Drives a progressive merger the way the sharded stream does: pull the source with the
    /// lowest frontier, offer one row, drain.
    fn drive_progressive(
        merger: &mut ProgressiveMerger,
        sources: &[Source2],
    ) -> Vec<(usize, PointId)> {
        let mut pos = vec![0; sources.len()];
        let mut frontier = vec![f64::NEG_INFINITY; sources.len()];
        let mut active = vec![true; sources.len()];
        let mut out = Vec::new();
        while let Some(s) = (0..sources.len())
            .filter(|&s| active[s])
            .min_by(|&a, &b| frontier[a].total_cmp(&frontier[b]))
        {
            match sources[s].get(pos[s]) {
                Some(&(p, v)) => {
                    frontier[s] = v[0] + v[1];
                    merger.offer(s, p, frontier[s], &v, &[]).unwrap();
                    pos[s] += 1;
                }
                None => {
                    merger.finish(s);
                    active[s] = false;
                }
            }
            merger.drain_ready(&mut out);
        }
        assert!(merger.is_complete());
        out
    }

    #[test]
    fn range_split_sources_skip_what_their_bounds_rule_out() {
        let (sources, expected) = range4_sources();
        let candidates: usize = sources.iter().map(Vec::len).sum();
        assert!(expected.len() < candidates, "some rows die across sources");

        let mut progressive = ProgressiveMerger::new(Vec::new(), 2, 4);
        let out = drive_progressive(&mut progressive, &sources);
        let scores: Vec<f64> = out
            .iter()
            .map(|&(_, p)| sources.iter().flatten().find(|r| r.0 == p).unwrap().1)
            .map(|v| v[0] + v[1])
            .collect();
        assert!(scores.windows(2).all(|w| w[0] <= w[1]), "score order");
        let mut got: Vec<PointId> = out.iter().map(|&(_, p)| p).collect();
        got.sort_unstable();
        assert_eq!(got, expected);
        // Every other source's x is above source 0's, and its own rows never dominate it.
        let first = progressive.source_stats(0);
        assert_eq!(first.lane_blocks_probed, 0);
        assert!(first.lane_blocks_skipped > 0);
        let total = progressive.stats();
        assert!(total.lane_blocks_skipped > 0);
        assert_eq!(total.candidates, candidates as u64);
        assert_eq!(total.survivors, expected.len() as u64);
        assert_eq!(
            total,
            (0..4)
                .map(|s| progressive.source_stats(s))
                .fold(MergeStats::default(), |acc, s| acc + s)
        );

        let mut batch = SkylineMerger::new(Vec::new(), 2);
        for (s, rows) in sources.iter().enumerate() {
            for &(p, v) in rows {
                batch.push(s, p, &v, &[]).unwrap();
            }
        }
        let mut got: Vec<PointId> = batch.merge().into_iter().map(|(_, p)| p).collect();
        got.sort_unstable();
        assert_eq!(got, expected);
        let stats = batch.stats();
        assert_eq!(stats.candidates, candidates as u64);
        assert_eq!(stats.survivors, expected.len() as u64);
        assert!(stats.lane_blocks_skipped > 0);
    }

    #[test]
    fn one_source_merge_is_the_identity_with_zero_probes() {
        let rows: [[f64; 2]; 5] = [[3.0, 3.0], [1.0, 5.0], [5.0, 1.0], [2.0, 4.0], [4.0, 2.0]];
        let mut batch = SkylineMerger::new(Vec::new(), 2);
        for (p, v) in rows.iter().enumerate() {
            batch.push(7, p as PointId, v, &[]).unwrap();
        }
        let tags: Vec<(usize, PointId)> = (0..5).map(|p| (7, p)).collect();
        assert_eq!(batch.merge(), tags, "push order, nothing dropped");
        assert_eq!(
            batch.stats(),
            MergeStats {
                candidates: 5,
                survivors: 5,
                lane_blocks_probed: 0,
                lane_blocks_skipped: 0,
            }
        );

        let source = vec![rows
            .iter()
            .enumerate()
            .map(|(p, &v)| (p as PointId, v))
            .collect()];
        let mut progressive = ProgressiveMerger::new(Vec::new(), 2, 1);
        let out = drive_progressive(&mut progressive, &source);
        assert_eq!(out, tags.iter().map(|&(_, p)| (0, p)).collect::<Vec<_>>());
        assert_eq!(progressive.stats().lane_blocks_probed, 0);
        assert_eq!(progressive.stats().survivors, 5);

        // The single-block form: one non-empty fragment (plus an empty one) comes back as is.
        let data = table3_data();
        let (rel, pref) = query_relation(&data, &[("hotel-group", "T < *")]);
        let mut sky = oracle(&data, &pref);
        sky.reverse();
        assert_eq!(merge_skylines(&rel, &[&[], &sky]), sky);
    }
}
