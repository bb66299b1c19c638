//! Sort-First Skyline (SFS) and the paper's SFS-D baseline.
//!
//! SFS (Chomicki, Godfrey, Gryz, Liang) presorts the points by a preference function `f` that
//! is monotone with respect to dominance (`p ≺ q ⇒ f(p) < f(q)`). After the sort a point can
//! only be dominated by points that appear *before* it, so one scan with a growing skyline
//! list suffices, and every point appended to the list is final — the algorithm is
//! progressive.
//!
//! **SFS-D** in the paper is exactly this algorithm run over the *whole dataset* with the
//! ranking induced by the query's implicit preference; it needs no preprocessing but pays the
//! full `O(N log N + N·n)` cost on every query.

use super::sink::{CollectSink, ResultSink};
use super::AlgoStats;
use crate::deadline::{Deadline, DEADLINE_CHECK_INTERVAL};
use crate::dominance::{Dominance, DominanceContext};
use crate::error::Result;
use crate::order::{Preference, Template};
use crate::score::ScoreFn;
use crate::value::PointId;

/// Computes the skyline of `points` by presorting with `score` and scanning.
///
/// `score` must be monotone w.r.t. the dominance relation of `ctx`; the [`ScoreFn`] built from
/// the same preference that produced `ctx` satisfies this by construction.
pub fn skyline_sorted(
    ctx: &DominanceContext<'_>,
    score: &ScoreFn,
    points: &[PointId],
) -> Vec<PointId> {
    skyline_sorted_with_stats(ctx, score, points).0
}

/// Like [`skyline_sorted`] but also reports work counters.
pub fn skyline_sorted_with_stats(
    ctx: &DominanceContext<'_>,
    score: &ScoreFn,
    points: &[PointId],
) -> (Vec<PointId>, AlgoStats) {
    let sorted = score.sort_by_score(ctx.dataset(), points);
    scan_presorted_with_stats(ctx, &sorted)
}

/// The elimination scan of SFS over an already presorted candidate list.
///
/// Exposed separately because Adaptive SFS maintains its own sorted list and only needs the
/// scan. Points are emitted in scan order; the returned vector is therefore sorted by score,
/// not by point id. Generic over [`Dominance`], so the scan runs against either the
/// reference context or the compiled kernel.
pub fn scan_presorted<D: Dominance + ?Sized>(ctx: &D, sorted: &[PointId]) -> Vec<PointId> {
    scan_presorted_with_stats(ctx, sorted).0
}

/// Like [`scan_presorted`] but also reports work counters.
pub fn scan_presorted_with_stats<D: Dominance + ?Sized>(
    ctx: &D,
    sorted: &[PointId],
) -> (Vec<PointId>, AlgoStats) {
    scan_presorted_deadline(ctx, sorted, &Deadline::none())
        .expect("an unbounded deadline never expires")
}

/// The elimination scan with cooperative cancellation: the request [`Deadline`] is polled
/// once per [`DEADLINE_CHECK_INTERVAL`] candidates (one packed window block), so an expired
/// budget stops the scan within one block instead of running the tail to completion. Returns
/// [`crate::SkylineError::DeadlineExceeded`] on expiry; the partial window is discarded.
pub fn scan_presorted_deadline<D: Dominance + ?Sized>(
    ctx: &D,
    sorted: &[PointId],
    deadline: &Deadline,
) -> Result<(Vec<PointId>, AlgoStats)> {
    let mut sink = CollectSink::new();
    let stats = scan_presorted_sink(ctx, sorted, deadline, &mut sink)?;
    Ok((sink.into_items(), stats))
}

/// The sink-driven core of the elimination scan: every accepted point is pushed into `sink`
/// the moment it is accepted. Because the candidates are presorted by a monotone score, an
/// accepted point can never be evicted later — each emission is a **final** skyline member,
/// which is what makes the scan streamable. The batch form ([`scan_presorted_deadline`]) is
/// this function with a [`CollectSink`].
///
/// The sink may stop the scan early by returning `false` from [`ResultSink::emit`]; the scan
/// then returns normally with the counters accumulated so far. Deadlines are polled at block
/// granularity exactly as in the batch form.
pub fn scan_presorted_sink<D: Dominance + ?Sized, S: ResultSink>(
    ctx: &D,
    sorted: &[PointId],
    deadline: &Deadline,
    sink: &mut S,
) -> Result<AlgoStats> {
    let mut stats = AlgoStats::default();
    // The accepted window lives in the implementation's own representation (the compiled
    // kernel packs accepted rows into 64-row lanes); the test count matches the naive
    // loop — tests up to and including the first dominator.
    let mut window = D::Window::default();
    ctx.reset_window(&mut window);
    let mut accepted = 0usize;
    let bounded = deadline.is_bounded();
    for (i, &p) in sorted.iter().enumerate() {
        if bounded && i % DEADLINE_CHECK_INTERVAL == 0 {
            deadline.check()?;
        }
        stats.points_scanned += 1;
        match ctx.window_first_dominator(&mut window, p) {
            Some(i) => stats.dominance_tests += i as u64 + 1,
            None => {
                stats.dominance_tests += accepted as u64;
                ctx.push_window(&mut window, p);
                accepted += 1;
                if !sink.emit(p) {
                    break;
                }
            }
        }
    }
    stats.skyline_size = accepted;
    Ok(stats)
}

/// The paper's **SFS-D** baseline: answer one implicit-preference query by running SFS over
/// the entire dataset with the query's ranking. Returns point ids sorted ascending.
pub fn sfs_d(
    ctx: &DominanceContext<'_>,
    template: &Template,
    query: &Preference,
) -> Result<Vec<PointId>> {
    let _ = template; // the dominance context already folds the template in; kept for symmetry
    let score = ScoreFn::for_preference(ctx.dataset().schema(), query)?;
    let points: Vec<PointId> = ctx.dataset().point_ids().collect();
    let mut result = skyline_sorted(ctx, &score, &points);
    result.sort_unstable();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bnl;
    use crate::dataset::{Dataset, DatasetBuilder, RowValue};
    use crate::schema::{Dimension, Schema};

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
    fn sfs_matches_bnl_on_table2_preferences() {
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        for text in [
            "*",
            "T < M < *",
            "H < M < *",
            "H < M < T",
            "H < T < *",
            "M < *",
        ] {
            let pref = Preference::parse(&schema, [("hotel-group", text)]).unwrap();
            let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
            let expected = bnl::skyline(&ctx);
            let got = sfs_d(&ctx, &template, &pref).unwrap();
            assert_eq!(got, expected, "preference {text}");
        }
    }

    #[test]
    fn scan_presorted_is_progressive() {
        // With a monotone sort order, every emitted point must be a true skyline point even if
        // we stop the scan early.
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let pref = Preference::parse(&schema, [("hotel-group", "T < M < *")]).unwrap();
        let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
        let score = ScoreFn::for_preference(&schema, &pref).unwrap();
        let sorted = score.sort_by_score(&data, &data.point_ids().collect::<Vec<_>>());
        let full = scan_presorted(&ctx, &sorted);
        for k in 0..sorted.len() {
            let partial = scan_presorted(&ctx, &sorted[..k]);
            assert!(
                partial.iter().all(|p| full.contains(p)),
                "prefix scan emitted a non-skyline point"
            );
        }
    }

    #[test]
    fn sink_scan_matches_batch_scan_and_stops_early() {
        let data = vacation_data();
        let schema = data.schema().clone();
        let template = Template::empty(&schema);
        let pref = Preference::parse(&schema, [("hotel-group", "T < M < *")]).unwrap();
        let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
        let score = ScoreFn::for_preference(&schema, &pref).unwrap();
        let sorted = score.sort_by_score(&data, &data.point_ids().collect::<Vec<_>>());
        let (batch, batch_stats) =
            scan_presorted_deadline(&ctx, &sorted, &Deadline::none()).unwrap();
        // A closure sink sees exactly the batch emission sequence.
        let mut streamed = Vec::new();
        let stats = scan_presorted_sink(&ctx, &sorted, &Deadline::none(), &mut |p: PointId| {
            streamed.push(p);
            true
        })
        .unwrap();
        assert_eq!(streamed, batch);
        assert_eq!(stats, batch_stats);
        // Stopping after the first emission ends the scan without error.
        let mut first = Vec::new();
        let stats = scan_presorted_sink(&ctx, &sorted, &Deadline::none(), &mut |p: PointId| {
            first.push(p);
            false
        })
        .unwrap();
        assert_eq!(first, batch[..1]);
        assert_eq!(stats.skyline_size, 1);
    }

    #[test]
    fn stats_reflect_scan_size() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let pref = Preference::none(1);
        let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
        let score = ScoreFn::for_preference(data.schema(), &pref).unwrap();
        let (sky, stats) =
            skyline_sorted_with_stats(&ctx, &score, &data.point_ids().collect::<Vec<_>>());
        assert_eq!(stats.points_scanned, 6);
        assert_eq!(stats.skyline_size, sky.len());
        assert_eq!(sky.len(), 4);
    }

    #[test]
    fn expired_deadline_stops_the_scan() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let pref = Preference::none(1);
        let ctx = DominanceContext::for_query(&data, &template, &pref).unwrap();
        let score = ScoreFn::for_preference(data.schema(), &pref).unwrap();
        let all: Vec<PointId> = data.point_ids().collect();
        let sorted = score.sort_by_score(&data, &all);
        // Unbounded: identical to the plain scan.
        let (sky, _) = scan_presorted_deadline(&ctx, &sorted, &Deadline::none()).unwrap();
        assert_eq!(sky, scan_presorted(&ctx, &sorted));
        // Already expired: the very first block check aborts.
        let expired = Deadline::within(std::time::Duration::ZERO);
        assert_eq!(
            scan_presorted_deadline(&ctx, &sorted, &expired).unwrap_err(),
            crate::SkylineError::DeadlineExceeded
        );
        // A fired cancel token aborts the same way.
        let token = crate::CancelToken::new();
        token.cancel();
        let cancelled = Deadline::none().with_cancel(token);
        assert!(scan_presorted_deadline(&ctx, &sorted, &cancelled).is_err());
    }

    #[test]
    fn empty_input_gives_empty_skyline() {
        let data = vacation_data();
        let template = Template::empty(data.schema());
        let ctx = DominanceContext::for_template(&data, &template).unwrap();
        let score = ScoreFn::default_ranking(data.schema());
        assert!(skyline_sorted(&ctx, &score, &[]).is_empty());
    }
}
