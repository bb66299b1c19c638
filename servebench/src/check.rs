//! The answer check: every distinct answer the service gave is compared, outside the timed
//! phases, with an unsharded Adaptive-SFS reference engine built on the same rows.

use crate::drive::Harness;
use skyline::{EngineConfig, SkylineEngine};
use skyline_core::Preference;
use skyline_service::{GlobalRowId, ShardedService};
use std::thread;

/// Checks the answers logged during the run; returns how many were wrong.
pub fn answers(harness: &Harness<'_>, callers: usize) -> Result<u64, String> {
    let inputs = harness.inputs;
    let mapping = ShardedService::partition_rows(
        &inputs.partition,
        harness.service.shard_count(),
        &inputs.data,
    );
    let reference = SkylineEngine::build(
        inputs.data.clone(),
        inputs.template.clone(),
        EngineConfig::AdaptiveSfs,
    )
    .map_err(|e| format!("building the reference engine: {e}"))?;
    let answers = harness.answers();
    count_mismatches(&answers, callers, |i| {
        expected(&reference, &mapping, &inputs.profiles[i])
    })
}

/// The reference answer to `pref`, in global ids, sorted.
fn expected(
    reference: &SkylineEngine,
    mapping: &[GlobalRowId],
    pref: &Preference,
) -> Result<Vec<GlobalRowId>, String> {
    let outcome = reference
        .query(pref)
        .map_err(|e| format!("reference query: {e}"))?;
    let mut ids: Vec<GlobalRowId> = outcome
        .skyline
        .iter()
        .map(|&p| mapping[p as usize])
        .collect();
    ids.sort_unstable();
    Ok(ids)
}

/// Compares every logged answer with `expected` on `callers` threads.
fn count_mismatches<F>(
    answers: &[(usize, Vec<GlobalRowId>)],
    callers: usize,
    expected: F,
) -> Result<u64, String>
where
    F: Fn(usize) -> Result<Vec<GlobalRowId>, String> + Sync,
{
    let chunk = answers.len().div_ceil(callers.max(1)).max(1);
    thread::scope(|scope| {
        let handles: Vec<_> = answers
            .chunks(chunk)
            .map(|part| {
                let expected = &expected;
                scope.spawn(move || {
                    let mut wrong = 0u64;
                    for (i, answer) in part {
                        if expected(*i)? != *answer {
                            eprintln!("servebench: wrong answer to profile {i}");
                            wrong += 1;
                        }
                    }
                    Ok(wrong)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .sum()
    })
}
