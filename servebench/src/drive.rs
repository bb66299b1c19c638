//! Load generation through `ShardedService`'s public API: the open-loop and closed-loop
//! phases, the paced write probe, and the log of every distinct answer.

use crate::spans::{SpanBuf, Tracer, ROOT};
use crate::workload::{Inputs, RowValues, Spec};
use skyline_core::{PointId, SkylineError};
use skyline_service::{GlobalRowId, ShardedOutcome, ShardedService};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Rounds of the write probe run on read-only workloads.
const PROBE_ROUNDS: usize = 300;
/// Rows each probe round inserts and then deletes.
const PROBE_BATCH: usize = 32;
/// Spacing of the probe's rounds.
const PROBE_GAP: Duration = Duration::from_millis(4);
/// Time windows of the closed loop.
const RATE_WINDOWS: usize = 8;
/// Callers sleep until this long before a due time, then yield-spin to it.
const SPIN_WINDOW: Duration = Duration::from_micros(300);

/// Failed operations by cause.
#[derive(Debug, Default)]
pub struct Failures {
    pub errors: AtomicU64,
    pub shed: AtomicU64,
    pub deadline_misses: AtomicU64,
    pub degraded: AtomicU64,
    pub wrong: AtomicU64,
}

impl Failures {
    fn record(&self, e: &SkylineError) {
        let counter = match e {
            SkylineError::Overloaded => &self.shed,
            SkylineError::DeadlineExceeded => &self.deadline_misses,
            _ => &self.errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub fn wrong(&self) {
        self.wrong.fetch_add(1, Ordering::Relaxed);
    }

    pub fn total(&self) -> u64 {
        [
            &self.errors,
            &self.shed,
            &self.deadline_misses,
            &self.degraded,
            &self.wrong,
        ]
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .sum()
    }
}

/// One timed request of the open loop.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Index of the profile asked for.
    pub profile: usize,
    /// Answered from the result cache (never known for streams, which count as misses).
    pub cache_hit: bool,
    pub ok: bool,
    pub traced: bool,
    /// The caller was idle before the request was due, so `start - due` is generator lag
    /// rather than queueing behind busy callers.
    pub idle_caller: bool,
    pub due: Instant,
    pub start: Instant,
    /// First row received (the `serve` return for batch answers).
    pub first: Instant,
    /// Last row received (the `serve` return for batch answers).
    pub last: Instant,
    pub rows: usize,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        ms(self.due, self.last)
    }

    pub fn ttfr_ms(&self) -> f64 {
        ms(self.due, self.first)
    }

    pub fn wait_ms(&self) -> f64 {
        ms(self.due, self.start)
    }
}

/// What executing one operation produced.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    ok: bool,
    cache_hit: bool,
    first: Instant,
    last: Instant,
    rows: usize,
}

impl Outcome {
    fn failed(at: Instant) -> Self {
        Self {
            ok: false,
            cache_hit: false,
            first: at,
            last: at,
            rows: 0,
        }
    }
}

/// The open-loop phase's records plus how far behind its schedule it ended.
#[derive(Debug)]
pub struct OpenLoop {
    pub records: Vec<Record>,
    /// Requests due by the end of the schedule but not started when it ended.
    pub backlog_end: usize,
    /// Position in the request stream after the phase.
    pub next_request: usize,
}

/// The closed-loop phase's counts.
#[derive(Debug)]
pub struct ClosedLoop {
    /// Answered queries per second: the median over [`RATE_WINDOWS`] equal time windows.
    pub qps: f64,
    pub ops: u64,
}

/// An answer to log: a batch outcome (shared with the result cache) or streamed rows.
enum Answer<'r> {
    Served(&'r Arc<ShardedOutcome>),
    Streamed(&'r [GlobalRowId]),
}

/// A profile's first answer, sorted, plus the last batch outcome found equal to it.
struct Logged {
    sorted: Vec<GlobalRowId>,
    seen: Option<Arc<ShardedOutcome>>,
}

/// Where a traced request's spans go.
struct Trace<'b, 'a> {
    buf: &'b mut SpanBuf<'a>,
    root: u64,
    request: u64,
}

fn span(trace: &mut Option<Trace<'_, '_>>, name: &'static str, start: Instant, end: Instant) {
    if let Some(t) = trace {
        t.buf.record(t.root, t.request, name, start, end);
    }
}

/// Sends workload requests to one service and logs what it answered.
pub struct Harness<'a> {
    pub service: &'a ShardedService,
    pub spec: &'static Spec,
    pub inputs: &'a Inputs,
    pub failures: Failures,
    tracer: Option<&'a Tracer>,
    /// The first answer to each profile.
    answers: Vec<Mutex<Option<Logged>>>,
}

impl<'a> Harness<'a> {
    pub fn new(
        service: &'a ShardedService,
        spec: &'static Spec,
        inputs: &'a Inputs,
        tracer: Option<&'a Tracer>,
    ) -> Self {
        Self {
            service,
            spec,
            inputs,
            failures: Failures::default(),
            tracer,
            answers: (0..inputs.profiles.len())
                .map(|_| Mutex::new(None))
                .collect(),
        }
    }

    /// Serves profiles `0..spec.warm` once, untimed; returns how many it served.
    pub fn warm(&self) -> usize {
        let count = self.spec.warm.min(self.inputs.profiles.len());
        for i in 0..count {
            self.execute(i, &mut None);
        }
        count
    }

    /// The open loop: every caller takes the next due request from one shared schedule, so a
    /// stall delays every later request, and each request is timed from its due time.
    /// With a tracer, about every other request is traced, chosen by [`is_traced`].
    pub fn open_loop(&self, callers: usize) -> OpenLoop {
        let schedule = &self.inputs.schedule;
        let next = AtomicUsize::new(0);
        let started = Instant::now() + Duration::from_millis(20);
        let mut records: Vec<Record> = thread::scope(|scope| {
            let handles: Vec<_> = (0..callers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut buf = self.tracer.map(Tracer::buffer);
                        let mut records = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&offset) = schedule.get(k) else {
                                break;
                            };
                            let profile = self.inputs.profile_at(k);
                            let due = started + Duration::from_secs_f64(offset);
                            let idle_caller = Instant::now() < due;
                            if idle_caller {
                                wait_until(due);
                            }
                            let start = Instant::now();
                            let traced = is_traced(k);
                            let mut trace = buf.as_mut().filter(|_| traced).map(|buf| {
                                let root = buf.id();
                                Trace {
                                    buf,
                                    root,
                                    request: k as u64,
                                }
                            });
                            let outcome = self.execute(profile, &mut trace);
                            if let Some(t) = trace {
                                t.buf
                                    .record(t.root, t.request, "harness.queue_wait", due, start);
                                t.buf.record_as(
                                    t.root,
                                    ROOT,
                                    t.request,
                                    "request",
                                    due,
                                    outcome.last,
                                );
                            }
                            records.push(Record {
                                profile,
                                cache_hit: outcome.cache_hit,
                                ok: outcome.ok,
                                traced: buf.is_some() && traced,
                                idle_caller,
                                due,
                                start,
                                first: outcome.first,
                                last: outcome.last,
                                rows: outcome.rows,
                            });
                        }
                        records
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("caller thread panicked"))
                .collect()
        });
        records.sort_by_key(|r| r.due);
        let ended = started + Duration::from_secs_f64(schedule.last().copied().unwrap_or(0.0));
        OpenLoop {
            backlog_end: records.iter().filter(|r| r.start > ended).count(),
            records,
            next_request: schedule.len(),
        }
    }

    /// The closed loop: `callers` threads each send their next request as soon as the
    /// previous one completes, for `seconds`, continuing the stream at `first_request`.
    pub fn closed_loop(&self, callers: usize, first_request: usize, seconds: f64) -> ClosedLoop {
        let cursor = AtomicUsize::new(first_request);
        let ops = AtomicU64::new(0);
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let window = Duration::from_secs_f64(seconds / RATE_WINDOWS as f64);
        let answered: Vec<AtomicU64> = (0..RATE_WINDOWS).map(|_| AtomicU64::new(0)).collect();
        thread::scope(|scope| {
            for _ in 0..callers {
                scope.spawn(|| {
                    while Instant::now() < deadline {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let outcome = self.execute(self.inputs.profile_at(k), &mut None);
                        ops.fetch_add(1, Ordering::Relaxed);
                        let w = outcome.last.duration_since(started).as_nanos()
                            / window.as_nanos().max(1);
                        if let (true, Some(count)) = (outcome.ok, answered.get(w as usize)) {
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // The median window's rate: a short stall of the host moves one window, not the
        // result.
        let rates: Vec<f64> = answered
            .iter()
            .map(|c| c.load(Ordering::Relaxed) as f64 / window.as_secs_f64())
            .collect();
        ClosedLoop {
            qps: crate::report::median(&rates),
            ops: ops.into_inner(),
        }
    }

    /// Write cost: paced rounds on the otherwise idle service, each inserting copies of
    /// [`PROBE_BATCH`] dataset rows and then deleting them, so every round leaves the live
    /// rows as they were. Returns each round's time per write (ms)
    /// and the number of writes attempted. A round is timed from its own start: the probe
    /// measures the write path, not how far the harness fell behind its pacing.
    pub fn write_probe(&self) -> (Vec<f64>, usize) {
        let mut buf = self.tracer.map(Tracer::buffer);
        let data = &self.inputs.data;
        let started = Instant::now() + PROBE_GAP;
        let mut per_write_ms = Vec::with_capacity(PROBE_ROUNDS);
        for round in 0..PROBE_ROUNDS {
            let due = started + PROBE_GAP * round as u32;
            wait_until(due);
            let rows: Vec<RowValues> = (0..PROBE_BATCH)
                .map(|i| {
                    let p = (round * PROBE_BATCH + i) * 997 % data.len();
                    RowValues::of(data, p as PointId)
                })
                .collect();
            let mut ids = Vec::with_capacity(PROBE_BATCH);
            let mut spans = Vec::with_capacity(2 * PROBE_BATCH);
            let begun = Instant::now();
            for values in &rows {
                let start = Instant::now();
                let inserted = self.service.insert_row(&values.numeric, &values.nominal);
                spans.push(("service.insert_row", start, Instant::now()));
                match inserted {
                    Ok(id) => ids.push(id),
                    Err(e) => self.failures.record(&e),
                }
            }
            for &id in &ids {
                let start = Instant::now();
                let deleted = self.service.delete_row(id);
                spans.push(("service.delete_row", start, Instant::now()));
                match deleted {
                    Ok(true) => {}
                    Ok(false) => self.failures.error(),
                    Err(e) => self.failures.record(&e),
                }
            }
            let end = Instant::now();
            per_write_ms.push(ms(begun, end) / (2 * PROBE_BATCH) as f64);
            if let Some(buf) = buf.as_mut() {
                let request = (1u64 << 32) + round as u64;
                let root = buf.id();
                for (name, start, stop) in spans {
                    buf.record(root, request, name, start, stop);
                }
                buf.record_as(root, ROOT, request, "request", begun, end);
                for (values, id) in rows.iter().zip(&ids) {
                    engine_write_twin(self.service, id.shard, values, buf, request);
                }
            }
        }
        (per_write_ms, PROBE_ROUNDS * 2 * PROBE_BATCH)
    }

    /// Answers profile `i` the way the workload asks.
    fn execute(&self, i: usize, trace: &mut Option<Trace<'_, '_>>) -> Outcome {
        if self.spec.streaming {
            self.stream(i, trace)
        } else {
            self.serve(i, trace)
        }
    }

    fn serve(&self, i: usize, trace: &mut Option<Trace<'_, '_>>) -> Outcome {
        let start = Instant::now();
        let result = self.service.serve(&self.inputs.profiles[i]);
        let end = Instant::now();
        span(trace, "service.serve", start, end);
        match result {
            Ok(served) if served.is_degraded() => {
                self.failures.degraded.fetch_add(1, Ordering::Relaxed);
                Outcome::failed(end)
            }
            Ok(served) => Outcome {
                ok: self.log_answer(i, Answer::Served(&served.outcome)),
                cache_hit: served.cache_hit,
                first: end,
                last: end,
                rows: served.outcome.skyline.len(),
            },
            Err(e) => {
                self.failures.record(&e);
                Outcome::failed(end)
            }
        }
    }

    fn stream(&self, i: usize, trace: &mut Option<Trace<'_, '_>>) -> Outcome {
        let start = Instant::now();
        let stream = self.service.serve_streaming(&self.inputs.profiles[i]);
        let opened = Instant::now();
        span(trace, "service.serve_streaming", start, opened);
        let mut stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                self.failures.record(&e);
                return Outcome::failed(opened);
            }
        };
        let mut rows = Vec::new();
        let mut first = None;
        let mut last = opened;
        loop {
            match stream.next_row() {
                Ok(Some(id)) => {
                    last = Instant::now();
                    first.get_or_insert(last);
                    rows.push(id);
                }
                Ok(None) => break,
                Err(e) => {
                    self.failures.record(&e);
                    return Outcome::failed(Instant::now());
                }
            }
        }
        let done = Instant::now();
        let first = first.unwrap_or(done);
        if rows.is_empty() {
            last = done;
        }
        // Pulls up to the first row, then the rest of the emission.
        span(trace, "service.next_row.first", opened, first);
        span(trace, "service.next_row.rest", first, last);
        if !stream.degraded_shards().is_empty() {
            self.failures.degraded.fetch_add(1, Ordering::Relaxed);
            return Outcome::failed(last);
        }
        Outcome {
            ok: self.log_answer(i, Answer::Streamed(&rows)),
            cache_hit: false,
            first,
            last,
            rows: rows.len(),
        }
    }

    /// Logs `answer` as profile `i`'s answer; false (and a wrong answer counted) when it
    /// differs from the profile's first answer. A cache hit handing out the very allocation
    /// already compared is equal by construction, so the hot path skips the sort.
    fn log_answer(&self, i: usize, answer: Answer<'_>) -> bool {
        let mut slot = self.answers[i].lock().expect("no caller panicked");
        if let (
            Answer::Served(outcome),
            Some(Logged {
                seen: Some(seen), ..
            }),
        ) = (&answer, slot.as_ref())
        {
            if Arc::ptr_eq(outcome, seen) {
                return true;
            }
        }
        let (rows, seen) = match answer {
            Answer::Served(outcome) => (&outcome.skyline[..], Some(outcome.clone())),
            Answer::Streamed(rows) => (rows, None),
        };
        let mut sorted = rows.to_vec();
        sorted.sort_unstable();
        match slot.as_mut() {
            None => {
                *slot = Some(Logged { sorted, seen });
                true
            }
            Some(first) if first.sorted == sorted => {
                first.seen = seen.or(first.seen.take());
                true
            }
            Some(_) => {
                self.failures.wrong();
                false
            }
        }
    }

    /// Every profile answered during the run with its (sorted) answer.
    pub fn answers(&self) -> Vec<(usize, Vec<GlobalRowId>)> {
        self.answers
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let slot = slot.lock().expect("no caller panicked");
                slot.as_ref().map(|logged| (i, logged.sorted.clone()))
            })
            .collect()
    }
}

/// Traced writes also time the engine layer: an insert of the same values straight into
/// the shard's engine, and the delete of that new row, under one write lock. The pair leaves
/// the live rows unchanged.
fn engine_write_twin(
    service: &ShardedService,
    shard: usize,
    values: &RowValues,
    buf: &mut SpanBuf<'_>,
    request: u64,
) {
    let mut engine = service.shard(shard).write();
    let t0 = Instant::now();
    let inserted = engine.insert_row(&values.numeric, &values.nominal);
    let t1 = Instant::now();
    if inserted.is_err() {
        return;
    }
    let row = (engine.dataset().len() - 1) as PointId;
    let deleted = engine.delete_row(row);
    let t2 = Instant::now();
    drop(engine);
    buf.record(ROOT, request, "engine.insert_row", t0, t1);
    if deleted.is_ok() {
        buf.record(ROOT, request, "engine.delete_row", t1, t2);
    }
}

/// Sleeps until shortly before `due`, then yields until it passes, so a due time is met
/// within microseconds without burning a core between requests.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_WINDOW {
        thread::sleep(due - now - SPIN_WINDOW);
    }
    while Instant::now() < due {
        thread::yield_now();
    }
}

/// Whether open-loop request `k` is traced: a fixed coin per position (SplitMix64 of `k`),
/// so that traced and untraced requests ask for the same mix of profiles even where the
/// stream cycles the pool in order.
fn is_traced(k: usize) -> bool {
    let mut z = (k as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & 1 == 0
}

#[cfg(test)]
mod tests {
    use super::is_traced;

    /// Traced requests are about half of every profile class, including the even and odd
    /// positions of a pool cycled in order.
    #[test]
    fn trace_coin_ignores_the_position_parity() {
        for parity in 0..2 {
            let traced = (parity..8192).step_by(2).filter(|&k| is_traced(k)).count();
            assert!(
                (1843..=2253).contains(&traced),
                "{parity}: {traced} of 4096"
            );
        }
    }
}
