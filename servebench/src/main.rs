//! Served-query benchmark: builds a `ShardedService` from generated rows, drives one
//! workload through its public API, checks every distinct answer against an unsharded
//! reference engine, and prints the metrics as one JSON line (the last line of stdout).
//!
//! ```text
//! servebench --workload <zipf_hot|cold_popular|cold_fallback>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same phases with spans
//! recorded around the calls into each layer and reports the per-layer metrics, a stage
//! table of self times, and the spans as CSV under `.servebench/`.

mod check;
mod drive;
mod layers;
mod metrics;
mod report;
mod spans;
mod workload;

use drive::Harness;
use layers::IndexBytes;
use metrics::{end_to_end, gen_lag_p99_ms, per_layer, print_stage_table, LayerInputs};
use skyline::EngineConfig;
use skyline_service::{ShardedConfig, ShardedService};
use spans::Tracer;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Instant;
use workload::{Inputs, Spec, TOP_K};

/// Service builds per untraced run; `setup_s` is their median.
const SETUP_BUILDS: usize = 3;
/// Seconds of the closed loop (at most half the run); the open loop gets the rest.
const CLOSED_SECONDS: f64 = 6.0;
/// Profiles the traced run replays layer by layer (the first ones of the pool).
const REPLAY_PROFILES: usize = 128;
/// Run output directory, relative to the working directory.
const OUT_DIR: &str = ".servebench";

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: servebench --workload <zipf_hot|cold_popular|cold_fallback> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut values: HashMap<String, String> = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key.to_string(), value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing --{key}"))
    };
    let name = get("workload")?;
    let workload = workload::find(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the service of `spec` over the generated rows.
fn build_service(spec: &Spec, inputs: &Inputs, workers: usize) -> Result<ShardedService, String> {
    ShardedService::build(
        &inputs.data,
        inputs.template.clone(),
        EngineConfig::Hybrid { top_k: TOP_K },
        ShardedConfig {
            shards: spec.shards,
            partition: inputs.partition.clone(),
            cache_capacity: spec.cache_capacity,
            workers,
            ..ShardedConfig::default()
        },
    )
    .map_err(|e| format!("building the {} service: {e}", spec.name))
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn run(args: &Args) -> Result<String, String> {
    let spec = args.workload;
    let callers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let open_seconds = args.seconds - CLOSED_SECONDS.min(args.seconds / 2.0);
    let inputs = Inputs::generate(spec, args.seed, workload::TUPLES, open_seconds);
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    eprintln!(
        "servebench: {} seed={} n={} profiles={} scheduled={} callers={callers}",
        spec.name,
        args.seed,
        inputs.data.len(),
        inputs.profiles.len(),
        inputs.schedule.len()
    );

    let tracer = args.trace.then(Tracer::new);
    let builds = if args.trace { 1 } else { SETUP_BUILDS };
    let mut setup_s = Vec::with_capacity(builds);
    let mut service = None;
    for _ in 0..builds {
        drop(service.take());
        let started = Instant::now();
        service = Some(build_service(spec, &inputs, callers)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let service = service.expect("at least one build");
    let index = IndexBytes::of(&service);
    let setup = match &tracer {
        Some(t) => Some(layers::setup_replay(&service, &mut t.buffer())?),
        None => None,
    };

    let harness = Harness::new(&service, spec, &inputs, tracer.as_ref());
    let warmed = harness.warm();
    let stats_before = service.stats();
    let open = harness.open_loop(callers);
    let closed = harness.closed_loop(callers, open.next_request, args.seconds - open_seconds);
    let stats_after = service.stats();

    let replay = match &tracer {
        Some(t) => Some(layers::query_replay(
            &service,
            &inputs,
            REPLAY_PROFILES,
            &mut t.buffer(),
        )?),
        None => None,
    };
    let (write_ms, probe_writes) = harness.write_probe();
    let peak_rss = peak_rss_mb();

    let rebuild_s = if args.trace {
        layers::rebuild_all(&service)?
    } else {
        0.0
    };
    let snapshots_written = if args.trace {
        layers::snapshot_writes(&service)?
    } else {
        (0.0, 0)
    };

    let wrong = check::answers(&harness, callers)?;
    harness.failures.wrong.fetch_add(wrong, Ordering::Relaxed);
    // The per-layer numbers come from a replay of the service's work; a replay whose merge
    // differs from what the service answers would describe some other computation.
    let replayed = replay.as_ref().map_or(0, |r| r.merge_ms.len());
    if let Some(r) = replay.as_ref().filter(|r| r.merge_mismatches > 0) {
        eprintln!(
            "servebench: the replayed merge differs from serve on {} of {replayed} profiles",
            r.merge_mismatches
        );
        harness
            .failures
            .wrong
            .fetch_add(r.merge_mismatches, Ordering::Relaxed);
    }

    let attempted = (warmed + open.records.len() + probe_writes + replayed) as u64 + closed.ops;
    let failed = harness.failures.total();
    let allowed_backlog = callers + open.records.len() / 100;
    let steady = open.backlog_end <= allowed_backlog;
    eprintln!(
        "servebench: open loop: {} requests, generator lag p99 {:.3} ms, backlog at end {}",
        open.records.len(),
        gen_lag_p99_ms(&open.records),
        open.backlog_end
    );
    if !steady {
        eprintln!(
            "servebench: INVALID run: {} requests were still waiting when the schedule ended \
             (allowed {allowed_backlog}); the arrival rate outruns the service",
            open.backlog_end
        );
    }
    let correct = failed == 0 && steady;

    let metrics = match (&tracer, setup, replay) {
        (Some(tracer), Some(setup), Some(replay)) => {
            let spans = tracer.take();
            let path = out_dir.join(format!("trace-{}-seed{}.csv", spec.name, args.seed));
            Tracer::write_csv(&spans, &path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            print_stage_table(spec, &spans, setup_s[0], &setup);
            let layer = LayerInputs {
                open: &open,
                write_ms: &write_ms,
                spans: &spans,
                setup: &setup,
                replay: &replay,
                index,
                stats: (&stats_before, &stats_after),
                rebuild_s,
                snapshots_written,
            };
            per_layer(&layer)
        }
        _ => end_to_end(
            &open, &closed, &write_ms, &setup_s, index, peak_rss, attempted, failed,
        ),
    };
    metrics.print();
    Ok(metrics.result_line(correct, attempted, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The work counts and index bytes a later change may rest a claim on repeat exactly
    /// for a seed: each workload is built and replayed twice from scratch.
    #[test]
    fn counts_repeat_exactly_for_a_seed() {
        for spec in &workload::SPECS {
            let counts = || {
                let inputs = Inputs::generate(spec, 7, 3_000, 1.0);
                let service = build_service(spec, &inputs, 2).expect("service builds");
                let tracer = Tracer::new();
                let r = layers::query_replay(&service, &inputs, 24, &mut tracer.buffer())
                    .expect("replay runs");
                assert_eq!(
                    r.merge_mismatches, 0,
                    "{}: replayed merge != serve",
                    spec.name
                );
                [
                    IndexBytes::of(&service).total() as u64,
                    r.shard_queries,
                    r.tree_served,
                    r.ipo_nodes_visited,
                    r.ipo_set_operations,
                    r.adaptive_affected,
                    r.adaptive_dominance_tests,
                    r.merge_in_rows,
                    r.merge_out_rows,
                ]
            };
            assert_eq!(counts(), counts(), "{}", spec.name);
        }
    }

    /// `BENCHMARK.json` records the parameters of every workload it lists in the workload's
    /// `why` line; keep them in step with the code.
    #[test]
    fn benchmark_json_records_the_workload_parameters() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entry = |spec: &Spec| format!("{{\"name\": \"{}\", \"why\": \"", spec.name);
        let listed: Vec<&Spec> = workload::SPECS
            .iter()
            .filter(|spec| json.contains(&entry(spec)))
            .collect();
        assert!(
            listed.len() >= 2,
            "BENCHMARK.json lists at least two workloads"
        );
        for spec in listed {
            let at = json.find(&entry(spec)).expect("listed");
            let why = &json[at + entry(spec).len()..];
            let why = &why[..why.find('"').expect("why is a string")];
            let call = if spec.streaming {
                "serve_streaming"
            } else {
                "serve"
            };
            for expected in [
                format!("{} shard", spec.shards),
                format!("cache {}", spec.cache_capacity),
                format!("{call};"),
                format!("{} profiles", spec.pool),
                format!("{} warm", spec.warm),
                "0% writes".to_string(),
                format!("{} req/s", spec.rate),
            ] {
                assert!(
                    why.contains(&expected),
                    "{}: {why:?} lacks {expected:?}",
                    spec.name
                );
            }
        }
    }
}
