//! `twigm-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints human-readable `#` lines, then a `record` line (seed, inputs,
//! queries, host facts), and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A traced run also writes its spans as Chrome trace-event JSON to
//! [`TRACE_DIR`].

use std::process::ExitCode;
use std::time::{Duration, Instant};

use twigm_bench::CountingAllocator;
use twigm_perfbench::host;
use twigm_perfbench::layers;
use twigm_perfbench::report::{json_num, json_str, metric, result_line, Metric};
use twigm_perfbench::stats::{highest_supported_percentile, median, MIB};
use twigm_perfbench::timed;
use twigm_perfbench::workload::{self, Driver, Inputs, Workload};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Set-up repetitions made back to back before the oracle pass, and
/// after the measurement; `setup_s` is the fastest of all of them.
const SETUP_REPS_BEFORE: usize = 5;
const SETUP_REPS_AFTER: usize = 4;

/// Where traced runs write their Chrome trace files.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One set-up: generate the inputs, parse the queries, compile the
/// engines. Returns the time spent on the whole and on compiling.
fn setup(
    w: Workload,
    seed: u64,
) -> Result<(Inputs, Vec<twigm_xpath::Path>, Driver, Duration, Duration), String> {
    let start = Instant::now();
    let inputs = workload::generate(w, seed);
    let compile_start = Instant::now();
    let paths = workload::parse_queries(&inputs)?;
    let driver = Driver::build(w, &paths)?;
    let compile = compile_start.elapsed();
    Ok((inputs, paths, driver, start.elapsed(), compile))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("twigm-perfbench: {e}");
            eprintln!("usage: twigm-perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("twigm-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one measurement produced, before the set-up figures are added.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra facts for the record line, as (key, JSON value).
    facts: Vec<(&'static str, String)>,
    /// The traced run's exact counts, to compare with a recount.
    counts: Option<layers::Counts>,
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let host = host::probe();

    // `setup_s` is the fastest of several set-ups, each made after the
    // previous one's inputs are dropped. Like the timed documents,
    // set-up is taken at its best (min-of-N): the host's slow mode can
    // cover a whole block of back-to-back set-ups, so one block runs
    // before the measurement and one after it. The last set-up before
    // the measurement is the one measured; a traced run keeps the first
    // one's inputs for its recount.
    let mut setup_secs = Vec::new();
    let mut compile_secs = Vec::new();
    let mut made = None;
    let mut first = None;
    for rep in 0..SETUP_REPS_BEFORE {
        let previous = made.take();
        if rep == 1 && args.trace {
            first = previous.map(|(inputs, paths, _)| (inputs, paths));
        } else {
            drop(previous);
        }
        let (inputs, paths, driver, total, compile) = setup(w, args.seed)?;
        setup_secs.push(total.as_secs_f64());
        compile_secs.push(compile.as_secs_f64());
        made = Some((inputs, paths, driver));
    }
    let (inputs, paths, mut driver) = made.expect("at least one set-up");

    let expected = workload::oracle(&inputs, &paths)?;
    let mut outcome = if args.trace {
        traced(args, &inputs, &paths, &expected, &mut driver, &host)?
    } else {
        end_to_end(args, &inputs, &expected, &mut driver)
    };

    let mut counts_exact = true;
    if let (Some(counts), Some((again, again_paths))) = (&outcome.counts, &first) {
        // Count-type metrics must repeat exactly on a second generation
        // of the same seed.
        counts_exact = layers::count_pool(again, again_paths, &expected)? == *counts;
    }
    drop(first);
    for _ in 0..SETUP_REPS_AFTER {
        let (_, _, _, total, compile) = setup(w, args.seed)?;
        setup_secs.push(total.as_secs_f64());
        compile_secs.push(compile.as_secs_f64());
    }
    if args.trace {
        println!("# count-type metrics repeat exactly on a second generation of the seed: {counts_exact}");
        outcome.correct &= counts_exact;
        let compile_us = median(&compile_secs) * 1e6;
        outcome
            .metrics
            .push(metric("xpath.compile_us", compile_us, "us"));
    } else {
        outcome.metrics.push(metric(
            "setup_s",
            setup_secs.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ));
    }
    for m in &outcome.metrics {
        println!("# {} = {} {}", m.name, json_num(m.value), m.unit);
    }
    let setup_runs: Vec<String> = setup_secs.iter().map(|&v| json_num(v)).collect();
    outcome
        .facts
        .push(("setup_runs_s", format!("[{}]", setup_runs.join(", "))));
    outcome
        .facts
        .push(("setup_median_s", json_num(median(&setup_secs))));
    outcome
        .facts
        .push(("counts_exact", counts_exact.to_string()));
    println!("{}", record(args, &inputs, &host, &outcome.facts));
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    Ok(())
}

/// The untraced run: the end-to-end metrics.
fn end_to_end(
    args: &Args,
    inputs: &Inputs,
    expected: &[workload::Answer],
    driver: &mut Driver,
) -> Outcome {
    let run = timed::run(driver, inputs, expected, args.seconds, 0);
    let metrics = vec![
        metric("throughput_mb_s", run.throughput(), "MiB/s"),
        metric("doc_p50_ms", run.best_latency(50.0), "ms"),
        metric("doc_p90_ms", run.best_latency(90.0), "ms"),
        metric("cpu_ms_per_mb", run.cpu_ms_per_mib(), "ms/MiB"),
        metric("peak_heap_mb", run.peak_heap_mib(), "MiB"),
    ];
    let n = run.latencies_ms.len();
    let pool = run.best_ms.len();
    let tail = highest_supported_percentile(pool).unwrap_or(0.0);
    let tail_ms = run.best_latency(tail);
    println!(
        "# {n} documents timed, {:.1} repeats per pool document; over the {pool} pool documents' best latencies the highest percentile with >=10 documents beyond it is p{tail} = {tail_ms:.4} ms",
        n as f64 / pool as f64
    );
    println!(
        "# doc_fail_frac = {} ratio ({} of {})",
        run.fail_frac(),
        run.failed,
        run.attempted
    );
    let facts = vec![
        ("docs_timed", n.to_string()),
        ("bytes_timed", run.bytes.to_string()),
        ("busy_s", json_num(run.busy.as_secs_f64())),
        (
            "all_docs_throughput_mb_s",
            json_num(run.all_docs_throughput()),
        ),
        ("all_docs_p50_ms", json_num(run.latency(50.0))),
        ("all_docs_p90_ms", json_num(run.latency(90.0))),
        (
            "all_docs_peak_heap_mb",
            json_num(run.peak_heap_bytes as f64 / MIB),
        ),
        (
            "all_docs_cpu_ms_per_mb",
            json_num(run.all_docs_cpu_ms_per_mib()),
        ),
        ("tail_percentile", json_num(tail)),
        ("tail_ms", json_num(tail_ms)),
        ("doc_fail_frac", json_num(run.fail_frac())),
    ];
    Outcome {
        correct: run.failed == 0,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        facts,
        counts: None,
    }
}

/// The traced run: the per-layer metrics, and the spans written as a
/// Chrome trace under [`TRACE_DIR`].
fn traced(
    args: &Args,
    inputs: &Inputs,
    paths: &[twigm_xpath::Path],
    expected: &[workload::Answer],
    driver: &mut Driver,
    host: &host::HostFacts,
) -> Result<Outcome, String> {
    let traced = layers::run(inputs, paths, expected, driver, args.seconds)?;
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    let file = format!(
        "{TRACE_DIR}/trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    );
    let meta = record(args, inputs, host, &[]);
    std::fs::write(&file, layers::chrome_trace(&traced.spans, &meta))
        .map_err(|e| format!("{file}: {e}"))?;
    println!("# trace written to {file} ({} spans)", traced.spans.len());
    Ok(Outcome {
        correct: traced.failed == 0 && traced.counts.replay_mismatches == 0,
        attempted: traced.attempted,
        failed: traced.failed,
        metrics: traced.metrics,
        facts: Vec::new(),
        counts: Some(traced.counts),
    })
}

/// The facts a claim needs to be re-checked: seed, inputs, queries,
/// host, plus the run's own `facts`.
fn record(
    args: &Args,
    inputs: &Inputs,
    host: &host::HostFacts,
    facts: &[(&str, String)],
) -> String {
    let queries: Vec<String> = inputs.queries.iter().map(|q| json_str(q)).collect();
    let facts: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"pool_docs\": {}, \"pool_bytes\": {}, \"max_depth\": {}, \"queries\": [{}], \"host\": {}, \"run\": {{{}}}}}}}",
        json_str(args.workload.name()),
        inputs.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        inputs.docs.len(),
        inputs.total_bytes(),
        inputs.max_depth,
        queries.join(", "),
        host.to_json(),
        facts.join(", ")
    )
}
