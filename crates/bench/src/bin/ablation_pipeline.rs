//! Pipeline ablation — measures what the batched producer/consumer
//! pipeline (`--threads`), the symbol-relevance prefilter, and
//! multi-query sharding buy over the serial event loop, on the three
//! Figure-5 datasets.
//!
//! Three comparisons run per dataset:
//!
//! * **single query, pipelined** — the dataset's most selective
//!   Figure-6 query through `run_engine_pipelined` (one producer + one
//!   consumer thread, prefilter on) against the serial `run_engine`
//!   loop: the `--threads 2` configuration;
//! * **single query, prefilter off** — the same pipeline with every
//!   event delivered (no symbol prefilter and no reader projection),
//!   isolating how much of the win is dropping irrelevant subtree events
//!   versus batching itself. The serial loop projects, as every
//!   `run_engine` does, and `drop%` counts only the events the reader
//!   delivered, not the ones it skimmed;
//! * **union, sharded** — the dataset's full Figure-6 query set as one
//!   `|` union through `run_multi_sharded` with 1, 2 and 4 worker
//!   engines (the `--threads 2` / `--threads 3` / `--threads 5`
//!   configurations) against the serial `MultiTwigM` union. The
//!   1-shard run is the one-consumer pipeline of a union, the
//!   configuration the `auction-union-2t` benchmark workload times.
//!
//! Before anything is timed, every mode's result set is checked against
//! the serial run — the ablation doubles as a determinism differential
//! on multi-megabyte real data.
//!
//! With `PIPELINE_ABLATION_GATE=<factor>` set, exits non-zero unless the
//! best e2e speedup of the single-query pipeline and the 2- and 4-shard
//! unions across all datasets is at least `<factor>`× (the 1-shard
//! union is reported, not gated) — enforced only when the host exposes
//! at least two CPUs, since a pipeline cannot beat a serial loop on one
//! core; on a single-core host the gate still enforces the differential
//! and reports the measured ratios. The gated speedup of a
//! configuration is the median, over the repeats, of the ratio of one
//! serial pass to the configuration's pass in the same round: the two
//! run back to back, so a load spike on a shared host slows both, where
//! a ratio of two min-of-N times compares minima taken at different
//! moments. The per-dataset summary lines report the same paired median
//! for the 1-shard union too, ungated. The CI pipeline-smoke stage runs
//! this with 1.3.
//!
//! Usage: `cargo run -p twigm-bench --release --bin ablation_pipeline`
//! (plus the common `--scale X` / `--full` / `--repeats N` / `--csv` /
//! `--json PATH`).

use std::io::BufReader;
use std::path::Path as FsPath;
use std::time::{Duration, Instant};

use twigm::engine::run_engine;
use twigm::pipeline::{run_engine_pipelined, run_multi_sharded, shard_queries, PipelineOptions};
use twigm::{Engine, MultiTwigM};
use twigm_bench::harness::{print_row, CommonArgs};
use twigm_bench::{auction_queries, book_queries, ensure_dataset, protein_queries, QuerySpec};
use twigm_datagen::Dataset;
use twigm_sax::NodeId;
use twigm_xpath::Path;

fn open(path: &FsPath) -> BufReader<std::fs::File> {
    BufReader::with_capacity(
        256 * 1024,
        std::fs::File::open(path).expect("open benchmark dataset"),
    )
}

/// One timed serial single-query pass.
fn serial_pass(query: &Path, path: &FsPath) -> (Duration, Vec<NodeId>) {
    let engine = Engine::new(query).expect("benchmark query compiles");
    let start = Instant::now();
    let (ids, _) = run_engine(engine, open(path)).expect("benchmark dataset parses");
    (start.elapsed(), ids)
}

/// One timed pipelined single-query pass; also returns the prefilter
/// drop ratio from the producer's accounting.
fn pipelined_pass(query: &Path, path: &FsPath, prefilter: bool) -> (Duration, Vec<NodeId>, f64) {
    let engine = Engine::new(query).expect("benchmark query compiles");
    let opts = PipelineOptions {
        prefilter,
        ..PipelineOptions::default()
    };
    let start = Instant::now();
    let (ids, _, stats) =
        run_engine_pipelined(engine, open(path), &opts).expect("benchmark dataset parses");
    let drop_ratio = if stats.events_scanned > 0 {
        stats.events_filtered as f64 / stats.events_scanned as f64
    } else {
        0.0
    };
    (start.elapsed(), ids, drop_ratio)
}

/// One timed serial union pass (sorted, deduplicated ids — the union
/// output contract).
fn union_serial_pass(branches: &[Path], path: &FsPath) -> (Duration, Vec<NodeId>) {
    let mut engine = MultiTwigM::new();
    for branch in branches {
        engine.add_query(branch).expect("benchmark query compiles");
    }
    let start = Instant::now();
    let (mut ids, _) = run_engine(engine, open(path)).expect("benchmark dataset parses");
    ids.sort_unstable();
    ids.dedup();
    (start.elapsed(), ids)
}

/// One timed sharded union pass with `workers` worker engines.
fn union_sharded_pass(branches: &[Path], path: &FsPath, workers: usize) -> (Duration, Vec<NodeId>) {
    let shards = shard_queries(branches, workers).expect("benchmark queries compile");
    let start = Instant::now();
    let outcome = run_multi_sharded(shards, open(path), &PipelineOptions::default())
        .expect("benchmark dataset parses");
    (start.elapsed(), outcome.ids)
}

fn min(samples: &[Duration]) -> Duration {
    *samples.iter().min().expect("repeats >= 1")
}

fn ratio(serial: Duration, variant: Duration) -> f64 {
    serial.as_secs_f64() / variant.as_secs_f64()
}

/// The median over the rounds of `serial[i] / variant[i]`: the speedup
/// of adjacent pairs (see the module docs).
fn paired_median(serial: &[Duration], variant: &[Duration]) -> f64 {
    let mut ratios: Vec<f64> = serial
        .iter()
        .zip(variant)
        .map(|(&s, &v)| ratio(s, v))
        .collect();
    ratios.sort_unstable_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    }
}

/// Per-dataset min-of-repeats times feeding the table, the gate, and the
/// JSON dump.
struct DatasetResult {
    name: &'static str,
    query: &'static str,
    bytes: u64,
    results: usize,
    drop_ratio: f64,
    serial: Duration,
    pipelined: Duration,
    unfiltered: Duration,
    union_branches: usize,
    union_results: usize,
    union_serial: Duration,
    sharded1: Duration,
    sharded2: Duration,
    sharded4: Duration,
    /// Median paired speedups of the gated configurations: pipelined,
    /// 2-shard and 4-shard.
    paired: [f64; 3],
    /// Median paired speedup of the 1-shard union (reported, not gated).
    paired_1w: f64,
}

fn queries_for(dataset: Dataset) -> Vec<QuerySpec> {
    match dataset {
        Dataset::Book => book_queries(),
        Dataset::Protein => protein_queries(),
        Dataset::Auction => auction_queries(),
    }
}

fn main() {
    let args = CommonArgs::parse();
    let gate: Option<f64> = std::env::var("PIPELINE_ABLATION_GATE")
        .ok()
        .map(|v| v.parse().expect("PIPELINE_ABLATION_GATE must be a factor"));
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("pipeline ablation: batched producer/consumer vs the serial event loop");
    println!("(pipe = 2 threads, prefilter on; nofilt = prefilter off; union = full");
    println!(" Figure-6 query set sharded over 1/2/4 workers; {cores} CPU(s) available)");
    println!();
    let widths = [9, 26, 6, 8, 7, 8, 7, 9, 7, 7, 7];
    print_row(
        &widths,
        &[
            "dataset".into(),
            "query".into(),
            "MB".into(),
            "serial".into(),
            "pipe x".into(),
            "nofilt x".into(),
            "drop%".into(),
            "union-s".into(),
            "1w x".into(),
            "2w x".into(),
            "4w x".into(),
        ],
    );

    let mut results: Vec<DatasetResult> = Vec::new();
    for dataset in Dataset::ALL {
        let path = ensure_dataset(dataset, args.size_for(dataset)).expect("dataset generation");
        let bytes = std::fs::metadata(&path).expect("metadata").len();
        let specs = queries_for(dataset);
        // The class ladder's opening query: selective, wildcard-free, so
        // the prefilter has subtrees to drop.
        let query = specs[0].parse();
        let branches: Vec<Path> = specs.iter().map(|s| s.parse()).collect();

        // Differential: every mode must agree with the serial run before
        // anything is timed.
        let (_, expected) = serial_pass(&query, &path);
        let (_, got, drop_ratio) = pipelined_pass(&query, &path, true);
        assert_eq!(got, expected, "pipelined diverged on {}", dataset.name());
        let (_, got, _) = pipelined_pass(&query, &path, false);
        assert_eq!(
            got,
            expected,
            "unfiltered pipeline diverged on {}",
            dataset.name()
        );
        let (_, union_expected) = union_serial_pass(&branches, &path);
        for workers in [1, 2, 4] {
            let (_, got) = union_sharded_pass(&branches, &path, workers);
            assert_eq!(
                got,
                union_expected,
                "{}-worker union diverged on {}",
                workers,
                dataset.name()
            );
        }

        // Interleaved sampling so load spikes hit every variant alike.
        let mut serial = Vec::with_capacity(args.repeats);
        let mut pipelined = Vec::with_capacity(args.repeats);
        let mut unfiltered = Vec::with_capacity(args.repeats);
        let mut union_serial = Vec::with_capacity(args.repeats);
        let mut sharded1 = Vec::with_capacity(args.repeats);
        let mut sharded2 = Vec::with_capacity(args.repeats);
        let mut sharded4 = Vec::with_capacity(args.repeats);
        for _ in 0..args.repeats {
            serial.push(serial_pass(&query, &path).0);
            pipelined.push(pipelined_pass(&query, &path, true).0);
            unfiltered.push(pipelined_pass(&query, &path, false).0);
            union_serial.push(union_serial_pass(&branches, &path).0);
            sharded1.push(union_sharded_pass(&branches, &path, 1).0);
            sharded2.push(union_sharded_pass(&branches, &path, 2).0);
            sharded4.push(union_sharded_pass(&branches, &path, 4).0);
        }

        let r = DatasetResult {
            name: dataset.name(),
            query: specs[0].text,
            bytes,
            results: expected.len(),
            drop_ratio,
            serial: min(&serial),
            pipelined: min(&pipelined),
            unfiltered: min(&unfiltered),
            union_branches: branches.len(),
            union_results: union_expected.len(),
            union_serial: min(&union_serial),
            sharded1: min(&sharded1),
            sharded2: min(&sharded2),
            sharded4: min(&sharded4),
            paired: [
                paired_median(&serial, &pipelined),
                paired_median(&union_serial, &sharded2),
                paired_median(&union_serial, &sharded4),
            ],
            paired_1w: paired_median(&union_serial, &sharded1),
        };
        print_row(
            &widths,
            &[
                r.name.into(),
                r.query.into(),
                format!("{:.1}", r.bytes as f64 / (1024.0 * 1024.0)),
                format!("{:.3}s", r.serial.as_secs_f64()),
                format!("{:.2}", ratio(r.serial, r.pipelined)),
                format!("{:.2}", ratio(r.serial, r.unfiltered)),
                format!("{:.1}", 100.0 * r.drop_ratio),
                format!("{:.3}s", r.union_serial.as_secs_f64()),
                format!("{:.2}", ratio(r.union_serial, r.sharded1)),
                format!("{:.2}", ratio(r.union_serial, r.sharded2)),
                format!("{:.2}", ratio(r.union_serial, r.sharded4)),
            ],
        );
        results.push(r);
    }

    let best_min = results
        .iter()
        .flat_map(|r| {
            [
                ratio(r.serial, r.pipelined),
                ratio(r.union_serial, r.sharded2),
                ratio(r.union_serial, r.sharded4),
            ]
        })
        .fold(0.0f64, f64::max);
    let best = results.iter().flat_map(|r| r.paired).fold(0.0f64, f64::max);
    println!();
    for r in &results {
        println!(
            "{}: median paired speedup pipe {:.2}x, 1w {:.2}x, 2w {:.2}x, 4w {:.2}x",
            r.name, r.paired[0], r.paired_1w, r.paired[1], r.paired[2]
        );
    }
    println!(
        "overall: best e2e speedup {best:.2}x (median of {} adjacent pairs), \
         {best_min:.2}x (min-of-{}), on {cores} CPU(s)",
        args.repeats, args.repeats
    );

    if let Some(path) = &args.json {
        let mut out = String::from("{\n  \"bench\": \"pipeline_ablation\",\n");
        out.push_str(&format!("  \"scale\": {},\n", args.scale));
        out.push_str(&format!("  \"repeats\": {},\n", args.repeats));
        out.push_str(&format!("  \"cores\": {cores},\n"));
        out.push_str("  \"datasets\": [\n");
        for (i, r) in results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"dataset\": \"{}\", \"query\": \"{}\", \"bytes\": {}, \"results\": {},\n     \
                 \"serial_secs\": {:.6}, \"pipelined_secs\": {:.6}, \"unfiltered_secs\": {:.6},\n     \
                 \"pipelined_speedup\": {:.4}, \"unfiltered_speedup\": {:.4}, \"prefilter_drop\": {:.4},\n     \
                 \"union\": {{\"branches\": {}, \"results\": {}, \"serial_secs\": {:.6},\n     \
                 \"sharded1_secs\": {:.6}, \"sharded2_secs\": {:.6}, \"sharded4_secs\": {:.6},\n     \
                 \"sharded1_speedup\": {:.4}, \"sharded2_speedup\": {:.4}, \"sharded4_speedup\": {:.4}}},\n     \
                 \"paired_speedups\": {{\"pipe\": {:.4}, \"1w\": {:.4}, \"2w\": {:.4}, \"4w\": {:.4}}}}}{}\n",
                r.name,
                r.query,
                r.bytes,
                r.results,
                r.serial.as_secs_f64(),
                r.pipelined.as_secs_f64(),
                r.unfiltered.as_secs_f64(),
                ratio(r.serial, r.pipelined),
                ratio(r.serial, r.unfiltered),
                r.drop_ratio,
                r.union_branches,
                r.union_results,
                r.union_serial.as_secs_f64(),
                r.sharded1.as_secs_f64(),
                r.sharded2.as_secs_f64(),
                r.sharded4.as_secs_f64(),
                ratio(r.union_serial, r.sharded1),
                ratio(r.union_serial, r.sharded2),
                ratio(r.union_serial, r.sharded4),
                r.paired[0],
                r.paired_1w,
                r.paired[1],
                r.paired[2],
                if i + 1 == results.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"best_e2e_speedup\": {best_min:.4},\n"));
        out.push_str(&format!("  \"best_paired_speedup\": {best:.4}\n}}\n"));
        std::fs::write(path, out).expect("write --json output");
        println!("wrote {}", path.display());
    }

    if let Some(factor) = gate {
        if cores < 2 {
            println!(
                "gate: single CPU — differential enforced, speedup gate ({factor}x) \
                 reported only: best paired {best:.2}x"
            );
        } else if best >= factor {
            println!("gate: best paired e2e speedup {best:.2}x >= {factor}x — OK");
        } else {
            eprintln!("gate FAIL: best paired e2e speedup {best:.2}x (need >= {factor}x)");
            std::process::exit(1);
        }
    }
}
