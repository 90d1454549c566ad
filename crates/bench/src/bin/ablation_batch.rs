//! Batch-size ablation — the threaded union pipeline's time, CPU and
//! peak heap at several `PipelineOptions::batch_events`, with every
//! size built into one binary.
//!
//! The workload is the benchmark's `auction-union-2t`: the Figure-6
//! auction queries as one union through `run_multi_sharded` with one
//! shard (a producer thread and one consumer), over generated auction
//! documents of about 256 KiB. Two builds of the same code read this
//! workload 10–30% apart from code layout alone, so a batch size cannot
//! be chosen by building each size separately. Here every size runs in
//! one process over the same documents, in rounds that rotate which
//! size goes first.
//!
//! Per size it prints the sum over documents of each document's best
//! wall time (as MiB/s) and best process CPU time (as ms per MiB), the
//! largest over documents of each document's smallest heap peak (the
//! benchmark's `peak_heap_mb`), and, against the first size, the
//! median over rounds of the ratio of the round's wall and CPU times
//! and the number of rounds the size was faster. Before anything is
//! timed, every size's results are checked against the serial union.
//!
//! Usage: `cargo run -p twigm-bench --release --bin ablation_batch --
//! [--sizes 4096,2048,1024,512] [--rounds N] [--docs N] [--doc-kib N]`

use std::time::{Duration, Instant};

use twigm::engine::run_engine;
use twigm::pipeline::{run_multi_sharded, shard_queries, PipelineOptions};
use twigm::MultiTwigM;
use twigm_bench::harness::print_row;
use twigm_bench::{auction_queries, CountingAllocator};
use twigm_sax::NodeId;
use twigm_xpath::Path;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time of every thread of this process so far,
/// exited threads included — a pipelined run's producer among them.
fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux) for the whole call, and the clock id is a constant
    // every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is not negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds are below one second"),
    )
}

struct Args {
    sizes: Vec<usize>,
    rounds: usize,
    docs: usize,
    doc_bytes: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        sizes: vec![4096, 2048, 1024, 512],
        rounds: 50,
        docs: 8,
        doc_bytes: 256 << 10,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = || {
            iter.next()
                .unwrap_or_else(|| panic!("{arg} requires a value"))
        };
        match arg.as_str() {
            "--sizes" => {
                args.sizes = value()
                    .split(',')
                    .map(|s| s.parse().expect("--sizes takes comma-separated integers"))
                    .collect();
            }
            "--rounds" => args.rounds = value().parse().expect("--rounds requires an integer"),
            "--docs" => args.docs = value().parse().expect("--docs requires an integer"),
            "--doc-kib" => {
                args.doc_bytes = value()
                    .parse::<usize>()
                    .expect("--doc-kib requires an integer")
                    << 10;
            }
            other => panic!(
                "unknown flag {other}; supported: --sizes A,B,.. --rounds N --docs N --doc-kib N"
            ),
        }
    }
    assert!(
        !args.sizes.is_empty() && args.rounds > 0 && args.docs > 0,
        "need at least one size, round and document"
    );
    args
}

/// One sharded run of `doc` at `batch_events`: its ids, wall time,
/// process CPU time and heap peak above the live heap at its start.
fn timed_run(
    paths: &[Path],
    doc: &[u8],
    batch_events: usize,
) -> (Vec<NodeId>, Duration, Duration, u64) {
    let opts = PipelineOptions {
        batch_events,
        ..PipelineOptions::default()
    };
    let base = CountingAllocator::reset_peak();
    let cpu = process_cpu_time();
    let start = Instant::now();
    let shards = shard_queries(paths, 1).expect("benchmark queries compile");
    let outcome = run_multi_sharded(shards, doc, &opts).expect("generated documents parse");
    let wall = start.elapsed();
    let cpu = process_cpu_time() - cpu;
    (outcome.ids, wall, cpu, CountingAllocator::peak() - base)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let args = parse_args();
    let paths: Vec<Path> = auction_queries().iter().map(|q| q.parse()).collect();
    let docs: Vec<Vec<u8>> = (1..=args.docs as u64)
        .map(|seed| {
            let mut doc = Vec::new();
            twigm_datagen::auction::generate(seed, args.doc_bytes, &mut doc)
                .expect("writing to a Vec cannot fail");
            doc
        })
        .collect();
    let mib = docs.iter().map(Vec::len).sum::<usize>() as f64 / (1 << 20) as f64;

    // The differential: every size returns the serial union's ids.
    for doc in &docs {
        let mut serial = MultiTwigM::new();
        for path in &paths {
            serial.add_query(path).expect("benchmark queries compile");
        }
        let (mut expected, _) = run_engine(serial, &doc[..]).expect("generated documents parse");
        expected.sort_unstable();
        expected.dedup();
        for &size in &args.sizes {
            let (ids, ..) = timed_run(&paths, doc, size);
            assert_eq!(ids, expected, "batch size {size} changed the results");
        }
    }

    let n = args.sizes.len();
    let mut best_wall = vec![vec![f64::INFINITY; docs.len()]; n];
    let mut best_cpu = vec![vec![f64::INFINITY; docs.len()]; n];
    let mut best_heap = vec![vec![u64::MAX; docs.len()]; n];
    // Per round and size: the round's summed wall and CPU seconds.
    let mut rounds = vec![vec![(0.0, 0.0); n]; args.rounds];
    for (r, round) in rounds.iter_mut().enumerate() {
        for i in (0..n).map(|i| (i + r) % n) {
            for (k, doc) in docs.iter().enumerate() {
                let (_, wall, cpu, heap) = timed_run(&paths, doc, args.sizes[i]);
                let (wall, cpu) = (wall.as_secs_f64(), cpu.as_secs_f64());
                best_wall[i][k] = best_wall[i][k].min(wall);
                best_cpu[i][k] = best_cpu[i][k].min(cpu);
                best_heap[i][k] = best_heap[i][k].min(heap);
                round[i].0 += wall;
                round[i].1 += cpu;
            }
        }
    }

    println!(
        "Batch-size ablation: {} auction documents of {} KiB, {} rounds, 1-shard union, {} CPUs",
        docs.len(),
        args.doc_bytes >> 10,
        args.rounds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let widths = [7, 9, 11, 10, 12, 6, 11, 6];
    print_row(
        &widths,
        &[
            "batch",
            "MiB/s",
            "cpu ms/MiB",
            "heap MiB",
            "wall ratio",
            "wins",
            "cpu ratio",
            "wins",
        ]
        .map(String::from),
    );
    for i in 0..n {
        let ratios = |f: fn(&(f64, f64)) -> f64| {
            let ratios: Vec<f64> = rounds.iter().map(|r| f(&r[i]) / f(&r[0])).collect();
            let wins = ratios.iter().filter(|&&x| x < 1.0).count();
            (median(ratios), wins)
        };
        let (wall_ratio, wall_wins) = ratios(|r| r.0);
        let (cpu_ratio, cpu_wins) = ratios(|r| r.1);
        print_row(
            &widths,
            &[
                args.sizes[i].to_string(),
                format!("{:.1}", mib / best_wall[i].iter().sum::<f64>()),
                format!("{:.2}", best_cpu[i].iter().sum::<f64>() * 1e3 / mib),
                format!(
                    "{:.3}",
                    *best_heap[i].iter().max().expect("documents") as f64 / (1 << 20) as f64
                ),
                format!("{wall_ratio:.3}"),
                format!("{wall_wins}/{}", args.rounds),
                format!("{cpu_ratio:.3}"),
                format!("{cpu_wins}/{}", args.rounds),
            ],
        );
    }
}
